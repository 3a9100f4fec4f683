// Exact-match oracles: feeding the paper's published ranks / wire counts
// through our hardware model must reproduce the paper's published ratios and
// MBC sizes (the area model and MBC selection rows of docs/ARCHITECTURE.md,
// "Paper technique → source directory"). These tests pin the area/routing
// model to the paper to the last digit.
#include <gtest/gtest.h>

#include <cmath>

#include "core/paper_constants.hpp"
#include "hw/area.hpp"
#include "hw/tiling.hpp"
#include "linalg/lra.hpp"

namespace gs {
namespace {

using core::PaperNetwork;
using core::PaperWireRow;

TEST(PaperReplay, LeNetCrossbarAreaRatioIs13_62Percent) {
  const PaperNetwork net = core::paper_lenet();
  const std::size_t dense = core::paper_cell_count(net, /*clipped=*/false);
  const std::size_t clipped = core::paper_cell_count(net, /*clipped=*/true);
  EXPECT_EQ(dense, 430500u);
  EXPECT_EQ(clipped, 58625u);
  const double ratio = static_cast<double>(clipped) / dense;
  EXPECT_NEAR(ratio, net.crossbar_area_ratio, 5e-5);  // 13.62%
}

TEST(PaperReplay, ConvNetCrossbarAreaRatioIs51_81Percent) {
  const PaperNetwork net = core::paper_convnet();
  const std::size_t dense = core::paper_cell_count(net, /*clipped=*/false);
  const std::size_t clipped = core::paper_cell_count(net, /*clipped=*/true);
  EXPECT_EQ(dense, 89440u);
  EXPECT_EQ(clipped, 46340u);
  EXPECT_NEAR(static_cast<double>(clipped) / dense, net.crossbar_area_ratio,
              5e-5);  // 51.81%
}

TEST(PaperReplay, LeNetLossyAreaRatioIs3_78Percent) {
  // §4.1: ranks 4/6/6 with ~1% accuracy loss → 3.78% crossbar area.
  const PaperNetwork net = core::paper_lenet();
  const std::size_t dense = core::paper_cell_count(net, false);
  const std::size_t lossy = core::paper_cell_count(net, true, /*lossy=*/true);
  EXPECT_NEAR(static_cast<double>(lossy) / dense,
              net.crossbar_area_ratio_lossy, 5e-4);
}

TEST(PaperReplay, Table3MbcSizesLeNet) {
  for (const PaperWireRow& row : core::paper_lenet_table3()) {
    const hw::CrossbarSpec selected =
        hw::select_mbc_size(row.rows, row.cols, hw::paper_technology());
    EXPECT_EQ(selected, row.mbc) << row.name;
  }
}

TEST(PaperReplay, Table3MbcSizesConvNet) {
  for (const PaperWireRow& row : core::paper_convnet_table3()) {
    const hw::CrossbarSpec selected =
        hw::select_mbc_size(row.rows, row.cols, hw::paper_technology());
    EXPECT_EQ(selected, row.mbc) << row.name;
  }
}

TEST(PaperReplay, LeNetRoutingAreaIs8_1Percent) {
  // §4.2: routing-area = mean over layers of (wire ratio)². Feeding the
  // paper's Table 3 wire percentages must give 8.1%.
  double acc = 0.0;
  const auto rows = core::paper_lenet_table3();
  for (const PaperWireRow& row : rows) {
    acc += row.wire_pct * row.wire_pct;
  }
  EXPECT_NEAR(acc / rows.size(), core::paper_lenet().routing_area_ratio,
              5e-4);  // 8.1%
}

TEST(PaperReplay, ConvNetRoutingAreaIs52_06Percent) {
  double acc = 0.0;
  const auto rows = core::paper_convnet_table3();
  for (const PaperWireRow& row : rows) {
    acc += row.wire_pct * row.wire_pct;
  }
  EXPECT_NEAR(acc / rows.size(), core::paper_convnet().routing_area_ratio,
              5e-4);  // 52.06%
}

TEST(PaperReplay, ConvNetMeanWireRatioIs70_03Percent) {
  // §4.2: "our method on average reduces layer-wise routing wires to 70.03%".
  double acc = 0.0;
  const auto rows = core::paper_convnet_table3();
  for (const PaperWireRow& row : rows) acc += row.wire_pct;
  EXPECT_NEAR(acc / rows.size(), 0.7003, 5e-4);
}

TEST(PaperReplay, Eq2HoldsForEveryClippedLayer) {
  // Every clipped rank in Table 1 satisfies the Eq. (2) area-win predicate.
  for (const PaperNetwork& net : {core::paper_lenet(), core::paper_convnet()}) {
    for (const auto& layer : net.layers) {
      if (layer.clipped_rank == 0) continue;
      EXPECT_TRUE(linalg::factorization_saves_area(layer.n, layer.m,
                                                   layer.clipped_rank))
          << net.name << "/" << layer.name;
    }
  }
}

TEST(PaperReplay, TileCountsForTable3) {
  const hw::TechnologyParams tech = hw::paper_technology();
  // fc1_u 800×36 at 50×36 → 16 tiles; fc1_v 36×500 at 36×50 → 10 tiles;
  // conv2_u 500×12 at 50×12 → 10 tiles; fc2 500×10 at 50×10 → 10 tiles.
  EXPECT_EQ(hw::make_tile_grid(800, 36, tech).tile_count(), 16u);
  EXPECT_EQ(hw::make_tile_grid(36, 500, tech).tile_count(), 10u);
  EXPECT_EQ(hw::make_tile_grid(500, 12, tech).tile_count(), 10u);
  EXPECT_EQ(hw::make_tile_grid(500, 10, tech).tile_count(), 10u);
  // ConvNet fc_last 1024×10 at 64×10 → 16 tiles.
  EXPECT_EQ(hw::make_tile_grid(1024, 10, tech).tile_count(), 16u);
}

TEST(PaperReplay, SmallMatricesAreSingleCrossbars) {
  // Table 3 footnote: conv1 (LeNet) and all conv*_v matrices fit in one
  // crossbar and are omitted from the table.
  const hw::TechnologyParams tech = hw::paper_technology();
  EXPECT_EQ(hw::make_tile_grid(25, 20, tech).tile_count(), 1u);   // conv1 LeNet
  EXPECT_EQ(hw::make_tile_grid(12, 50, tech).tile_count(), 1u);   // conv2_v
  EXPECT_EQ(hw::make_tile_grid(12, 32, tech).tile_count(), 1u);   // conv1_v CN
  EXPECT_EQ(hw::make_tile_grid(19, 32, tech).tile_count(), 1u);   // conv2_v CN
  EXPECT_EQ(hw::make_tile_grid(22, 64, tech).tile_count(), 1u);   // conv3_v CN
}

}  // namespace
}  // namespace gs
