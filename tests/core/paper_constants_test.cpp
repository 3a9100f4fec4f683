#include "core/paper_constants.hpp"

#include <gtest/gtest.h>

namespace gs::core {
namespace {

TEST(PaperConstants, LeNetLayerGeometry) {
  const PaperNetwork net = paper_lenet();
  ASSERT_EQ(net.layers.size(), 4u);
  // Unrolled fan-in × fan-out: W is N×M, as in the paper's Eq. (1).
  EXPECT_EQ(net.layers[0].n, 25u);    // conv1: 1·5·5
  EXPECT_EQ(net.layers[0].m, 20u);
  EXPECT_EQ(net.layers[1].n, 500u);   // conv2: 20·5·5
  EXPECT_EQ(net.layers[1].m, 50u);
  EXPECT_EQ(net.layers[2].n, 800u);   // fc1: 50·4·4
  EXPECT_EQ(net.layers[2].m, 500u);
  EXPECT_EQ(net.layers[3].n, 500u);   // fc2
  EXPECT_EQ(net.layers[3].m, 10u);
}

TEST(PaperConstants, LeNetRanksMatchTable1) {
  const PaperNetwork net = paper_lenet();
  EXPECT_EQ(net.layers[0].clipped_rank, 5u);
  EXPECT_EQ(net.layers[1].clipped_rank, 12u);
  EXPECT_EQ(net.layers[2].clipped_rank, 36u);
  EXPECT_EQ(net.layers[3].clipped_rank, 0u);  // classifier never clipped
}

TEST(PaperConstants, ConvNetLayerGeometry) {
  const PaperNetwork net = paper_convnet();
  ASSERT_EQ(net.layers.size(), 4u);
  EXPECT_EQ(net.layers[0].n, 75u);     // conv1: 3·5·5
  EXPECT_EQ(net.layers[1].n, 800u);    // conv2: 32·5·5
  EXPECT_EQ(net.layers[2].n, 800u);    // conv3: 32·5·5
  EXPECT_EQ(net.layers[2].m, 64u);
  EXPECT_EQ(net.layers[3].n, 1024u);   // fc1: 64·4·4
  EXPECT_EQ(net.layers[3].m, 10u);
}

TEST(PaperConstants, ConvNetRanksMatchTable1) {
  const PaperNetwork net = paper_convnet();
  EXPECT_EQ(net.layers[0].clipped_rank, 12u);
  EXPECT_EQ(net.layers[1].clipped_rank, 19u);
  EXPECT_EQ(net.layers[2].clipped_rank, 22u);
}

TEST(PaperConstants, AccuraciesMatchTable1) {
  const PaperNetwork lenet = paper_lenet();
  EXPECT_DOUBLE_EQ(lenet.baseline_accuracy, 0.9915);
  EXPECT_DOUBLE_EQ(lenet.direct_lra_accuracy, 0.9644);
  EXPECT_DOUBLE_EQ(lenet.rank_clipping_accuracy, 0.9914);
  const PaperNetwork convnet = paper_convnet();
  EXPECT_DOUBLE_EQ(convnet.baseline_accuracy, 0.8201);
  EXPECT_DOUBLE_EQ(convnet.direct_lra_accuracy, 0.4329);
  EXPECT_DOUBLE_EQ(convnet.rank_clipping_accuracy, 0.8209);
}

TEST(PaperConstants, CellCountDenseVsClipped) {
  const PaperNetwork lenet = paper_lenet();
  EXPECT_EQ(paper_cell_count(lenet, false), 430500u);
  EXPECT_EQ(paper_cell_count(lenet, true), 58625u);
  const PaperNetwork convnet = paper_convnet();
  EXPECT_EQ(paper_cell_count(convnet, false), 89440u);
  EXPECT_EQ(paper_cell_count(convnet, true), 46340u);
}

TEST(PaperConstants, Table3RowsWellFormed) {
  for (const auto& rows : {paper_lenet_table3(), paper_convnet_table3()}) {
    ASSERT_EQ(rows.size(), 4u);
    for (const PaperWireRow& row : rows) {
      EXPECT_GT(row.rows, 0u);
      EXPECT_GT(row.cols, 0u);
      EXPECT_GT(row.wire_pct, 0.0);
      EXPECT_LT(row.wire_pct, 1.0);
      EXPECT_LE(row.mbc.rows, 64u);
      EXPECT_LE(row.mbc.cols, 64u);
      // MBC must divide the matrix (the §4.2 criterion).
      EXPECT_EQ(row.rows % row.mbc.rows, 0u) << row.name;
      EXPECT_EQ(row.cols % row.mbc.cols, 0u) << row.name;
    }
  }
}

TEST(PaperConstants, Fig8RoutingAreasInRange) {
  const auto areas = paper_convnet_fig8_routing_area();
  ASSERT_EQ(areas.size(), 4u);
  for (double a : areas) {
    EXPECT_GT(a, 0.0);
    EXPECT_LT(a, 1.0);
  }
}

}  // namespace
}  // namespace gs::core
