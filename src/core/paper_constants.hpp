// Published numbers from the paper: the `paper_*` values beside the measured
// ones in bench_paper's records, and exact-match oracles in the tests of the
// hardware model, which must reproduce the published area ratios and MBC
// sizes from the published ranks (tests/hw/paper_replay_test.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hw/crossbar.hpp"

namespace gs::core {

/// One compressible layer as the paper describes it: fan-in N, fan-out M
/// (W is N×M per the paper's Eq. (1) orientation), plus the Table 1 ranks.
struct PaperLayer {
  std::string name;
  std::size_t n = 0;           ///< fan-in (rows of W)
  std::size_t m = 0;           ///< fan-out (cols of W; also the full rank)
  std::size_t clipped_rank = 0;    ///< Table 1 "Rank clipping" rank; 0 = not clipped
  std::size_t lossy_rank = 0;      ///< §4.1 rank at ~1% accuracy loss; 0 = n/a
};

/// A network as evaluated in the paper.
struct PaperNetwork {
  std::string name;
  std::vector<PaperLayer> layers;
  double crossbar_area_ratio = 0.0;        ///< Table-1-rank crossbar area (13.62% / 51.81%)
  double crossbar_area_ratio_lossy = 0.0;  ///< at ~1% loss (3.78% / 38.14%)
  double routing_area_ratio = 0.0;         ///< §4.2 layer-mean (8.1% / 52.06%)
  double baseline_accuracy = 0.0;          ///< Table 1 "Original"
  double direct_lra_accuracy = 0.0;        ///< Table 1 "Direct LRA"
  double rank_clipping_accuracy = 0.0;     ///< Table 1 "Rank clipping"
};

/// LeNet on MNIST: conv1 25×20, conv2 500×50, fc1 800×500, fc2 500×10.
PaperNetwork paper_lenet();
/// ConvNet on CIFAR-10: conv1 75×32, conv2 800×32, conv3 800×64, fc1 1024×10.
PaperNetwork paper_convnet();

/// One row of Table 3 (big-layer MBC sizes and remaining routing wires).
struct PaperWireRow {
  std::string name;       ///< e.g. "fc1_u"
  std::size_t rows = 0;   ///< matrix dims being mapped
  std::size_t cols = 0;
  hw::CrossbarSpec mbc;   ///< published MBC size
  double wire_pct = 0.0;  ///< published % remaining wires
};

std::vector<PaperWireRow> paper_lenet_table3();
std::vector<PaperWireRow> paper_convnet_table3();

/// §3.1: total crossbar area ratios when SVD replaces PCA.
struct PaperSvdAblation {
  double lenet_area_ratio = 0.3297;
  double convnet_area_ratio = 0.5564;
};

/// Figure 5 (text): group connection deletion removes 93.9% of LeNet's fc1_v
/// routing wires on MNIST.
inline constexpr double kPaperLenetFc1vDeletedRatio = 0.939;

/// Figure 8 (text): ConvNet per-layer routing-area ratios at ~1.5% loss.
std::vector<double> paper_convnet_fig8_routing_area();

/// Computes the paper-model total crossbar cell count of a network at the
/// given per-layer ranks (rank 0 = dense layer, N·M cells).
std::size_t paper_cell_count(const PaperNetwork& net, bool clipped,
                             bool lossy = false);

}  // namespace gs::core
