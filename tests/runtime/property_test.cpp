// Randomized-property sweep of the compile→execute path.
//
// Fifty seeded random layer stacks — dense / low-rank / conv / low-rank
// conv with odd shapes, both mapping policies, interleaved ReLU / pooling /
// dropout, and randomly-emptied weight bands to exercise tile skipping —
// each checked against the runtime's two core contracts:
//  1. ideal-device parity: the compiled program reproduces the digital
//     forward within float-roundtrip tolerance;
//  2. determinism: logits are bitwise identical at any pool size and
//     invariant to batch composition, including under quantised converters
//     (odd AND even ADC level counts) and device variation;
//  3. repack differential: on an exactness-gated device the repacked
//     program (CompileOptions::repack) reproduces the padded logits
//     bitwise; on a blocked device (even ADC, variation) it falls back to
//     a checksum-identical padded compile; and fault injection on a
//     repacked program can never invalidate a skip proof (there are none)
//     nor touch a removed crossbar;
//  4. scalar-reference differential: every crossbar step, compiled alone,
//     reproduces bitwise a test-only scalar reference of the executor's
//     per-row loop (accumulate_matvec, ADC, fixed tile-row add) — padded
//     and repacked; ideal converters, both quantised (odd ADC), DAC only,
//     ADC only, and an even ADC count (padded, nothing skipped); before and
//     after inject_faults.
// Contract 2 runs at batch sizes that straddle the executor's row panels.
// This replaces hand-picked shapes with a generator: every seed is its own
// ctest case, so a failure names the stack that broke.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/lowrank.hpp"
#include "nn/pool2d.hpp"
#include "runtime/executor.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace gs::runtime {
namespace {

/// Odd, prime-heavy extents so padded-edge tiles and non-divisor grids
/// appear constantly under both mapping policies.
std::size_t odd_extent(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.uniform_index(hi - lo + 1));
}

/// Zeroes a random row band of `w` with probability 1/2 — the all-zero
/// groups connection deletion produces, so some stacks compile skip-marked
/// tiles.
void maybe_delete_rows(Tensor& w, Rng& rng) {
  if (!rng.bernoulli(0.5) || w.rows() < 4) return;
  const std::size_t begin = rng.uniform_index(w.rows() / 2);
  const std::size_t end =
      begin + 1 + rng.uniform_index(w.rows() - begin - 1);
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w.at(i, j) = 0.0f;
  }
}

/// Zeroes a random column band with probability 1/2 — deleted OUTPUT wires,
/// so repacked tiles shrink in the column direction too (and the repack
/// scatter maps get real holes to jump).
void maybe_delete_cols(Tensor& w, Rng& rng) {
  if (!rng.bernoulli(0.5) || w.cols() < 4) return;
  const std::size_t begin = rng.uniform_index(w.cols() / 2);
  const std::size_t end =
      begin + 1 + rng.uniform_index(w.cols() - begin - 1);
  for (std::size_t j = begin; j < end; ++j) {
    for (std::size_t i = 0; i < w.rows(); ++i) w.at(i, j) = 0.0f;
  }
}

struct RandomStack {
  nn::Network net;
  Shape sample_shape;
};

/// Builds a random stack: image stacks open with a (low-rank) conv and may
/// pool; every stack funnels through flatten into 1–2 FC layers (dense or
/// low-rank) and a final classifier.
RandomStack build_stack(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  RandomStack stack;
  std::size_t features = 0;

  if (rng.bernoulli(0.5)) {
    // Image front end.
    const std::size_t channels = 1 + rng.uniform_index(3);
    const std::size_t height = odd_extent(rng, 6, 12);
    const std::size_t width = odd_extent(rng, 6, 12);
    stack.sample_shape = Shape{channels, height, width};
    const std::size_t kernel = rng.bernoulli(0.5) ? 3 : 5;
    const std::size_t pad = rng.bernoulli(0.5) ? kernel / 2 : 0;
    const std::size_t filters = 1 + rng.uniform_index(5);
    Shape shape = stack.sample_shape;
    if (rng.bernoulli(0.5)) {
      nn::Conv2dSpec spec;
      spec.in_channels = channels;
      spec.out_channels = filters;
      spec.kernel = kernel;
      spec.pad = pad;
      const std::size_t full = std::min(channels * kernel * kernel, filters);
      const std::size_t rank = 1 + rng.uniform_index(full);
      auto conv =
          std::make_unique<nn::LowRankConv2d>("conv", spec, rank, rng);
      maybe_delete_rows(conv->mutable_u(), rng);
      maybe_delete_cols(conv->mutable_vt(), rng);
      shape = conv->output_shape(shape);
      stack.net.add(std::move(conv));
    } else {
      nn::Conv2dSpec spec;
      spec.in_channels = channels;
      spec.out_channels = filters;
      spec.kernel = kernel;
      spec.pad = pad;
      auto conv = std::make_unique<nn::Conv2dLayer>("conv", spec, rng);
      maybe_delete_rows(conv->weight(), rng);
      maybe_delete_cols(conv->weight(), rng);
      shape = conv->output_shape(shape);
      stack.net.add(std::move(conv));
    }
    if (rng.bernoulli(0.5)) {
      stack.net.add(std::make_unique<nn::ReluLayer>("relu0"));
    }
    if (rng.bernoulli(0.5) && shape[1] >= 4 && shape[2] >= 4) {
      auto pool = std::make_unique<nn::Pool2dLayer>(
          "pool", rng.bernoulli(0.5) ? nn::PoolMode::kMax : nn::PoolMode::kAvg,
          2, 2);
      shape = pool->output_shape(shape);
      stack.net.add(std::move(pool));
    }
    stack.net.add(std::make_unique<nn::FlattenLayer>("flatten"));
    features = shape_numel(shape);
  } else {
    // Flat front end with odd feature counts.
    features = odd_extent(rng, 5, 43);
    stack.sample_shape = Shape{features};
  }

  const std::size_t hidden_layers = rng.uniform_index(2);  // 0 or 1
  for (std::size_t h = 0; h < hidden_layers; ++h) {
    const std::size_t out = odd_extent(rng, 4, 30);
    const std::string name = "fc" + std::to_string(h);
    if (rng.bernoulli(0.5)) {
      const std::size_t rank =
          1 + rng.uniform_index(std::min(features, out));
      auto fc =
          std::make_unique<nn::LowRankDense>(name, features, out, rank, rng);
      maybe_delete_rows(fc->mutable_u(), rng);
      maybe_delete_cols(fc->mutable_vt(), rng);
      stack.net.add(std::move(fc));
    } else {
      auto fc = std::make_unique<nn::DenseLayer>(name, features, out, rng);
      maybe_delete_rows(fc->weight(), rng);
      maybe_delete_cols(fc->weight(), rng);
      stack.net.add(std::move(fc));
    }
    if (rng.bernoulli(0.5)) {
      stack.net.add(std::make_unique<nn::ReluLayer>("relu" + name));
    }
    if (rng.bernoulli(0.25)) {
      stack.net.add(std::make_unique<nn::DropoutLayer>("drop" + name, 0.3,
                                                       /*run_seed=*/seed));
    }
    features = out;
  }

  const std::size_t classes = 2 + rng.uniform_index(6);
  stack.net.add(
      std::make_unique<nn::DenseLayer>("head", features, classes, rng));
  return stack;
}

Tensor random_batch(const Shape& sample, std::size_t rows, std::uint64_t seed) {
  Shape shape;
  shape.push_back(rows);
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor batch(shape);
  Rng rng(seed);
  batch.fill_uniform(rng, -1.0f, 1.0f);
  return batch;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// The first `rows` samples of `batch`.
Tensor first_rows(const Tensor& batch, std::size_t rows) {
  Shape shape = batch.shape();
  shape[0] = rows;
  Tensor out(shape);
  std::copy(batch.data(), batch.data() + out.numel(), out.data());
  return out;
}

/// Batch sizes that straddle the executor's row panels: 1, R−1, R, R+1,
/// 2R+1 and 33 for R = AnalogCrossbar::kPanelRows.
std::vector<std::size_t> panel_edge_batches() {
  constexpr std::size_t kR = hw::AnalogCrossbar::kPanelRows;
  return {1, kR - 1, kR, kR + 1, 2 * kR + 1, 33};
}

/// Pool-size and batch-composition invariance across the panel edges: for
/// every panel-edge size B, the first B samples of `batch` (which holds at
/// least 33) run on pools of 1 and 3 threads, and each output row must
/// equal bitwise the logits of that sample run alone.
void expect_batch_invariant(const CrossbarProgram& program,
                            const Tensor& batch, const std::string& label) {
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  const Executor exec1(program, &pool1);
  const Executor exec3(program, &pool3);
  std::vector<Tensor> alone;
  for (std::size_t b = 0; b < batch.dim(0); ++b) {
    Shape shape = batch.shape();
    shape[0] = 1;
    Tensor single(shape);
    std::copy(batch.data() + b * single.numel(),
              batch.data() + (b + 1) * single.numel(), single.data());
    alone.push_back(exec1.forward(single));
  }
  for (const std::size_t rows : panel_edge_batches()) {
    const Tensor input = first_rows(batch, rows);
    const Tensor out1 = exec1.forward(input);
    EXPECT_TRUE(bitwise_equal(out1, exec3.forward(input)))
        << label << ": pool-size invariance broke at batch " << rows;
    for (std::size_t b = 0; b < rows; ++b) {
      const std::size_t n = alone[b].numel();
      EXPECT_EQ(std::memcmp(alone[b].data(), out1.data() + b * n,
                            n * sizeof(float)),
                0)
          << label << ": batch-composition invariance broke at batch "
          << rows << ", sample " << b;
    }
  }
}

/// Test-only scalar reference of one crossbar stage, the executor's loop
/// before its row-panel kernel: per input vector, DAC to the vector's own
/// full scale; per tile column, the column's tiles in ascending tile row
/// (padded: skip-marked ones left out; repacked: column_tiles), each
/// gathered, run through accumulate_matvec from +0.0, ADC'd against the
/// padded tile geometry, and added into the column's sums.
Tensor reference_stage(const MatrixPlan& plan, const DacAdcParams& conv,
                       const Tensor& act) {
  const std::size_t in_dim = plan.grid.rows;
  const std::size_t out_dim = plan.grid.cols;
  const std::size_t grid_cols = plan.grid.grid_cols();
  const double adc_gain =
      plan.w_max * static_cast<double>(plan.grid.tile.rows);
  Tensor out(Shape{act.rows(), out_dim});
  std::vector<float> x(in_dim);
  for (std::size_t r = 0; r < act.rows(); ++r) {
    const float* row = act.data() + r * in_dim;
    double x_max = 0.0;
    if (conv.dac_levels > 0 || conv.adc_levels > 0) {
      for (std::size_t i = 0; i < in_dim; ++i) {
        x_max = std::max(x_max, static_cast<double>(std::fabs(row[i])));
      }
    }
    for (std::size_t i = 0; i < in_dim; ++i) {
      x[i] = conv.dac_levels > 0 && x_max > 0.0
                 ? static_cast<float>(
                       quantize_uniform(row[i], x_max, conv.dac_levels))
                 : row[i];
    }
    for (std::size_t tc = 0; tc < grid_cols; ++tc) {
      const hw::GroupSlice col = hw::tile_slice(plan.grid, 0, tc);
      std::vector<double> acc(col.col_end - col.col_begin, 0.0);
      std::vector<std::uint32_t> schedule = plan.repacked
                                                ? plan.column_tiles[tc]
                                                : std::vector<std::uint32_t>{};
      if (!plan.repacked) {
        for (std::size_t tr = 0; tr < plan.grid.grid_rows(); ++tr) {
          schedule.push_back(static_cast<std::uint32_t>(tr * grid_cols + tc));
        }
      }
      for (const std::uint32_t t : schedule) {
        const ProgramTile& tile = plan.tiles[t];
        if (tile.skip) continue;
        std::vector<float> gathered(x.begin() + tile.slice.row_begin,
                                    x.begin() + tile.slice.row_end);
        if (plan.repacked) {
          gathered.clear();
          for (const std::uint32_t i : tile.in_gather) gathered.push_back(x[i]);
        }
        std::vector<double> partial(tile.xbar.cols(), 0.0);
        tile.xbar.accumulate_matvec(gathered.data(), partial.data());
        for (std::size_t j = 0; j < partial.size(); ++j) {
          if (conv.adc_levels > 0 && x_max > 0.0) {
            partial[j] =
                quantize_uniform(partial[j], x_max * adc_gain, conv.adc_levels);
          }
          const std::size_t c =
              plan.repacked ? tile.out_scatter[j] : col.col_begin + j;
          acc[c - col.col_begin] += partial[j];
        }
      }
      for (std::size_t j = 0; j < acc.size(); ++j) {
        out.at(r, col.col_begin + j) = static_cast<float>(acc[j]);
      }
    }
  }
  return out;
}

/// Scalar reference of a whole crossbar step: whole-batch im2col for conv
/// steps, the stages in order, the bias, and the re-tile to channel-major.
Tensor reference_step(const Step& step, const DacAdcParams& conv,
                      const Tensor& batch) {
  const std::size_t samples = batch.dim(0);
  const std::size_t sample_numel = shape_numel(step.in_shape);
  Tensor act(Shape{samples, sample_numel});
  std::copy(batch.data(), batch.data() + batch.numel(), act.data());
  const std::size_t patches =
      step.kind == Step::Kind::kConv
          ? step.geometry.out_height() * step.geometry.out_width()
          : 1;
  if (step.kind == Step::Kind::kConv) {
    act = Tensor(Shape{samples * patches, step.geometry.patch_size()});
    for (std::size_t b = 0; b < samples; ++b) {
      Tensor image(step.in_shape);
      std::copy(batch.data() + b * sample_numel,
                batch.data() + (b + 1) * sample_numel, image.data());
      const Tensor cols = im2col(image, step.geometry);
      std::copy(cols.data(), cols.data() + cols.numel(),
                act.data() + b * cols.numel());
    }
  }
  for (const MatrixPlan& plan : step.stages) {
    act = reference_stage(plan, conv, act);
  }
  if (step.bias.numel() > 0) add_row_vector(act, step.bias);
  Shape shape{samples};
  shape.insert(shape.end(), step.out_shape.begin(), step.out_shape.end());
  Tensor out(shape);
  const std::size_t filters = act.cols();
  for (std::size_t b = 0; b < samples; ++b) {
    for (std::size_t p = 0; p < patches; ++p) {
      for (std::size_t c = 0; c < filters; ++c) {
        out[(b * filters + c) * patches + p] =
            act.at(b * patches + p, c);
      }
    }
  }
  return out;
}

/// A one-layer network holding a copy of `layer` when it lowers to
/// crossbar stages (dense, low-rank, conv, low-rank conv); empty otherwise.
nn::Network crossbar_layer_alone(const nn::Layer& layer) {
  nn::Network net;
  if (const auto* d = dynamic_cast<const nn::DenseLayer*>(&layer)) {
    net.add(std::make_unique<nn::DenseLayer>(*d));
  } else if (const auto* lr = dynamic_cast<const nn::LowRankDense*>(&layer)) {
    net.add(std::make_unique<nn::LowRankDense>(*lr));
  } else if (const auto* c = dynamic_cast<const nn::Conv2dLayer*>(&layer)) {
    net.add(std::make_unique<nn::Conv2dLayer>(*c));
  } else if (const auto* lc = dynamic_cast<const nn::LowRankConv2d*>(&layer)) {
    net.add(std::make_unique<nn::LowRankConv2d>(*lc));
  }
  return net;
}

class RuntimeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeProperty, CompileExecuteContractsHold) {
  const std::uint64_t seed = GetParam();
  RandomStack stack = build_stack(seed);
  Rng rng(seed * 31 + 5);

  CompileOptions options;
  options.policy = (seed % 2 == 0) ? hw::MappingPolicy::kDivisorExact
                                   : hw::MappingPolicy::kPaddedMax;

  // --- Contract 1: ideal-device parity with the digital forward ----------
  const CrossbarProgram ideal =
      compile(stack.net, stack.sample_shape, options);
  EXPECT_EQ(ideal.steps().size(), stack.net.layer_count());
  const Tensor batch = random_batch(stack.sample_shape, 33, seed + 101);
  const Executor ideal_exec(ideal);
  const Tensor digital = stack.net.forward(batch, /*train=*/false);
  const Tensor analog = ideal_exec.forward(batch);
  ASSERT_TRUE(digital.same_shape(analog));
  float max_mag = 1.0f;
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < digital.numel(); ++i) {
    max_mag = std::max(max_mag, std::fabs(digital[i]));
    max_diff = std::max(max_diff, std::fabs(digital[i] - analog[i]));
  }
  EXPECT_LE(max_diff, 1e-4f * max_mag)
      << "ideal-device parity broke at seed " << seed;

  // --- Contract 2: bitwise pool-size invariance and batch-composition
  // invariance at the panel edges, on the ideal device and on a randomly
  // nonideal one (odd AND even ADC counts), padded and repacked. ---------
  expect_batch_invariant(ideal, batch,
                         "ideal device, seed " + std::to_string(seed));
  CompileOptions nonideal = options;
  nonideal.analog.levels = 8 + rng.uniform_index(120);
  nonideal.analog.variation_sigma = rng.bernoulli(0.5) ? 0.05 : 0.0;
  nonideal.analog.seed = seed + 17;
  nonideal.converters.dac_levels =
      rng.bernoulli(0.5) ? 0 : 2 + rng.uniform_index(200);
  nonideal.converters.adc_levels =
      2 + rng.uniform_index(200);  // odd and even both land here
  const CrossbarProgram device =
      compile(stack.net, stack.sample_shape, nonideal);

  expect_batch_invariant(device, batch,
                         "nonideal device, seed " + std::to_string(seed));
  const Tensor out1 = Executor(device).forward(batch);

  // Tile-skip soundness whenever the generator emptied enough rows for the
  // compiler to prove skips: skipping on vs off must be bitwise identical.
  if (ideal.skipped_tile_count() > 0) {
    CompileOptions noskip = options;
    noskip.skip_empty_tiles = false;
    const CrossbarProgram full =
        compile(stack.net, stack.sample_shape, noskip);
    EXPECT_EQ(full.skipped_tile_count(), 0u);
    const Executor full_exec(full);
    EXPECT_TRUE(bitwise_equal(analog, full_exec.forward(batch)))
        << "tile-skip soundness broke at seed " << seed;
  }

  // --- Contract 3: repack differential -----------------------------------
  // Ideal device always passes the exactness gate: the repacked program
  // must reproduce the padded logits bitwise, with the removed-crossbar
  // count equal to the padded schedule's proven-skippable count.
  CompileOptions repack_ideal = options;
  repack_ideal.repack = true;
  const CrossbarProgram repacked =
      compile(stack.net, stack.sample_shape, repack_ideal);
  ASSERT_TRUE(repacked.repacked())
      << "ideal device failed the repack gate at seed " << seed;
  EXPECT_EQ(repacked.removed_tile_count(), ideal.skipped_tile_count());
  EXPECT_LE(repacked.programmed_cell_count(), repacked.padded_cell_count());
  EXPECT_TRUE(bitwise_equal(analog, Executor(repacked).forward(batch)))
      << "repack parity broke at seed " << seed;
  expect_batch_invariant(repacked, batch,
                         "repacked ideal device, seed " + std::to_string(seed));

  // Nonideal device: gate admits iff the same physics that admit a skip
  // proof hold (odd/ideal ADC zero-preservation, no variation — wire
  // resistance is 0 throughout this sweep). Admitted ⇒ bitwise parity with
  // the padded nonideal program; blocked ⇒ the compile IS the padded one.
  CompileOptions repack_nonideal = nonideal;
  repack_nonideal.repack = true;
  const CrossbarProgram nonideal_repacked =
      compile(stack.net, stack.sample_shape, repack_nonideal);
  const bool gate = nonideal.converters.adc_levels % 2 == 1 &&
                    nonideal.analog.variation_sigma == 0.0;
  EXPECT_EQ(nonideal_repacked.repacked(), gate)
      << "repack gate disagreed with device physics at seed " << seed;
  if (gate) {
    EXPECT_TRUE(
        bitwise_equal(out1, Executor(nonideal_repacked).forward(batch)))
        << "nonideal repack parity broke at seed " << seed;
    expect_batch_invariant(
        nonideal_repacked, batch,
        "repacked nonideal device, seed " + std::to_string(seed));
  } else {
    EXPECT_EQ(program_checksum(nonideal_repacked), program_checksum(device))
        << "blocked repack did not fall back to the padded program at seed "
        << seed;
  }

  // Fault interaction: a repacked schedule carries no skip marks, so a
  // stuck-at realisation can never invalidate one — and removed crossbars
  // do not exist to fault. The padded twin under the SAME fault config may
  // well lose skip proofs; the repacked program must not.
  if (repacked.removed_tile_count() > 0) {
    CrossbarProgram faulty_repacked =
        compile(stack.net, stack.sample_shape, repack_ideal);
    hw::FaultModelConfig faults;
    faults.stuck_rate = 0.1;
    faults.seed = seed + 3;
    const FaultInjectionReport report =
        inject_faults(faulty_repacked, faults);
    EXPECT_EQ(report.unskipped_tiles, 0u)
        << "fault injection unskipped a repacked tile at seed " << seed;
    EXPECT_EQ(report.tiles, repacked.tile_count());
  }
}

TEST_P(RuntimeProperty, StepsMatchScalarReference) {
  // --- Contract 4: each crossbar layer of the stack, compiled alone, runs
  // bitwise like the scalar reference of the per-row loop, on inputs with
  // exact zeros, −0.0 and mixed signs, with ideal converters, both
  // converters (odd ADC), DAC only, ADC only, and an even ADC count. -----
  const std::uint64_t seed = GetParam();
  RandomStack stack = build_stack(seed);
  Rng rng(seed * 131 + 7);

  CompileOptions ideal;
  ideal.policy = (seed % 2 == 0) ? hw::MappingPolicy::kDivisorExact
                                 : hw::MappingPolicy::kPaddedMax;
  CompileOptions quantised = ideal;
  quantised.analog.levels = 8 + rng.uniform_index(120);
  quantised.analog.seed = seed + 29;
  quantised.converters.dac_levels = 2 + rng.uniform_index(200);
  quantised.converters.adc_levels = 3 + 2 * rng.uniform_index(100);  // odd
  CompileOptions dac_only = quantised;
  dac_only.converters.adc_levels = 0;
  CompileOptions adc_only = quantised;
  adc_only.converters.dac_levels = 0;
  // An even ADC maps a zero sum to ±step/2: compile() refuses repacking
  // and skip proofs, so this runs padded with every tile executed.
  CompileOptions even_adc = quantised;
  even_adc.converters.adc_levels = 2 + 2 * rng.uniform_index(100);
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.05;
  faults.drift_nu = 0.05;
  faults.drift_time = 10.0;
  faults.seed = seed + 31;

  Shape shape = stack.sample_shape;
  std::size_t steps_checked = 0;
  for (std::size_t l = 0; l < stack.net.layer_count(); ++l) {
    const nn::Layer& layer = stack.net.layer(l);
    const Shape in_shape = shape;
    shape = layer.output_shape(shape);
    nn::Network alone = crossbar_layer_alone(layer);
    if (alone.layer_count() == 0) continue;
    ++steps_checked;

    Tensor batch = random_batch(
        in_shape, 2 * hw::AnalogCrossbar::kPanelRows + 1, seed + 211 + l);
    for (std::size_t i = 0; i < batch.numel(); i += 5) batch[i] = 0.0f;
    for (std::size_t i = 2; i < batch.numel(); i += 7) batch[i] = -0.0f;

    const std::pair<const char*, const CompileOptions*> configs[] = {
        {" ideal", &ideal},
        {" quantised", &quantised},
        {" DAC-only", &dac_only},
        {" ADC-only", &adc_only},
        {" even-ADC", &even_adc}};
    for (const bool repack : {false, true}) {
      for (const auto& [name, base] : configs) {
        CompileOptions options = *base;
        options.repack = repack;
        CrossbarProgram program = compile(alone, in_shape, options);
        if (base == &even_adc) {
          EXPECT_FALSE(program.repacked()) << layer.name();
          EXPECT_EQ(program.skipped_tile_count(), 0u) << layer.name();
        }
        for (const bool faulted : {false, true}) {
          if (faulted) inject_faults(program, faults);
          const std::string label =
              layer.name() + (repack ? " repacked" : " padded") + name +
              (faulted ? " faulted" : "") + ", seed " + std::to_string(seed);
          ASSERT_EQ(program.steps().size(), 1u) << label;
          const Tensor expected = reference_step(
              program.steps()[0], options.converters, batch);
          EXPECT_TRUE(bitwise_equal(expected, Executor(program).forward(batch)))
              << label;
        }
      }
    }
  }
  EXPECT_GE(steps_checked, 1u);
}

INSTANTIATE_TEST_SUITE_P(RandomStacks, RuntimeProperty,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace gs::runtime
