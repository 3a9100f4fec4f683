#include "runtime/executor.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "runtime/lane_quantizer.hpp"
#include "tensor/im2col.hpp"

namespace gs::runtime {

namespace {

constexpr std::size_t kPanel = hw::AnalogCrossbar::kPanelRows;

/// Row stride of a panel's partial sums for `cols` columns: whole
/// LaneQuantizer calls, so the ADC never needs a tail (the padding lanes
/// hold junk nothing reads).
std::size_t lane_stride(std::size_t cols) {
  return (cols + kPanel - 1) / kPanel * kPanel;
}

std::size_t pool_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride) {
  GS_CHECK_MSG(in >= 1, "pooling input too small");
  if (in <= kernel) return 1;
  return (in - kernel + stride - 1) / stride + 1;  // Caffe ceil mode
}

/// Opens a per-stage span annotated with the stage's energy-proxy counts
/// (tile schedule, DAC/ADC conversions for `rows` input vectors). Returns 0
/// when untraced. Pure observation — never touches the stage arithmetic.
std::uint64_t begin_stage_span(const ForwardTrace& trace,
                               const MatrixPlan& plan, std::size_t rows) {
  if (trace.trace == nullptr) return 0;
  const std::uint64_t span =
      trace.trace->begin_span("stage:" + plan.name, trace.parent);
  std::uint64_t executed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t adc_per_row = 0;
  for (const ProgramTile& tile : plan.tiles) {
    if (tile.skip) {
      ++skipped;
    } else {
      ++executed;
      // Physical readout width: the padded slice width, or the live-column
      // count of a repacked tile — either way, exactly xbar.cols().
      adc_per_row += tile.xbar.cols();
    }
  }
  trace.trace->annotate(span, "rows", std::to_string(rows));
  trace.trace->annotate(span, "tiles", std::to_string(executed));
  trace.trace->annotate(span, "skipped", std::to_string(skipped));
  trace.trace->annotate(span, "dac_conversions",
                        std::to_string(rows * plan.live_input_wires));
  trace.trace->annotate(span, "adc_conversions",
                        std::to_string(rows * adc_per_row));
  return span;
}

/// Where a crossbar stage reads its input vectors: `data` holds dense rows
/// of the stage's input width, or — when `conv` is set — the B×C×H×W batch
/// of a conv step's first stage, whose im2col patch rows are gathered
/// straight into each panel (input vector b·oh·ow + pos is output position
/// pos of sample b).
struct StageInput {
  const float* data = nullptr;
  const ConvGeometry* conv = nullptr;
};

/// Where a crossbar stage writes: dense rows of the stage's output width,
/// or — when `patches` > 0, the last stage of a conv step — channel-major
/// B×F×oh×ow with `patches` = oh·ow. A non-null `bias` is added after the
/// float conversion, in float, exactly as add_row_vector would.
struct StageOutput {
  float* data = nullptr;
  const float* bias = nullptr;
  std::size_t patches = 0;
};

/// Per-thread workspace of the stage tasks, grown on first use and reused
/// by every later task the thread runs, so the tile loop allocates nothing.
/// Tasks never nest, so one thread never holds two workspaces at once.
struct StageScratch {
  std::vector<double> values;  // input panel | gathered | partial | acc
  std::vector<float> patch;    // one im2col patch row (see pack_panel)
  LaneQuantizer adc[kPanel];   // the panel's ADC, per vector (apply_plan)
};

StageScratch& stage_scratch() {
  thread_local StageScratch scratch;
  return scratch;
}

/// Packs raw input vectors r0..r0+n-1 of a stage into the kernel's
/// interleaved panel layout: element i of vector r at panel[i·kPanel + r].
/// Conv patch rows come straight from the image; `patch` holds one patch
/// row when it must be gathered alone.
void pack_panel(const StageInput& in, std::size_t in_dim, std::size_t r0,
                std::size_t n, double* panel, std::vector<float>& patch) {
  if (in.conv == nullptr) {
    const float* src = in.data + r0 * in_dim;
    for (std::size_t i = 0; i < in_dim; ++i) {
      for (std::size_t r = 0; r < n; ++r) {
        panel[i * kPanel + r] = src[r * in_dim + i];
      }
    }
    return;
  }
  const ConvGeometry& g = *in.conv;
  const std::size_t out_w = g.out_width();
  const std::size_t patches = g.out_height() * out_w;
  const std::size_t image_numel = g.in_channels * g.in_height * g.in_width;
  const float* image = in.data + r0 / patches * image_numel;
  const std::size_t oy = r0 % patches / out_w;
  const std::size_t ox = r0 % patches % out_w;
  const std::size_t y0 = oy * g.stride_h;
  const std::size_t x0 = ox * g.stride_w;
  // n consecutive positions of one output row at stride 1 whose receptive
  // fields lie inside the image: each patch element of the n vectors is n
  // contiguous floats of one image row.
  if (g.stride_w == 1 && ox + n <= out_w && y0 >= g.pad_h &&
      y0 - g.pad_h + g.kernel_h <= g.in_height && x0 >= g.pad_w &&
      x0 + n - 1 - g.pad_w + g.kernel_w <= g.in_width) {
    std::size_t i = 0;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
        const float* line = image +
                            (c * g.in_height + y0 - g.pad_h + ky) * g.in_width +
                            (x0 - g.pad_w);
        for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++i) {
          const float* src = line + kx;
          for (std::size_t r = 0; r < n; ++r) panel[i * kPanel + r] = src[r];
        }
      }
    }
    return;
  }
  patch.resize(in_dim);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t v = r0 + r;
    im2col_patch(in.data + v / patches * image_numel, g,
                 v % patches / out_w, v % patches % out_w, patch.data());
    for (std::size_t i = 0; i < in_dim; ++i) {
      panel[i * kPanel + r] = patch[i];
    }
  }
}

/// A tile's input rows or output columns in matrix coordinates: a
/// contiguous run from `first` (a padded tile's slice, or a repacked tile
/// whose live wires happen to be adjacent), else the tile's ascending index
/// map.
struct Wires {
  std::size_t first = 0;
  const std::uint32_t* map = nullptr;
};

Wires live_wires(const std::vector<std::uint32_t>& map,
                 std::size_t slice_begin) {
  if (map.empty()) return {slice_begin, nullptr};
  if (map.back() - map.front() + 1 == map.size()) {
    return {map.front(), nullptr};
  }
  return {0, map.data()};
}

/// One crossbar stage: every input vector through the plan's tiles with
/// DAC/ADC at the stage boundary. Tasks own disjoint row blocks and walk
/// them in panels of kPanel input vectors. Per panel the converter front
/// end runs once — each vector's full scale (max |x| over the whole
/// vector), its DAC levels and its ADC constants, lane-wise over the
/// interleaved panel — and then one loop serves both lowerings: a tile
/// column's schedule is its tiles in ascending tile row (padded plans:
/// row-major `tiles`, skip-marked ones not run; repacked plans:
/// `column_tiles`), a tile reads a contiguous row range of the panel in
/// place or gathers its live rows, and its sums, ADC'd while still in L1,
/// land on contiguous or scattered columns. Per output the arithmetic is
/// the per-row loop's — MVM from +0.0 in ascending weight-row order, ADC
/// per tile (LaneQuantizer: quantize_uniform's bits), add in ascending
/// tile-row order — so neither the pool size, the blocking nor the batch
/// composition can change a bit.
void apply_plan(ThreadPool& tp, const MatrixPlan& plan,
                const DacAdcParams& conv, std::size_t rows,
                const StageInput& in, const StageOutput& out) {
  const std::size_t in_dim = plan.grid.rows;
  const std::size_t out_dim = plan.grid.cols;
  const std::size_t grid_rows = plan.grid.grid_rows();
  const std::size_t grid_cols = plan.grid.grid_cols();
  const bool need_scale = conv.dac_levels > 0 || conv.adc_levels > 0;
  // ADC no-overload full scale is per PADDED tile geometry: P inputs at
  // x_max through weights at w_max. A repacked tile keeps it — the library
  // converter does not shrink with the array, and keeping it fixed is what
  // makes the repacked lowering bitwise identical to the padded one.
  const double adc_gain =
      plan.w_max * static_cast<double>(plan.grid.tile.rows);
  const std::size_t panel_len = kPanel * in_dim;
  const std::size_t tile_len = kPanel * plan.grid.tile.rows;
  const std::size_t out_len = kPanel * lane_stride(plan.grid.tile.cols);

  // Row blocks are whole panels; blocking only partitions work, so the
  // block size may track the pool size freely.
  const std::size_t target = (rows + tp.size() * 4 - 1) / (tp.size() * 4);
  const std::size_t block = std::clamp<std::size_t>(
      (target + kPanel - 1) / kPanel * kPanel, kPanel, 64);

  tp.parallel_for((rows + block - 1) / block, [&](std::size_t task) {
    const std::size_t row_begin = task * block;
    const std::size_t row_end = std::min(row_begin + block, rows);
    StageScratch& scratch = stage_scratch();
    const std::size_t values = panel_len + tile_len + 2 * out_len;
    if (scratch.values.size() < values) scratch.values.resize(values);
    double* const panel = scratch.values.data();
    double* const gathered = panel + panel_len;
    double* const partial = gathered + tile_len;
    double* const acc = partial + out_len;
    LaneQuantizer* const adc = scratch.adc;

    for (std::size_t r0 = row_begin; r0 < row_end; r0 += kPanel) {
      const std::size_t n = std::min(kPanel, row_end - r0);
      pack_panel(in, in_dim, r0, n, panel, scratch.patch);
      // Converter front end: each input vector's DAC/ADC full scale is its
      // own max |x|, one lane-wise max per panel row; the DAC quantises in
      // place, one call per panel row (an all-zero vector, x_max == 0,
      // passes through as is). Lanes past n hold stale values; zeroing
      // them makes them such vectors.
      double x_max[kPanel] = {};
      if (need_scale) {
        if (n < kPanel) {
          for (std::size_t i = 0; i < in_dim; ++i) {
            std::fill(panel + i * kPanel + n, panel + (i + 1) * kPanel, 0.0);
          }
        }
        lane_max_abs(panel, in_dim, x_max);
      }
      if (conv.dac_levels > 0) {
        const LaneQuantizer dac(conv.dac_levels, x_max);
        for (std::size_t i = 0; i < in_dim; ++i) {
          double* const row = panel + i * kPanel;
          dac.apply(row);
          // The array sees float voltages (passed-through lanes already
          // are floats).
          for (std::size_t r = 0; r < kPanel; ++r) {
            row[r] = static_cast<float>(row[r]);
          }
        }
      }
      if (conv.adc_levels > 0) {
        for (std::size_t r = 0; r < n; ++r) {
          adc[r] = LaneQuantizer(conv.adc_levels, x_max[r] * adc_gain);
        }
      }

      for (std::size_t tc = 0; tc < grid_cols; ++tc) {
        const hw::GroupSlice col = hw::tile_slice(plan.grid, 0, tc);
        const std::size_t width = col.col_end - col.col_begin;
        const std::size_t acc_ld = lane_stride(width);
        const std::size_t schedule =
            plan.repacked ? plan.column_tiles[tc].size() : grid_rows;
        bool started = false;  // acc holds this column's running sums
        for (std::size_t k = 0; k < schedule; ++k) {
          const ProgramTile& tile =
              plan.tiles[plan.repacked ? plan.column_tiles[tc][k]
                                       : k * grid_cols + tc];
          // Compile-proved zero contribution: not running it leaves the
          // remaining fixed-order partial sums bitwise unchanged.
          if (tile.skip) continue;
          const std::size_t q = tile.xbar.cols();
          const Wires rows_in =
              live_wires(tile.in_gather, tile.slice.row_begin);
          const Wires cols_out =
              live_wires(tile.out_scatter, tile.slice.col_begin);
          const double* x = panel + rows_in.first * kPanel;
          if (rows_in.map != nullptr) {
            for (std::size_t i = 0; i < tile.xbar.rows(); ++i) {
              std::copy_n(panel + rows_in.map[i] * kPanel, kPanel,
                          gathered + i * kPanel);
            }
            x = gathered;
          }
          // A tile that starts a column and spans it writes straight into
          // acc: 0.0 + y == y bitwise, since an MVM sum (from +0.0) or an
          // ADC level is never −0.0.
          const bool first =
              !started && cols_out.map == nullptr && q == width;
          if (!started && !first) std::fill(acc, acc + n * acc_ld, 0.0);
          started = true;
          double* const y = first ? acc : partial;
          const std::size_t ld = lane_stride(q);
          tile.xbar.matvec_panel(x, n, y, ld);
          if (conv.adc_levels > 0) {
            for (std::size_t r = 0; r < n; ++r) {
              for (std::size_t j = 0; j < q; j += kPanel) {
                adc[r].apply(y + r * ld + j);
              }
            }
          }
          if (first) continue;
          // Digital partial-sum accumulation, fixed tile-row order.
          for (std::size_t r = 0; r < n; ++r) {
            double* a = acc + r * acc_ld;
            const double* p = partial + r * ld;
            if (cols_out.map == nullptr) {
              a += cols_out.first - col.col_begin;
              for (std::size_t j = 0; j < q; ++j) a[j] += p[j];
            } else {
              for (std::size_t j = 0; j < q; ++j) {
                a[cols_out.map[j] - col.col_begin] += p[j];
              }
            }
          }
        }
        if (!started) std::fill(acc, acc + n * acc_ld, 0.0);

        // Float conversion, then the bias in float, into row-major rows or
        // channel-major planes.
        for (std::size_t r = 0; r < n; ++r) {
          float* dst = out.data;
          std::size_t stride = 1;
          if (out.patches == 0) {
            dst += (r0 + r) * out_dim + col.col_begin;
          } else {
            const std::size_t b = (r0 + r) / out.patches;
            const std::size_t pos = (r0 + r) % out.patches;
            dst += (b * out_dim + col.col_begin) * out.patches + pos;
            stride = out.patches;
          }
          for (std::size_t j = 0; j < width; ++j) {
            float v = static_cast<float>(acc[r * acc_ld + j]);
            if (out.bias != nullptr) v += out.bias[col.col_begin + j];
            dst[j * stride] = v;
          }
        }
      }
    }
  });
}

}  // namespace

Executor::Executor(const CrossbarProgram& program, ThreadPool* pool)
    : program_(&program), pool_(pool) {}

ThreadPool& Executor::pool() const {
  return pool_ != nullptr ? *pool_ : ThreadPool::global();
}

Tensor Executor::run_crossbar(const Step& step, const Tensor& act,
                              const ForwardTrace& trace) const {
  const std::size_t batch = act.dim(0);
  GS_CHECK(act.numel() == batch * shape_numel(step.in_shape));
  GS_CHECK(!step.stages.empty() &&
           step.stages.back().grid.cols == step.out_shape[0]);
  StageInput in{act.data(), nullptr};
  std::size_t rows = batch;  // input vectors per stage
  std::size_t patches = 0;   // conv: output positions per sample
  if (step.kind == Step::Kind::kConv) {
    GS_CHECK_MSG(act.rank() == 4,
                 step.name << ": conv input must be B×C×H×W");
    const ConvGeometry& g = step.geometry;
    GS_CHECK(g.out_height() == step.out_shape[1] &&
             g.out_width() == step.out_shape[2]);
    patches = g.out_height() * g.out_width();
    rows = batch * patches;
    in.conv = &g;
  }
  GS_CHECK(step.stages.front().grid.rows ==
           (in.conv != nullptr ? in.conv->patch_size()
                               : shape_numel(step.in_shape)));

  Shape out_shape{batch};
  out_shape.insert(out_shape.end(), step.out_shape.begin(),
                   step.out_shape.end());
  Tensor out(out_shape);
  Tensor mid;  // a low-rank step's U-stage output, the V stage's input
  const DacAdcParams& conv = program_->options().converters;
  const float* bias = step.bias.numel() > 0 ? step.bias.data() : nullptr;
  for (std::size_t s = 0; s < step.stages.size(); ++s) {
    const MatrixPlan& plan = step.stages[s];
    const bool last = s + 1 == step.stages.size();
    GS_CHECK(s == 0 || plan.grid.rows == step.stages[s - 1].grid.cols);
    Tensor next;
    if (!last) next = Tensor(Shape{rows, plan.grid.cols});
    const StageOutput dst = last ? StageOutput{out.data(), bias, patches}
                                 : StageOutput{next.data(), nullptr, 0};
    const std::uint64_t span = begin_stage_span(trace, plan, rows);
    apply_plan(pool(), plan, conv, rows, in, dst);
    if (span != 0) trace.trace->end_span(span);
    if (!last) {
      mid = std::move(next);
      in = StageInput{mid.data(), nullptr};
    }
  }
  return out;
}

Tensor Executor::run_pool(const Step& step, const Tensor& act) const {
  GS_CHECK_MSG(act.rank() == 4, step.name << ": pool input must be B×C×H×W");
  const std::size_t batch = act.dim(0);
  const std::size_t channels = act.dim(1);
  const std::size_t ih = act.dim(2);
  const std::size_t iw = act.dim(3);
  const std::size_t k = step.pool_kernel;
  const std::size_t s = step.pool_stride;
  const std::size_t oh = pool_out_extent(ih, k, s);
  const std::size_t ow = pool_out_extent(iw, k, s);
  // Guard against convention drift: the windowing below must stay in step
  // with nn::Pool2dLayer, whose output_shape fixed out_shape at compile.
  GS_CHECK(channels == step.out_shape[0] && oh == step.out_shape[1] &&
           ow == step.out_shape[2]);
  const bool is_max = step.kind == Step::Kind::kMaxPool;

  Tensor out(Shape{batch, channels, oh, ow});
  pool().parallel_for(batch * channels, [&](std::size_t plane) {
    const float* in_plane = act.data() + plane * ih * iw;
    float* out_plane = out.data() + plane * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t y0 = oy * s;
        const std::size_t x0 = ox * s;
        const std::size_t y1 = std::min(y0 + k, ih);
        const std::size_t x1 = std::min(x0 + k, iw);
        if (is_max) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::size_t y = y0; y < y1; ++y) {
            for (std::size_t x = x0; x < x1; ++x) {
              best = std::max(best, in_plane[y * iw + x]);
            }
          }
          out_plane[oy * ow + ox] = best;
        } else {
          double sum = 0.0;
          for (std::size_t y = y0; y < y1; ++y) {
            for (std::size_t x = x0; x < x1; ++x) {
              sum += in_plane[y * iw + x];
            }
          }
          // Caffe divides by the nominal window size (zero padding).
          out_plane[oy * ow + ox] =
              static_cast<float>(sum / static_cast<double>(k * k));
        }
      }
    }
  });
  return out;
}

Tensor Executor::forward(const Tensor& batch) const {
  return forward(batch, ForwardTrace{});
}

Tensor Executor::forward(const Tensor& batch, const ForwardTrace& trace) const {
  const Shape& sample = program_->input_shape();
  GS_CHECK_MSG(batch.rank() == sample.size() + 1,
               "executor input rank " << batch.rank() << ", program expects "
                                      << sample.size() + 1);
  for (std::size_t d = 0; d < sample.size(); ++d) {
    GS_CHECK_MSG(batch.dim(d + 1) == sample[d],
                 "executor input " << shape_to_string(batch.shape())
                                   << " does not match program input "
                                   << shape_to_string(sample));
  }
  const std::size_t b = batch.dim(0);
  GS_CHECK(b > 0);

  Tensor x = batch;
  for (const Step& step : program_->steps()) {
    // Per-step execute span; crossbar steps nest per-stage detail spans.
    std::uint64_t step_span = 0;
    ForwardTrace step_trace = trace;
    if (trace.trace != nullptr) {
      step_span = trace.trace->begin_span("step:" + step.name, trace.parent);
      step_trace.parent = step_span;
    }
    switch (step.kind) {
      case Step::Kind::kLinear:
      case Step::Kind::kConv:
        x = run_crossbar(step, x, step_trace);
        break;
      case Step::Kind::kRelu: {
        float* data = x.data();
        for (std::size_t i = 0; i < x.numel(); ++i) {
          data[i] = std::max(0.0f, data[i]);
        }
        break;
      }
      case Step::Kind::kMaxPool:
      case Step::Kind::kAvgPool:
        x = run_pool(step, x);
        break;
      case Step::Kind::kFlatten:
        x.reshape(Shape{b, x.numel() / b});
        break;
      case Step::Kind::kIdentity:
        break;
    }
    if (step_span != 0) trace.trace->end_span(step_span);
  }
  return x;
}

double evaluate(const Executor& executor, const data::Dataset& dataset,
                std::size_t max_samples, std::size_t batch_size) {
  return nn::evaluate_forward(
      [&executor](const Tensor& images) { return executor.forward(images); },
      dataset, max_samples, batch_size);
}

}  // namespace gs::runtime
