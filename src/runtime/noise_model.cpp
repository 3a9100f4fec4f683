#include "runtime/noise_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace gs::runtime {

void NoiseConfig::validate() const {
  GS_CHECK_MSG(resample_every >= 1,
               "NoiseConfig::resample_every must be >= 1");
}

NoiseModel::NoiseModel(const CrossbarProgram& program, NoiseConfig config)
    : config_(config), options_(program.options()) {
  config_.validate();
  const std::vector<Step>& steps = program.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    for (std::size_t s = 0; s < step.stages.size(); ++s) {
      Stage stage;
      stage.name = step.stages[s].name;
      stage.layer_index = i;
      stage.stage_index = s;
      stage.stages_in_step = step.stages.size();
      stage.grid = step.stages[s].grid;
      GS_CHECK_MSG(find_stage(stage.name) == nullptr,
                   "duplicate stage name '" << stage.name
                                            << "' in compiled program");
      stages_.push_back(std::move(stage));
    }
  }
}

const NoiseModel::Stage* NoiseModel::find_stage(
    const std::string& name) const {
  for (const Stage& stage : stages_) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

std::uint64_t NoiseModel::stream_seed(const std::string& stage_name,
                                      std::uint64_t realisation) const {
  // "noise:" namespaces the label so a stage can never collide with another
  // component (e.g. a dropout layer) keying streams off the same seed.
  return derive_stream_seed(config_.seed, "noise:" + stage_name, realisation);
}

Tensor NoiseModel::sample_effective(const std::string& stage_name,
                                    const Tensor& w,
                                    std::uint64_t realisation) const {
  const Stage* stage = find_stage(stage_name);
  GS_CHECK_MSG(stage != nullptr,
               "noise model has no stage '" << stage_name << "'");
  GS_CHECK_MSG(w.rank() == 2 && w.rows() == stage->grid.rows &&
                   w.cols() == stage->grid.cols,
               "stage '" << stage_name << "' weights "
                         << shape_to_string(w.shape())
                         << " do not match the compiled grid "
                         << stage->grid.rows << "x" << stage->grid.cols);
  hw::AnalogParams params = options_.analog;
  params.seed = stream_seed(stage_name, realisation);
  return hw::analog_effective_matrix(w, stage->grid, params);
}

namespace {

/// Live weight tensor of the matrix `stage` lowers, resolved on the layer
/// the program compiled it from.
Tensor* resolve_stage_weight(nn::Network& net, const NoiseModel::Stage& stage) {
  const nn::Layer& layer = net.layer(stage.layer_index);
  const std::vector<nn::WeightMatrix> matrices = layer.weight_matrices();
  GS_CHECK_MSG(matrices.size() == stage.stages_in_step &&
                   matrices[stage.stage_index].name == stage.name,
               "noise stage '" << stage.name << "': layer '" << layer.name()
                               << "' does not hold that matrix");
  return matrices[stage.stage_index].value;
}

}  // namespace

NoisyForward::NoisyForward(nn::Network& net, const NoiseModel& model)
    : net_(&net), model_(&model) {
  layer_first_target_.assign(net.layer_count(),
                             std::numeric_limits<std::size_t>::max());
  for (const NoiseModel::Stage& stage : model.stages()) {
    GS_CHECK_MSG(stage.layer_index < net.layer_count(),
                 "noise model was compiled from a larger network");
    Target target;
    target.stage = &stage;
    target.weight = resolve_stage_weight(net, stage);
    GS_CHECK_MSG(target.weight->rank() == 2 &&
                     target.weight->rows() == stage.grid.rows &&
                     target.weight->cols() == stage.grid.cols,
                 "noise stage '" << stage.name
                                 << "': network weights changed shape since "
                                    "the program was compiled");
    if (layer_first_target_[stage.layer_index] ==
        std::numeric_limits<std::size_t>::max()) {
      layer_first_target_[stage.layer_index] = targets_.size();
    }
    targets_.push_back(std::move(target));
  }
  GS_CHECK_MSG(net.forward_hook() == nullptr,
               "network already has a forward hook installed");
  net.set_forward_hook(this);
}

NoisyForward::~NoisyForward() {
  restore_clean_weights();
  if (net_->forward_hook() == this) net_->set_forward_hook(nullptr);
}

void NoisyForward::restore_clean_weights() {
  if (!swapped_) return;
  for (Target& target : targets_) {
    *target.weight = std::move(target.clean);
  }
  swapped_ = false;
}

void NoisyForward::on_forward_begin(nn::Network& net, Tensor& input) {
  GS_CHECK_MSG(&net == net_, "noise hook invoked on a different network");
  GS_CHECK_MSG(!swapped_, "train forward re-entered while weights noisy");
  const std::uint64_t chip = realisation();
  for (Target& target : targets_) {
    target.clean = *target.weight;  // copy: the layer keeps a live tensor
    target.w_max = hw::full_scale_weight(target.clean);
    *target.weight =
        model_->sample_effective(target.stage->name, target.clean, chip);
  }
  swapped_ = true;
  prepare_input(0, input);
}

void NoisyForward::prepare_input(std::size_t layer, Tensor& x) {
  pending_scales_.clear();
  if (layer >= layer_first_target_.size() ||
      layer_first_target_[layer] == std::numeric_limits<std::size_t>::max()) {
    return;
  }
  const DacAdcParams& conv = model_->options().converters;
  if (conv.dac_levels == 0 && conv.adc_levels == 0) return;

  // Per-input-vector full scale, mirroring the executor: one scale per
  // activation row for FC inputs, one per sample for image inputs (the
  // matrix-granularity stand-in for the executor's per-im2col-patch scale).
  const std::size_t vectors = x.dim(0);
  const std::size_t stride = x.numel() / vectors;
  pending_scales_.resize(vectors);
  float* data = x.data();
  for (std::size_t r = 0; r < vectors; ++r) {
    float* row = data + r * stride;
    double x_max = 0.0;
    for (std::size_t i = 0; i < stride; ++i) {
      x_max = std::max(x_max, static_cast<double>(std::fabs(row[i])));
    }
    pending_scales_[r] = x_max;
    if (conv.dac_levels > 0 && x_max > 0.0) {
      for (std::size_t i = 0; i < stride; ++i) {
        row[i] = static_cast<float>(
            quantize_uniform(row[i], x_max, conv.dac_levels));
      }
    }
  }
}

void NoisyForward::on_layer_output(nn::Network& net, std::size_t index,
                                   Tensor& x) {
  GS_CHECK(&net == net_);
  const DacAdcParams& conv = model_->options().converters;
  const std::size_t first = index < layer_first_target_.size()
                                ? layer_first_target_[index]
                                : std::numeric_limits<std::size_t>::max();
  if (first != std::numeric_limits<std::size_t>::max() &&
      conv.adc_levels > 0 && !pending_scales_.empty()) {
    const Target& target = targets_[first];
    // ADC rounding at matrix granularity, single-stage steps only (see the
    // header's noise taxonomy): no-overload full scale x_max·w_max·rows.
    if (target.stage->stages_in_step == 1) {
      const double gain =
          target.w_max * static_cast<double>(target.stage->grid.rows);
      const std::size_t vectors = x.dim(0);
      GS_CHECK(pending_scales_.size() == vectors);
      const std::size_t stride = x.numel() / vectors;
      float* data = x.data();
      for (std::size_t r = 0; r < vectors; ++r) {
        const double x_max = pending_scales_[r];
        if (x_max <= 0.0) continue;
        const double full_scale = x_max * gain;
        float* row = data + r * stride;
        for (std::size_t i = 0; i < stride; ++i) {
          row[i] = static_cast<float>(
              quantize_uniform(row[i], full_scale, conv.adc_levels));
        }
      }
    }
  }
  prepare_input(index + 1, x);
}

void NoisyForward::on_forward_end(nn::Network& net) {
  GS_CHECK(&net == net_);
  restore_clean_weights();
  pending_scales_.clear();
  ++forwards_;
}

}  // namespace gs::runtime
