// SyntheticCifar — procedurally textured colour-image lookalike.
//
// Substitution note (see DESIGN.md §2): CIFAR-10 is unavailable offline.
// Each class pairs a characteristic texture (stripes, checker, disk, ring,
// blobs, gradient, cross, triangles, waves, noise patches) with a base
// colour; samples draw the texture with randomised phase/frequency/colour
// jitter, random shift, and additive noise. The task keeps CIFAR-10's tensor
// geometry (3×32×32, 10 classes) and is deliberately harder than the digit
// task — matching the paper, where ConvNet/CIFAR tolerates far less rank
// reduction than LeNet/MNIST.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace gs::data {

/// Perturbation strength knobs.
struct CifarStyle {
  double color_jitter = 0.18;   ///< per-channel base-colour jitter
  double max_shift = 0.20;      ///< texture phase shift (fraction of size)
  double freq_jitter = 0.30;    ///< relative frequency jitter
  double noise_stddev = 0.10;   ///< additive Gaussian pixel noise
  double distractor_level = 0.25;  ///< strength of overlaid rival texture
};

/// Deterministic virtual dataset of textured colour images.
class SyntheticCifar final : public Dataset {
 public:
  static constexpr std::size_t kHeight = 32;
  static constexpr std::size_t kWidth = 32;
  static constexpr std::size_t kChannels = 3;
  static constexpr std::size_t kClasses = 10;

  SyntheticCifar(std::uint64_t seed, std::size_t count, CifarStyle style = {});

  std::size_t size() const override { return count_; }
  Sample get(std::size_t index) const override;
  Shape sample_shape() const override { return {kChannels, kHeight, kWidth}; }
  std::size_t num_classes() const override { return kClasses; }
  std::string name() const override { return "synthetic-cifar"; }

 private:
  std::uint64_t seed_;
  std::size_t count_;
  CifarStyle style_;
  SampleCache cache_;
};

}  // namespace gs::data
