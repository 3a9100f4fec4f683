// SyntheticMnist — procedurally rendered handwritten-digit lookalike.
//
// Substitution note (see DESIGN.md §2): MNIST itself is unavailable offline.
// Each of the 10 classes is a digit glyph defined as a polyline skeleton in
// the unit square; a sample renders the skeleton with a signed-distance
// brush after a random affine perturbation (shift, anisotropic scale,
// rotation, shear), random stroke thickness, plus additive pixel noise.
// The task has the same shape as MNIST (1×28×28, 10 classes), is learnable
// to high accuracy by LeNet, and is hard enough that rank/accuracy
// trade-offs behave like the paper's curves.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace gs::data {

/// Perturbation strength knobs (all enabled at defaults for training data).
struct MnistStyle {
  double max_shift = 0.12;        ///< fraction of image size
  double max_rotate_rad = 0.25;   ///< ~14 degrees
  double min_scale = 0.85;
  double max_scale = 1.15;
  double max_shear = 0.15;
  double min_thickness = 0.050;   ///< brush radius, unit-square units
  double max_thickness = 0.085;
  double noise_stddev = 0.06;     ///< additive Gaussian pixel noise
};

/// Deterministic virtual dataset of digit images.
class SyntheticMnist final : public Dataset {
 public:
  static constexpr std::size_t kHeight = 28;
  static constexpr std::size_t kWidth = 28;
  static constexpr std::size_t kClasses = 10;

  /// `seed` selects the dataset instance; `count` its addressable size.
  SyntheticMnist(std::uint64_t seed, std::size_t count,
                 MnistStyle style = {});

  std::size_t size() const override { return count_; }
  Sample get(std::size_t index) const override;
  Shape sample_shape() const override { return {1, kHeight, kWidth}; }
  std::size_t num_classes() const override { return kClasses; }
  std::string name() const override { return "synthetic-mnist"; }

  /// The undistorted glyph of a class (for tests/visual inspection).
  Tensor prototype(std::size_t label) const;

 private:
  std::uint64_t seed_;
  std::size_t count_;
  MnistStyle style_;
  SampleCache cache_;
};

}  // namespace gs::data
