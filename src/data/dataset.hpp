// Dataset abstraction.
//
// The paper trains LeNet on MNIST and ConvNet on CIFAR-10. Neither dataset
// is available in this offline environment, so the concrete datasets in this
// module are *procedural generators* that synthesise a learnable 10-class
// image task with identical tensor geometry (28×28×1 / 32×32×3). Samples are
// deterministic functions of (dataset seed, index): the "dataset" is virtual
// and unbounded, and train/test splits are disjoint index ranges. Each
// sample is rendered on its first get() and served from a SampleCache
// afterwards, so memory grows only with the samples actually fetched.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "tensor/tensor.hpp"

namespace gs::data {

/// One labelled image.
struct Sample {
  Tensor image;       ///< rank-3, C×H×W, values roughly in [0, 1]
  std::size_t label;  ///< class index in [0, num_classes)
};

/// Read-only random-access dataset.
class Dataset {
 public:
  virtual ~Dataset() = default;

  /// Number of addressable samples.
  virtual std::size_t size() const = 0;
  /// Sample at `index`; deterministic — repeated calls return equal tensors.
  virtual Sample get(std::size_t index) const = 0;
  /// Shape of every image tensor (C, H, W).
  virtual Shape sample_shape() const = 0;
  /// Number of label classes.
  virtual std::size_t num_classes() const = 0;
  /// Diagnostic name.
  virtual std::string name() const = 0;
};

/// The render-once store of the procedural datasets. get(index, render)
/// calls render() on the first request for `index` and returns a copy of
/// the stored sample from then on; render must be a pure function of the
/// index, so a cached sample is bitwise the first render. Thread-safe:
/// concurrent gets may both render an index, and the first stored copy
/// wins. Copies and moves share one store (the dataset's other state is
/// copied with it), so a moved-from dataset still serves its samples.
class SampleCache {
 public:
  SampleCache();
  SampleCache(const SampleCache&) = default;
  SampleCache& operator=(const SampleCache&) = default;

  Sample get(std::size_t index, const std::function<Sample()>& render) const;

 private:
  struct Store;
  std::shared_ptr<Store> store_;
};

}  // namespace gs::data
