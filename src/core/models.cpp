#include "core/models.hpp"

#include <memory>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool2d.hpp"

namespace gs::core {

nn::Network build_lenet(Rng& rng) {
  nn::Network net;
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv1", nn::Conv2dSpec{1, 20, 5, 1, 0}, rng));
  net.add(std::make_unique<nn::Pool2dLayer>("pool1", nn::PoolMode::kMax, 2, 2));
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv2", nn::Conv2dSpec{20, 50, 5, 1, 0}, rng));
  net.add(std::make_unique<nn::Pool2dLayer>("pool2", nn::PoolMode::kMax, 2, 2));
  net.add(std::make_unique<nn::FlattenLayer>("flatten"));
  net.add(std::make_unique<nn::DenseLayer>("fc1", 800, 500, rng));
  net.add(std::make_unique<nn::ReluLayer>("relu1"));
  net.add(std::make_unique<nn::DenseLayer>("fc2", 500, 10, rng));
  return net;
}

nn::Network build_convnet(Rng& rng) {
  nn::Network net;
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv1", nn::Conv2dSpec{3, 32, 5, 1, 2}, rng));
  net.add(std::make_unique<nn::Pool2dLayer>("pool1", nn::PoolMode::kMax, 3, 2));
  net.add(std::make_unique<nn::ReluLayer>("relu1"));
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv2", nn::Conv2dSpec{32, 32, 5, 1, 2}, rng));
  net.add(std::make_unique<nn::ReluLayer>("relu2"));
  net.add(std::make_unique<nn::Pool2dLayer>("pool2", nn::PoolMode::kAvg, 3, 2));
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv3", nn::Conv2dSpec{32, 64, 5, 1, 2}, rng));
  net.add(std::make_unique<nn::ReluLayer>("relu3"));
  net.add(std::make_unique<nn::Pool2dLayer>("pool3", nn::PoolMode::kAvg, 3, 2));
  net.add(std::make_unique<nn::FlattenLayer>("flatten"));
  net.add(std::make_unique<nn::DenseLayer>("fc1", 1024, 10, rng));
  return net;
}

std::vector<std::string> lenet_compressible_layers() {
  return {"conv1", "conv2", "fc1"};
}
std::vector<std::string> convnet_compressible_layers() {
  return {"conv1", "conv2", "conv3"};
}
std::string lenet_classifier() { return "fc2"; }
std::string convnet_classifier() { return "fc1"; }

namespace {

/// LRA of a trained weight at the requested (or full) rank.
linalg::LowRankFactors factorize_weight(const Tensor& w,
                                        const FactorizeSpec& spec,
                                        const std::string& name) {
  std::size_t rank = w.cols();  // full rank default (Algorithm 2 line 2)
  if (const auto it = spec.ranks.find(name); it != spec.ranks.end()) {
    GS_CHECK_MSG(it->second >= 1 && it->second <= w.cols(),
                 name << ": rank " << it->second << " outside [1, "
                      << w.cols() << "]");
    rank = it->second;
  }
  return linalg::low_rank_approximate(w, spec.method, rank).factors;
}

}  // namespace

nn::Network clone_network(const nn::Network& source) {
  // Cloning is factorisation with every dense/conv layer kept dense;
  // factorised layers are always copied verbatim by to_lowrank.
  FactorizeSpec spec;
  for (std::size_t i = 0; i < source.layer_count(); ++i) {
    spec.keep_dense.insert(source.layer(i).name());
  }
  return to_lowrank(source, spec);
}

nn::Network to_lowrank(const nn::Network& source, const FactorizeSpec& spec) {
  nn::Network out;
  for (std::size_t i = 0; i < source.layer_count(); ++i) {
    const nn::Layer& layer = source.layer(i);
    if (auto* conv = dynamic_cast<const nn::Conv2dLayer*>(&layer)) {
      if (spec.keep_dense.count(conv->name()) > 0) {
        auto copy = std::make_unique<nn::Conv2dLayer>(*conv);
        out.add(std::move(copy));
        continue;
      }
      linalg::LowRankFactors f =
          factorize_weight(conv->weight(), spec, conv->name());
      out.add(std::make_unique<nn::LowRankConv2d>(
          conv->name(), conv->spec(), std::move(f.u), std::move(f.vt),
          conv->bias()));
    } else if (auto* dense = dynamic_cast<const nn::DenseLayer*>(&layer)) {
      if (spec.keep_dense.count(dense->name()) > 0) {
        out.add(std::make_unique<nn::DenseLayer>(*dense));
        continue;
      }
      linalg::LowRankFactors f =
          factorize_weight(dense->weight(), spec, dense->name());
      out.add(std::make_unique<nn::LowRankDense>(
          dense->name(), std::move(f.u), std::move(f.vt), dense->bias()));
    } else if (auto* pool = dynamic_cast<const nn::Pool2dLayer*>(&layer)) {
      out.add(std::make_unique<nn::Pool2dLayer>(
          pool->name(), pool->mode(), pool->kernel(), pool->stride()));
    } else if (auto* relu = dynamic_cast<const nn::ReluLayer*>(&layer)) {
      out.add(std::make_unique<nn::ReluLayer>(relu->name()));
    } else if (auto* flat = dynamic_cast<const nn::FlattenLayer*>(&layer)) {
      out.add(std::make_unique<nn::FlattenLayer>(flat->name()));
    } else if (auto* lr_dense = dynamic_cast<const nn::LowRankDense*>(&layer)) {
      out.add(std::make_unique<nn::LowRankDense>(*lr_dense));
    } else if (auto* lr_conv = dynamic_cast<const nn::LowRankConv2d*>(&layer)) {
      out.add(std::make_unique<nn::LowRankConv2d>(*lr_conv));
    } else {
      GS_FAIL("to_lowrank: unsupported layer type for '" << layer.name()
                                                         << "'");
    }
  }
  return out;
}

}  // namespace gs::core
