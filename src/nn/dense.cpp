#include "nn/dense.hpp"

#include "common/check.hpp"
#include "nn/init.hpp"

namespace gs::nn {

DenseLayer::DenseLayer(std::string name, std::size_t in_features,
                       std::size_t out_features, Rng& rng)
    : WeightLayer(std::move(name), {Tensor(Shape{in_features, out_features})},
                  Tensor(Shape{out_features})) {
  GS_CHECK(in_features > 0 && out_features > 0);
  xavier_uniform(weight(), in_features, out_features, rng);
}

}  // namespace gs::nn
