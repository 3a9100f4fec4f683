#include "nn/lowrank.hpp"

#include "common/check.hpp"
#include "nn/init.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

namespace {

/// {U, Vᵀ} without copying either factor (a braced list would).
std::vector<Tensor> factor_pair(Tensor u, Tensor vt) {
  std::vector<Tensor> pair;
  pair.reserve(2);
  pair.push_back(std::move(u));
  pair.push_back(std::move(vt));
  return pair;
}

}  // namespace

void FactorizedLayer::set_factors(Tensor u, Tensor vt) {
  factors().set_matrices(factor_pair(std::move(u), std::move(vt)));
}

Tensor FactorizedLayer::effective_weight() const {
  return matmul(factor_u(), factor_vt());
}

LowRankDense::LowRankDense(std::string name, std::size_t in_features,
                           std::size_t out_features, std::size_t rank,
                           Rng& rng)
    : WeightLayer(std::move(name),
                  {Tensor(Shape{in_features, rank}),
                   Tensor(Shape{rank, out_features})},
                  Tensor(Shape{out_features})) {
  GS_CHECK(in_features > 0 && out_features > 0 && rank > 0);
  xavier_uniform(mutable_u(), in_features, rank, rng);
  xavier_uniform(mutable_vt(), rank, out_features, rng);
}

LowRankDense::LowRankDense(std::string name, Tensor u, Tensor vt, Tensor bias)
    : WeightLayer(std::move(name), factor_pair(std::move(u), std::move(vt)),
                  std::move(bias)) {}

LowRankConv2d::LowRankConv2d(std::string name, Conv2dSpec spec,
                             std::size_t rank, Rng& rng)
    : ConvWeightLayer(
          std::move(name), spec,
          {Tensor(Shape{spec.in_channels * spec.kernel * spec.kernel, rank}),
           Tensor(Shape{rank, spec.out_channels})},
          Tensor(Shape{spec.out_channels})) {
  GS_CHECK(rank > 0);
  he_normal(mutable_u(), full_rows(), rng);
  xavier_uniform(mutable_vt(), rank, spec.out_channels, rng);
}

LowRankConv2d::LowRankConv2d(std::string name, Conv2dSpec spec, Tensor u,
                             Tensor vt, Tensor bias)
    : ConvWeightLayer(std::move(name), spec,
                      factor_pair(std::move(u), std::move(vt)),
                      std::move(bias)) {}

}  // namespace gs::nn
