#include "nn/lowrank.hpp"

#include <gtest/gtest.h>

#include "linalg/lra.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {
namespace {

TEST(LowRankDense, FactorShapesAndRank) {
  Rng rng(1);
  LowRankDense lr("fc1", 800, 500, 36, rng);
  EXPECT_EQ(lr.factor_u().shape(), (Shape{800, 36}));
  EXPECT_EQ(lr.factor_vt().shape(), (Shape{36, 500}));
  EXPECT_EQ(lr.current_rank(), 36u);
  EXPECT_EQ(lr.full_rows(), 800u);
  EXPECT_EQ(lr.full_cols(), 500u);
}

TEST(LowRankDense, ForwardMatchesDenseWhenFactorsExact) {
  // Factorise a trained dense layer at full rank: outputs must coincide.
  Rng rng(2);
  DenseLayer dense("fc", 12, 7, rng);
  const linalg::LraResult lra = linalg::low_rank_approximate(
      dense.weight(), linalg::LraMethod::kPca, 7);
  LowRankDense lr("fc", lra.factors.u, lra.factors.vt, dense.bias());

  Tensor x(Shape{4, 12});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(lr.forward(x, true), dense.forward(x, true), 1e-3f));
}

TEST(LowRankDense, EffectiveWeightIsUVt) {
  Rng rng(3);
  LowRankDense lr("fc", 6, 5, 2, rng);
  EXPECT_TRUE(allclose(lr.effective_weight(),
                       matmul(lr.factor_u(), lr.factor_vt()), 1e-6f));
}

TEST(LowRankDense, SetFactorsShrinksRank) {
  Rng rng(4);
  LowRankDense lr("fc", 10, 8, 8, rng);
  Tensor u(Shape{10, 3});
  u.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor vt(Shape{3, 8});
  vt.fill_gaussian(rng, 0.0f, 1.0f);
  lr.set_factors(u, vt);
  EXPECT_EQ(lr.current_rank(), 3u);
  // Gradient buffers resized to match.
  EXPECT_EQ(lr.mutable_u_grad().shape(), (Shape{10, 3}));
  EXPECT_EQ(lr.mutable_vt_grad().shape(), (Shape{3, 8}));
}

TEST(LowRankDense, SetFactorsValidatesDims) {
  Rng rng(5);
  LowRankDense lr("fc", 10, 8, 4, rng);
  EXPECT_THROW(lr.set_factors(Tensor(Shape{9, 3}), Tensor(Shape{3, 8})),
               Error);  // wrong N
  EXPECT_THROW(lr.set_factors(Tensor(Shape{10, 3}), Tensor(Shape{3, 7})),
               Error);  // wrong M
  EXPECT_THROW(lr.set_factors(Tensor(Shape{10, 3}), Tensor(Shape{4, 8})),
               Error);  // inconsistent K
}

TEST(LowRankDense, ParamsExposeBothFactors) {
  Rng rng(6);
  LowRankDense lr("fc1", 10, 8, 4, rng);
  const auto params = lr.params();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].name, "fc1.u");
  EXPECT_EQ(params[1].name, "fc1.vt");
  EXPECT_EQ(params[2].name, "fc1.bias");
}

TEST(LowRankDense, BackwardGradShapes) {
  Rng rng(7);
  LowRankDense lr("fc", 6, 4, 3, rng);
  Tensor x(Shape{5, 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  lr.forward(x, true);
  Tensor dx = lr.backward(Tensor(Shape{5, 4}, 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(lr.mutable_u_grad().shape(), (Shape{6, 3}));
  EXPECT_EQ(lr.mutable_vt_grad().shape(), (Shape{3, 4}));
}

TEST(LowRankDense, BackwardMatchesComposedDenseLayers) {
  // y = x·U·Vᵀ: gradient w.r.t. x equals dense(U)∘dense(Vᵀ) composition.
  Rng rng(8);
  LowRankDense lr("fc", 6, 4, 3, rng);
  DenseLayer stage1("s1", 6, 3, rng);
  DenseLayer stage2("s2", 3, 4, rng);
  stage1.weight() = lr.factor_u();
  stage1.bias().set_zero();
  stage2.weight() = lr.factor_vt();

  Tensor x(Shape{2, 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor dy(Shape{2, 4});
  dy.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor y_lr = lr.forward(x, true);
  Tensor y_chain = stage2.forward(stage1.forward(x, true), true);
  // Align biases: lr bias lives in stage2's bias slot (both zero-initialised
  // except lr's own bias; copy it).
  for (std::size_t i = 0; i < 4; ++i) stage2.bias()[i] = lr.bias()[i];
  y_chain = stage2.forward(stage1.forward(x, true), true);
  EXPECT_TRUE(allclose(y_lr, y_chain, 1e-4f));

  Tensor dx_lr = lr.backward(dy);
  Tensor dx_chain = stage1.backward(stage2.backward(dy));
  EXPECT_TRUE(allclose(dx_lr, dx_chain, 1e-4f));
}

TEST(LowRankConv2d, FactorShapes) {
  Rng rng(9);
  LowRankConv2d lr("conv2", Conv2dSpec{20, 50, 5, 1, 0}, 12, rng);
  EXPECT_EQ(lr.factor_u().shape(), (Shape{500, 12}));
  EXPECT_EQ(lr.factor_vt().shape(), (Shape{12, 50}));
  EXPECT_EQ(lr.full_rows(), 500u);
  EXPECT_EQ(lr.full_cols(), 50u);
}

TEST(LowRankConv2d, ForwardMatchesDenseConvAtFullRank) {
  Rng rng(10);
  Conv2dLayer conv("conv", Conv2dSpec{2, 6, 3, 1, 1}, rng);
  const linalg::LraResult lra = linalg::low_rank_approximate(
      conv.weight(), linalg::LraMethod::kPca, 6);
  LowRankConv2d lr("conv", Conv2dSpec{2, 6, 3, 1, 1}, lra.factors.u,
                   lra.factors.vt, conv.bias());

  Tensor x(Shape{2, 2, 7, 7});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(lr.forward(x, true), conv.forward(x, true), 1e-3f));
}

TEST(LowRankConv2d, BackwardShape) {
  Rng rng(11);
  LowRankConv2d lr("conv", Conv2dSpec{3, 8, 3, 1, 1}, 4, rng);
  Tensor x(Shape{2, 3, 9, 9});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  lr.forward(x, true);
  Tensor dy(Shape{2, 8, 9, 9});
  dy.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_EQ(lr.backward(dy).shape(), x.shape());
}

TEST(LowRankConv2d, SetFactorsShrinksRank) {
  Rng rng(12);
  LowRankConv2d lr("conv", Conv2dSpec{2, 6, 3, 1, 0}, 6, rng);
  Tensor u(Shape{18, 2});
  u.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor vt(Shape{2, 6});
  vt.fill_gaussian(rng, 0.0f, 1.0f);
  lr.set_factors(u, vt);
  EXPECT_EQ(lr.current_rank(), 2u);
}

TEST(LowRankConv2d, EquivalentToKFilterPlus1x1Composition) {
  // The factor pair is literally a K-filter conv followed by a 1×1 conv.
  Rng rng(13);
  const std::size_t K = 3;
  LowRankConv2d lr("conv", Conv2dSpec{2, 5, 3, 1, 0}, K, rng);

  Conv2dLayer stage1("s1", Conv2dSpec{2, K, 3, 1, 0}, rng);
  stage1.weight() = lr.factor_u();
  stage1.bias().set_zero();
  Conv2dLayer stage2("s2", Conv2dSpec{K, 5, 1, 1, 0}, rng);
  stage2.weight() = lr.factor_vt();
  for (std::size_t i = 0; i < 5; ++i) stage2.bias()[i] = lr.bias()[i];

  Tensor x(Shape{1, 2, 6, 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor direct = lr.forward(x, true);
  Tensor composed = stage2.forward(stage1.forward(x, true), true);
  EXPECT_TRUE(allclose(direct, composed, 1e-4f));
}

}  // namespace
}  // namespace gs::nn
