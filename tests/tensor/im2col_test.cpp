#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace gs {
namespace {

ConvGeometry simple_geometry(std::size_t c, std::size_t h, std::size_t w,
                             std::size_t k, std::size_t stride,
                             std::size_t pad) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_height = h;
  g.in_width = w;
  g.kernel_h = g.kernel_w = k;
  g.stride_h = g.stride_w = stride;
  g.pad_h = g.pad_w = pad;
  return g;
}

TEST(ConvGeometry, OutputExtents) {
  const ConvGeometry g = simple_geometry(1, 28, 28, 5, 1, 0);
  EXPECT_EQ(g.out_height(), 24u);
  EXPECT_EQ(g.out_width(), 24u);
  EXPECT_EQ(g.patch_size(), 25u);
}

TEST(ConvGeometry, PaddedSameConvolution) {
  const ConvGeometry g = simple_geometry(3, 32, 32, 5, 1, 2);
  EXPECT_EQ(g.out_height(), 32u);
  EXPECT_EQ(g.out_width(), 32u);
  EXPECT_EQ(g.patch_size(), 75u);
}

TEST(ConvGeometry, StridedOutput) {
  const ConvGeometry g = simple_geometry(1, 7, 7, 3, 2, 0);
  EXPECT_EQ(g.out_height(), 3u);
  EXPECT_EQ(g.out_width(), 3u);
}

TEST(ConvGeometry, KernelLargerThanInputThrows) {
  const ConvGeometry g = simple_geometry(1, 3, 3, 5, 1, 0);
  EXPECT_THROW(g.validate(), Error);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1×1 kernel: each patch row is exactly one pixel.
  Tensor img(Shape{1, 2, 2});
  img.at(0, 0, 0) = 1;
  img.at(0, 0, 1) = 2;
  img.at(0, 1, 0) = 3;
  img.at(0, 1, 1) = 4;
  const ConvGeometry g = simple_geometry(1, 2, 2, 1, 1, 0);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.rows(), 4u);
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_EQ(cols.at(0, 0), 1.0f);
  EXPECT_EQ(cols.at(3, 0), 4.0f);
}

TEST(Im2col, PatchContentsChannelMajor) {
  Tensor img(Shape{2, 2, 2});
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>(i);
  }
  const ConvGeometry g = simple_geometry(2, 2, 2, 2, 1, 0);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.rows(), 1u);
  EXPECT_EQ(cols.cols(), 8u);
  // Channel-major order: channel 0 rows, then channel 1 rows.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cols.at(0, i), static_cast<float>(i));
  }
}

TEST(Im2col, ZeroPaddingFillsBorder) {
  Tensor img(Shape{1, 1, 1}, 5.0f);
  const ConvGeometry g = simple_geometry(1, 1, 1, 3, 1, 1);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.rows(), 1u);
  EXPECT_EQ(cols.cols(), 9u);
  float sum = 0.0f;
  for (std::size_t i = 0; i < 9; ++i) sum += cols.at(0, i);
  EXPECT_EQ(sum, 5.0f);          // only the centre is the pixel
  EXPECT_EQ(cols.at(0, 4), 5.0f);  // centre of the 3×3 patch
}

TEST(Im2col, RejectsShapeMismatch) {
  Tensor img(Shape{2, 4, 4});
  const ConvGeometry g = simple_geometry(1, 4, 4, 3, 1, 0);
  EXPECT_THROW(im2col(img, g), Error);
}

TEST(Col2im, RejectsShapeMismatch) {
  const ConvGeometry g = simple_geometry(1, 4, 4, 3, 1, 0);
  Tensor bad(Shape{3, 9});
  EXPECT_THROW(col2im(bad, g), Error);
}

TEST(Col2im, AccumulatesOverlappingPatches) {
  // 2×2 input, 1×1 kernel stride 1: col2im of all-ones gives all-ones.
  const ConvGeometry g = simple_geometry(1, 2, 2, 1, 1, 0);
  Tensor cols(Shape{4, 1}, 1.0f);
  Tensor img = col2im(cols, g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(img[i], 1.0f);
}

/// Property sweep: col2im is the exact adjoint of im2col —
/// <im2col(x), y> = <x, col2im(y)> for random x, y across geometries
/// (including both paper conv shapes).
class Im2colAdjointSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                     std::size_t>> {};

TEST_P(Im2colAdjointSweep, AdjointIdentity) {
  const auto [c, hw, k, stride, pad] = GetParam();
  const ConvGeometry g = simple_geometry(c, hw, hw, k, stride, pad);
  g.validate();
  Rng rng(c * 100 + hw * 10 + k + stride + pad);

  Tensor x(Shape{c, hw, hw});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor y(Shape{g.out_height() * g.out_width(), g.patch_size()});
  y.fill_gaussian(rng, 0.0f, 1.0f);

  const double lhs = frobenius_dot(im2col(x, g), y);
  const Tensor back = col2im(y, g);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

/// The channel-major pair against the row-major one, bit for bit:
/// im2col_transposed is im2col transposed, and col2im_transposed adds each
/// pixel's terms in col2im's order (ascending output position).
TEST_P(Im2colAdjointSweep, TransposedPairMatchesRowMajorBitwise) {
  const auto [c, hw, k, stride, pad] = GetParam();
  const ConvGeometry g = simple_geometry(c, hw, hw, k, stride, pad);
  Rng rng(c * 100 + hw * 10 + k + stride + pad + 1);

  Tensor x(Shape{c, hw, hw});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  const Tensor want_cols = transposed(im2col(x, g));
  Tensor cols(want_cols.shape(), 7.0f);  // every element must be written
  im2col_transposed(x.data(), g, cols.data());
  EXPECT_EQ(std::memcmp(cols.data(), want_cols.data(),
                        cols.numel() * sizeof(float)),
            0);

  Tensor y(Shape{g.patch_size(), g.out_height() * g.out_width()});
  y.fill_gaussian(rng, 0.0f, 1.0f);
  const Tensor want_image = col2im(transposed(y), g);
  Tensor image(x.shape());
  col2im_transposed(y.data(), g, image.data());
  EXPECT_EQ(std::memcmp(image.data(), want_image.data(),
                        image.numel() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjointSweep,
    ::testing::Values(
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(1, 8, 3, 1, 0),
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(1, 28, 5, 1, 0),   // LeNet conv1
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(3, 32, 5, 1, 2),   // ConvNet conv1
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(2, 9, 3, 2, 1),
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(4, 6, 2, 2, 0),
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(20, 12, 5, 1, 0),  // LeNet conv2
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(2, 7, 3, 3, 2)));

TEST(Im2col, ConvViaGemmMatchesDirectConvolution) {
  // Full pipeline check: im2col + GEMM equals the textbook convolution sum.
  Rng rng(9);
  const ConvGeometry g = simple_geometry(2, 6, 6, 3, 1, 1);
  Tensor img(Shape{2, 6, 6});
  img.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor weight(Shape{g.patch_size(), 4});  // 4 filters
  weight.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor cols = im2col(img, g);
  Tensor out = matmul(cols, weight);  // (36, 4)

  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t oy = 0; oy < 6; ++oy) {
      for (std::size_t ox = 0; ox < 6; ++ox) {
        double acc = 0.0;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < 2; ++c) {
          for (std::size_t ky = 0; ky < 3; ++ky) {
            for (std::size_t kx = 0; kx < 3; ++kx, ++idx) {
              const long long iy = static_cast<long long>(oy + ky) - 1;
              const long long ix = static_cast<long long>(ox + kx) - 1;
              if (iy >= 0 && iy < 6 && ix >= 0 && ix < 6) {
                acc += static_cast<double>(
                           img.at(c, static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix))) *
                       weight.at(idx, f);
              }
            }
          }
        }
        EXPECT_NEAR(out.at(oy * 6 + ox, f), acc, 1e-3);
      }
    }
  }
}

}  // namespace
}  // namespace gs
