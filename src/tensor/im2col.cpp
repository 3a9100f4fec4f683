#include "tensor/im2col.hpp"

namespace gs {

std::size_t ConvGeometry::out_height() const {
  GS_CHECK_MSG(in_height + 2 * pad_h >= kernel_h,
               "kernel taller than padded input");
  return (in_height + 2 * pad_h - kernel_h) / stride_h + 1;
}

std::size_t ConvGeometry::out_width() const {
  GS_CHECK_MSG(in_width + 2 * pad_w >= kernel_w,
               "kernel wider than padded input");
  return (in_width + 2 * pad_w - kernel_w) / stride_w + 1;
}

std::size_t ConvGeometry::patch_size() const {
  return in_channels * kernel_h * kernel_w;
}

void ConvGeometry::validate() const {
  GS_CHECK(in_channels > 0 && in_height > 0 && in_width > 0);
  GS_CHECK(kernel_h > 0 && kernel_w > 0);
  GS_CHECK(stride_h > 0 && stride_w > 0);
  (void)out_height();
  (void)out_width();
}

void im2col_patch(const float* image, const ConvGeometry& g, std::size_t oy,
                  std::size_t ox, float* row) {
  std::size_t idx = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* chan = image + c * g.in_height * g.in_width;
    for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
      // Signed arithmetic for padding underflow.
      const long long iy = static_cast<long long>(oy * g.stride_h + ky) -
                           static_cast<long long>(g.pad_h);
      for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++idx) {
        const long long ix = static_cast<long long>(ox * g.stride_w + kx) -
                             static_cast<long long>(g.pad_w);
        if (iy < 0 || iy >= static_cast<long long>(g.in_height) || ix < 0 ||
            ix >= static_cast<long long>(g.in_width)) {
          row[idx] = 0.0f;
        } else {
          row[idx] = chan[static_cast<std::size_t>(iy) * g.in_width +
                          static_cast<std::size_t>(ix)];
        }
      }
    }
  }
}

Tensor im2col(const Tensor& image, const ConvGeometry& g) {
  g.validate();
  GS_CHECK_MSG(image.rank() == 3 && image.dim(0) == g.in_channels &&
                   image.dim(1) == g.in_height && image.dim(2) == g.in_width,
               "im2col input shape " << shape_to_string(image.shape()));
  const std::size_t oh = g.out_height();
  const std::size_t ow = g.out_width();
  const std::size_t ps = g.patch_size();
  Tensor cols(Shape{oh * ow, ps});
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      im2col_patch(image.data(), g, oy, ox, cols.data() + (oy * ow + ox) * ps);
    }
  }
  return cols;
}

Tensor col2im(const Tensor& columns, const ConvGeometry& g) {
  g.validate();
  const std::size_t oh = g.out_height();
  const std::size_t ow = g.out_width();
  const std::size_t ps = g.patch_size();
  GS_CHECK_MSG(columns.rank() == 2 && columns.rows() == oh * ow &&
                   columns.cols() == ps,
               "col2im input shape " << shape_to_string(columns.shape()));
  Tensor image(Shape{g.in_channels, g.in_height, g.in_width});
  float* dst = image.data();
  const float* src = columns.data();

  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* row = src + (oy * ow + ox) * ps;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        float* chan = dst + c * g.in_height * g.in_width;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
          const long long iy =
              static_cast<long long>(oy * g.stride_h + ky) -
              static_cast<long long>(g.pad_h);
          for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++idx) {
            const long long ix =
                static_cast<long long>(ox * g.stride_w + kx) -
                static_cast<long long>(g.pad_w);
            if (iy >= 0 && iy < static_cast<long long>(g.in_height) &&
                ix >= 0 && ix < static_cast<long long>(g.in_width)) {
              chan[static_cast<std::size_t>(iy) * g.in_width +
                   static_cast<std::size_t>(ix)] += row[idx];
            }
          }
        }
      }
    }
  }
  return image;
}

}  // namespace gs
