#include "tensor/im2col.hpp"

#include <algorithm>

namespace gs {

namespace {

/// The output columns [lo, hi) whose tap at kernel offset `k` lands inside
/// an input extent `in`: 0 <= o·stride + k − pad < in.
void tap_range(std::size_t in, std::size_t out, std::size_t stride,
               std::size_t pad, std::size_t k, std::size_t& lo,
               std::size_t& hi) {
  lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  hi = in + pad > k ? std::min(out, (in + pad - k - 1) / stride + 1) : 0;
  lo = std::min(lo, hi);
}

}  // namespace

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

void im2col_transposed(const float* image, const ConvGeometry& g,
                       float* cols) {
  const std::size_t oh = g.out_height();
  const std::size_t ow = g.out_width();
  const std::size_t sx = g.stride_w;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* chan = image + c * g.in_height * g.in_width;
    for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
      std::size_t oy_lo = 0;
      std::size_t oy_hi = 0;
      tap_range(g.in_height, oh, g.stride_h, g.pad_h, ky, oy_lo, oy_hi);
      for (std::size_t kx = 0; kx < g.kernel_w; ++kx, cols += oh * ow) {
        std::size_t ox_lo = 0;
        std::size_t ox_hi = 0;
        tap_range(g.in_width, ow, sx, g.pad_w, kx, ox_lo, ox_hi);
        std::fill(cols, cols + oy_lo * ow, 0.0f);
        for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
          float* __restrict dst = cols + oy * ow;
          const float* __restrict src =
              chan + (oy * g.stride_h + ky - g.pad_h) * g.in_width;
          // Output column ox reads input column ox·stride + kx − pad; at
          // stride 1 the run is contiguous and copies as one vector loop.
          for (std::size_t ox = 0; ox < ox_lo; ++ox) dst[ox] = 0.0f;
          if (sx == 1 && ox_lo < ox_hi) {
            const float* __restrict run = src + (ox_lo + kx - g.pad_w);
            for (std::size_t i = 0; i < ox_hi - ox_lo; ++i) {
              dst[ox_lo + i] = run[i];
            }
          } else {
            for (std::size_t ox = ox_lo; ox < ox_hi; ++ox) {
              dst[ox] = src[ox * sx + kx - g.pad_w];
            }
          }
          for (std::size_t ox = ox_hi; ox < ow; ++ox) dst[ox] = 0.0f;
        }
        std::fill(cols + oy_hi * ow, cols + oh * ow, 0.0f);
      }
    }
  }
}

void col2im_transposed(const float* cols, const ConvGeometry& g,
                       float* image) {
  const std::size_t oh = g.out_height();
  const std::size_t ow = g.out_width();
  const std::size_t sx = g.stride_w;
  // Tap (ky, kx) adds output position (oy, ox) into pixel (oy·stride + ky −
  // pad, ox·stride + kx − pad), one position per pixel. Taps in descending
  // order therefore reach each pixel in ascending output position, as
  // col2im's additions do.
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* chan = image + c * g.in_height * g.in_width;
    for (std::size_t ky = g.kernel_h; ky-- > 0;) {
      std::size_t oy_lo = 0;
      std::size_t oy_hi = 0;
      tap_range(g.in_height, oh, g.stride_h, g.pad_h, ky, oy_lo, oy_hi);
      for (std::size_t kx = g.kernel_w; kx-- > 0;) {
        std::size_t ox_lo = 0;
        std::size_t ox_hi = 0;
        tap_range(g.in_width, ow, sx, g.pad_w, kx, ox_lo, ox_hi);
        const float* tap =
            cols + ((c * g.kernel_h + ky) * g.kernel_w + kx) * oh * ow;
        for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
          float* __restrict dst =
              chan + (oy * g.stride_h + ky - g.pad_h) * g.in_width;
          const float* __restrict src = tap + oy * ow;
          // Output column ox adds into input column ox·stride + kx − pad.
          for (std::size_t ox = ox_lo; ox < ox_hi; ++ox) {
            dst[ox * sx + kx - g.pad_w] += src[ox];
          }
        }
      }
    }
  }
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
