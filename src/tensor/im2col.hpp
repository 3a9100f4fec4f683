// im2col / col2im lowering for convolution.
//
// Convolutions in gs::nn are computed as GEMMs over im2col patch matrices —
// the same lowering Caffe (the paper's training stack) uses, and the lowering
// that defines the "unrolled" (C·kh·kw × F) weight-matrix view that the
// crossbar mapper consumes.
#pragma once

#include "tensor/tensor.hpp"

namespace gs {

/// Geometry of a 2-D convolution / pooling window.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride_h = 1;
  std::size_t stride_w = 1;
  std::size_t pad_h = 0;
  std::size_t pad_w = 0;

  /// Output spatial extents; throws if the window never fits.
  std::size_t out_height() const;
  std::size_t out_width() const;
  /// Patch length = in_channels * kernel_h * kernel_w.
  std::size_t patch_size() const;
  /// Validates all extents are positive and the window fits.
  void validate() const;
};

/// Lowers one image (C×H×W, rank-3) into a patch matrix of shape
/// (out_h*out_w, patch_size); row p holds the receptive field of output
/// position p in channel-major order. Zero padding is applied.
Tensor im2col(const Tensor& image, const ConvGeometry& g);

/// One row of im2col: writes the receptive field of output position
/// (oy, ox) of the C×H×W image at `image` into `row` (patch_size() floats,
/// channel-major, zero padding). Lets a caller stream patch rows without
/// materialising the whole patch matrix.
void im2col_patch(const float* image, const ConvGeometry& g, std::size_t oy,
                  std::size_t ox, float* row);

/// im2col's patch matrix transposed, on raw buffers: writes the
/// (patch_size, out_h*out_w) matrix of the C×H×W image at `image` into
/// `cols`. Row (c, ky, kx) holds that kernel tap's input value at every
/// output position, so at stride 1 each output row's stretch is one
/// contiguous copy of an image row.
void im2col_transposed(const float* image, const ConvGeometry& g,
                       float* cols);

/// Adjoint of im2col_transposed: adds the (patch_size, out_h*out_w) matrix
/// at `cols` into the C×H×W image at `image`. Every pixel receives its
/// terms in ascending output position, the order col2im adds them in, so
/// on a zeroed image the two agree bit for bit.
void col2im_transposed(const float* cols, const ConvGeometry& g,
                       float* image);

/// Adjoint of im2col: accumulates a patch-matrix gradient back into an
/// image-shaped gradient (C×H×W). Exactly the transpose of the linear
/// im2col map, which property tests verify via <im2col(x), y> = <x, col2im(y)>.
Tensor col2im(const Tensor& columns, const ConvGeometry& g);

}  // namespace gs
