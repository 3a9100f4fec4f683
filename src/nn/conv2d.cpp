#include "nn/conv2d.hpp"

#include "nn/init.hpp"

namespace gs::nn {

Conv2dLayer::Conv2dLayer(std::string name, Conv2dSpec spec, Rng& rng)
    : ConvWeightLayer(std::move(name), spec,
                      {Tensor(Shape{spec.in_channels * spec.kernel *
                                        spec.kernel,
                                    spec.out_channels})},
                      Tensor(Shape{spec.out_channels})) {
  he_normal(weight(), weight().rows(), rng);
}

}  // namespace gs::nn
