#include "data/synthetic_cifar.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace gs::data {

namespace {

/// Texture field value in [0, 1] for class `cls` at normalised (x, y).
/// `phase`, `freq` randomise each sample; `aux` holds per-sample blob sites.
struct TextureParams {
  double phase_x = 0.0;
  double phase_y = 0.0;
  double freq = 1.0;
  std::array<double, 8> aux{};  // blob centres etc.
};

double texture_value(std::size_t cls, double x, double y,
                     const TextureParams& t) {
  const double px = x + t.phase_x;
  const double py = y + t.phase_y;
  switch (cls) {
    case 0:  // horizontal stripes
      return 0.5 + 0.5 * std::sin(2.0 * M_PI * 3.0 * t.freq * py);
    case 1:  // vertical stripes
      return 0.5 + 0.5 * std::sin(2.0 * M_PI * 3.0 * t.freq * px);
    case 2:  // diagonal stripes
      return 0.5 + 0.5 * std::sin(2.0 * M_PI * 2.5 * t.freq * (px + py));
    case 3:  // checkerboard
      return (std::sin(2.0 * M_PI * 2.0 * t.freq * px) *
                  std::sin(2.0 * M_PI * 2.0 * t.freq * py) >
              0.0)
                 ? 1.0
                 : 0.0;
    case 4: {  // centred disk
      const double r = std::hypot(px - 0.5, py - 0.5);
      return r < 0.30 * t.freq ? 1.0 : 0.0;
    }
    case 5: {  // ring
      const double r = std::hypot(px - 0.5, py - 0.5);
      const double d = std::fabs(r - 0.30 * t.freq);
      return d < 0.07 ? 1.0 : 0.0;
    }
    case 6: {  // two Gaussian blobs at per-sample sites
      const double d1 = std::hypot(x - t.aux[0], y - t.aux[1]);
      const double d2 = std::hypot(x - t.aux[2], y - t.aux[3]);
      return std::exp(-d1 * d1 / 0.02) + std::exp(-d2 * d2 / 0.02);
    }
    case 7: {  // radial gradient
      const double r = std::hypot(px - 0.5, py - 0.5);
      return std::clamp(1.0 - r * 1.8 * t.freq, 0.0, 1.0);
    }
    case 8: {  // cross
      const bool on = std::fabs(px - 0.5) < 0.10 || std::fabs(py - 0.5) < 0.10;
      return on ? 1.0 : 0.0;
    }
    case 9:  // diagonal waves (two frequencies superposed)
      return 0.5 + 0.25 * std::sin(2.0 * M_PI * 2.0 * t.freq * (px - py)) +
             0.25 * std::sin(2.0 * M_PI * 4.0 * t.freq * (px + 0.5 * py));
    default:
      GS_FAIL("class out of range: " << cls);
  }
}

/// Distinct base colours per class (RGB in [0,1]).
std::array<double, 3> base_color(std::size_t cls) {
  static constexpr std::array<std::array<double, 3>, 10> kColors{{
      {0.85, 0.25, 0.25},  // red
      {0.25, 0.65, 0.30},  // green
      {0.25, 0.35, 0.85},  // blue
      {0.85, 0.75, 0.25},  // yellow
      {0.75, 0.30, 0.75},  // magenta
      {0.25, 0.75, 0.75},  // cyan
      {0.90, 0.55, 0.20},  // orange
      {0.55, 0.40, 0.25},  // brown
      {0.60, 0.60, 0.65},  // grey-blue
      {0.35, 0.20, 0.55},  // violet
  }};
  return kColors.at(cls);
}

}  // namespace

SyntheticCifar::SyntheticCifar(std::uint64_t seed, std::size_t count,
                               CifarStyle style)
    : seed_(seed), count_(count), style_(style) {
  GS_CHECK(count > 0);
}

Sample SyntheticCifar::get(std::size_t index) const {
  GS_CHECK_MSG(index < count_, "index " << index << " >= size " << count_);
  return cache_.get(index, [&] {
    Rng rng(seed_ ^ (0xA0761D6478BD642FULL * (index + 1)));
    const std::size_t label = index % kClasses;

    TextureParams t;
    t.phase_x = rng.uniform(-style_.max_shift, style_.max_shift);
    t.phase_y = rng.uniform(-style_.max_shift, style_.max_shift);
    t.freq = rng.uniform(1.0 - style_.freq_jitter, 1.0 + style_.freq_jitter);
    for (auto& a : t.aux) a = rng.uniform(0.25, 0.75);

    // Distractor: a different class's texture blended at low strength makes
    // colour alone insufficient for classification.
    const std::size_t rival =
        (label + 1 + rng.uniform_index(kClasses - 1)) % kClasses;
    TextureParams rt = t;
    rt.phase_x = rng.uniform(-style_.max_shift, style_.max_shift);
    rt.phase_y = rng.uniform(-style_.max_shift, style_.max_shift);

    std::array<double, 3> color = base_color(label);
    for (auto& c : color) {
      c = std::clamp(c + rng.uniform(-style_.color_jitter, style_.color_jitter),
                     0.0, 1.0);
    }
    const std::array<double, 3> rival_color = base_color(rival);

    Tensor image(Shape{kChannels, kHeight, kWidth});
    for (std::size_t y = 0; y < kHeight; ++y) {
      for (std::size_t x = 0; x < kWidth; ++x) {
        const double nx = (x + 0.5) / kWidth;
        const double ny = (y + 0.5) / kHeight;
        const double v = texture_value(label, nx, ny, t);
        const double rv =
            style_.distractor_level * texture_value(rival, nx, ny, rt);
        for (std::size_t c = 0; c < kChannels; ++c) {
          double pixel = 0.15 + 0.85 * v * color[c] + rv * rival_color[c];
          pixel += rng.gaussian(0.0, style_.noise_stddev);
          image.at(c, y, x) = static_cast<float>(std::clamp(pixel, 0.0, 1.0));
        }
      }
    }
    return Sample{std::move(image), label};
  });
}

}  // namespace gs::data
