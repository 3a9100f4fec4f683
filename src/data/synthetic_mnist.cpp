#include "data/synthetic_mnist.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace gs::data {

namespace {

struct Point {
  double x;
  double y;
};

struct Segment {
  Point a;
  Point b;
};

/// Digit skeletons as polyline segments in the unit square, y growing
/// downward (top-left origin), glyph body roughly inside [0.2, 0.8]².
std::vector<Segment> digit_skeleton(std::size_t digit) {
  auto seg = [](double ax, double ay, double bx, double by) {
    return Segment{{ax, ay}, {bx, by}};
  };
  // Approximate arcs with short chords where needed.
  switch (digit) {
    case 0:
      return {seg(.35, .25, .65, .25), seg(.65, .25, .72, .40),
              seg(.72, .40, .72, .60), seg(.72, .60, .65, .75),
              seg(.65, .75, .35, .75), seg(.35, .75, .28, .60),
              seg(.28, .60, .28, .40), seg(.28, .40, .35, .25)};
    case 1:
      return {seg(.40, .33, .55, .22), seg(.55, .22, .55, .78),
              seg(.40, .78, .70, .78)};
    case 2:
      return {seg(.30, .33, .40, .24), seg(.40, .24, .60, .24),
              seg(.60, .24, .70, .35), seg(.70, .35, .66, .48),
              seg(.66, .48, .30, .76), seg(.30, .76, .72, .76)};
    case 3:
      return {seg(.30, .26, .66, .26), seg(.66, .26, .70, .38),
              seg(.70, .38, .55, .48), seg(.55, .48, .70, .58),
              seg(.70, .58, .66, .74), seg(.66, .74, .30, .74)};
    case 4:
      return {seg(.62, .78, .62, .22), seg(.62, .22, .28, .60),
              seg(.28, .60, .75, .60)};
    case 5:
      return {seg(.70, .24, .34, .24), seg(.34, .24, .32, .48),
              seg(.32, .48, .60, .46), seg(.60, .46, .70, .58),
              seg(.70, .58, .66, .74), seg(.66, .74, .30, .74)};
    case 6:
      return {seg(.66, .24, .42, .30), seg(.42, .30, .30, .50),
              seg(.30, .50, .30, .66), seg(.30, .66, .42, .76),
              seg(.42, .76, .62, .76), seg(.62, .76, .70, .62),
              seg(.70, .62, .60, .50), seg(.60, .50, .32, .54)};
    case 7:
      return {seg(.28, .24, .72, .24), seg(.72, .24, .48, .78),
              seg(.38, .52, .64, .52)};
    case 8:
      return {seg(.50, .24, .66, .30), seg(.66, .30, .66, .42),
              seg(.66, .42, .50, .49), seg(.50, .49, .34, .42),
              seg(.34, .42, .34, .30), seg(.34, .30, .50, .24),
              seg(.50, .49, .70, .58), seg(.70, .58, .70, .70),
              seg(.70, .70, .50, .77), seg(.50, .77, .30, .70),
              seg(.30, .70, .30, .58), seg(.30, .58, .50, .49)};
    case 9:
      return {seg(.68, .50, .40, .52), seg(.40, .52, .30, .40),
              seg(.30, .40, .36, .27), seg(.36, .27, .58, .24),
              seg(.58, .24, .68, .34), seg(.68, .34, .68, .62),
              seg(.68, .62, .58, .77), seg(.58, .77, .36, .74)};
    default:
      GS_FAIL("digit out of range: " << digit);
  }
}

double point_segment_distance(const Point& p, const Segment& s) {
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((p.x - s.a.x) * dx + (p.y - s.a.y) * dy) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double cx = s.a.x + t * dx;
  const double cy = s.a.y + t * dy;
  return std::hypot(p.x - cx, p.y - cy);
}

/// 2×2 affine + translation applied around the glyph centre (0.5, 0.5).
struct Affine {
  double m00 = 1, m01 = 0, m10 = 0, m11 = 1;
  double tx = 0, ty = 0;

  Point apply(const Point& p) const {
    const double x = p.x - 0.5;
    const double y = p.y - 0.5;
    return {m00 * x + m01 * y + 0.5 + tx, m10 * x + m11 * y + 0.5 + ty};
  }
};

Affine random_affine(Rng& rng, const MnistStyle& st) {
  const double angle = rng.uniform(-st.max_rotate_rad, st.max_rotate_rad);
  const double sx = rng.uniform(st.min_scale, st.max_scale);
  const double sy = rng.uniform(st.min_scale, st.max_scale);
  const double shear = rng.uniform(-st.max_shear, st.max_shear);
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  Affine a;
  // rotation · shear · scale
  a.m00 = c * sx + (-s) * shear * sx;
  a.m01 = -s * sy;
  a.m10 = s * sx + c * shear * sx;
  a.m11 = c * sy;
  a.tx = rng.uniform(-st.max_shift, st.max_shift);
  a.ty = rng.uniform(-st.max_shift, st.max_shift);
  return a;
}

Tensor render(std::size_t digit, const Affine& affine, double thickness,
              double noise_stddev, Rng& rng) {
  const auto segments = digit_skeleton(digit);
  // Transform the skeleton (cheaper than inverse-mapping each pixel).
  std::vector<Segment> warped;
  warped.reserve(segments.size());
  for (const auto& s : segments) {
    warped.push_back({affine.apply(s.a), affine.apply(s.b)});
  }

  Tensor image(Shape{1, SyntheticMnist::kHeight, SyntheticMnist::kWidth});
  for (std::size_t y = 0; y < SyntheticMnist::kHeight; ++y) {
    for (std::size_t x = 0; x < SyntheticMnist::kWidth; ++x) {
      const Point p{(x + 0.5) / SyntheticMnist::kWidth,
                    (y + 0.5) / SyntheticMnist::kHeight};
      double d = 1e9;
      for (const auto& s : warped) {
        d = std::min(d, point_segment_distance(p, s));
      }
      // Soft brush: 1 inside the stroke, smooth falloff of one pixel width.
      const double falloff = 1.5 / SyntheticMnist::kWidth;
      double v = 1.0 - std::clamp((d - thickness) / falloff, 0.0, 1.0);
      if (noise_stddev > 0.0) {
        v += rng.gaussian(0.0, noise_stddev);
      }
      image.at(0, y, x) = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
  return image;
}

}  // namespace

SyntheticMnist::SyntheticMnist(std::uint64_t seed, std::size_t count,
                               MnistStyle style)
    : seed_(seed), count_(count), style_(style) {
  GS_CHECK(count > 0);
}

Sample SyntheticMnist::get(std::size_t index) const {
  GS_CHECK_MSG(index < count_, "index " << index << " >= size " << count_);
  return cache_.get(index, [&] {
    // Per-sample stream: decorrelated across indices, stable across calls.
    Rng rng(seed_ ^ (0xD1B54A32D192ED03ULL * (index + 1)));
    const std::size_t label = index % kClasses;  // balanced classes
    const Affine affine = random_affine(rng, style_);
    const double thickness =
        rng.uniform(style_.min_thickness, style_.max_thickness);
    return Sample{render(label, affine, thickness, style_.noise_stddev, rng),
                  label};
  });
}

Tensor SyntheticMnist::prototype(std::size_t label) const {
  GS_CHECK(label < kClasses);
  Rng rng(seed_);
  return render(label, Affine{}, 0.06, 0.0, rng);
}

}  // namespace gs::data
