#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "geometry/vec2.hpp"

namespace sensrep::geometry {

/// Axis-aligned rectangle [min.x, max.x] x [min.y, max.y].
/// Invariant: min.x <= max.x and min.y <= max.y.
struct Rect {
  Vec2 min;
  Vec2 max;

  /// Rectangle with a corner at the origin.
  [[nodiscard]] static constexpr Rect sized(double width, double height) noexcept {
    return Rect{{0.0, 0.0}, {width, height}};
  }

  /// Smallest rectangle holding every point; the zero rectangle at the
  /// origin when there are none.
  [[nodiscard]] static Rect bounding(const std::vector<Vec2>& points) noexcept {
    if (points.empty()) return Rect{};
    Rect box{points.front(), points.front()};
    for (const Vec2 p : points) {
      box.min = {std::min(box.min.x, p.x), std::min(box.min.y, p.y)};
      box.max = {std::max(box.max.x, p.x), std::max(box.max.y, p.y)};
    }
    return box;
  }

  [[nodiscard]] constexpr double width() const noexcept { return max.x - min.x; }
  [[nodiscard]] constexpr double height() const noexcept { return max.y - min.y; }
  [[nodiscard]] constexpr double area() const noexcept { return width() * height(); }
  [[nodiscard]] constexpr Vec2 center() const noexcept { return midpoint(min, max); }

  /// Closed containment test.
  [[nodiscard]] constexpr bool contains(Vec2 p) const noexcept {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  /// Nearest point inside the rectangle to `p`.
  [[nodiscard]] constexpr Vec2 clamp(Vec2 p) const noexcept {
    return {std::clamp(p.x, min.x, max.x), std::clamp(p.y, min.y, max.y)};
  }

  /// Rectangle grown by `margin` on all sides (negative shrinks; caller must
  /// keep the invariant).
  [[nodiscard]] constexpr Rect inflated(double margin) const noexcept {
    return {{min.x - margin, min.y - margin}, {max.x + margin, max.y + margin}};
  }

  friend constexpr bool operator==(const Rect&, const Rect&) = default;
};

}  // namespace sensrep::geometry
