#pragma once

// Brute-force references for the grid-backed proximity queries. Each is a
// linear scan over points kept in ascending id order with a strict `<`
// comparison, so the first point at the best distance wins: ties go to the
// lowest id. Tests compare spatial::UniformGrid2D and the simulator's
// grid-backed queries against these scans.

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"

namespace sensrep::reference {

template <typename Id>
struct BruteIndex {
  std::vector<std::pair<Id, geometry::Vec2>> pts;  // ascending id

  /// Nearest accepted point under the squared-distance key.
  template <typename Filter>
  [[nodiscard]] std::optional<Id> nearest_d2(geometry::Vec2 p, Filter accept) const {
    std::optional<Id> best;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (const auto& [id, pos] : pts) {
      if (!accept(id)) continue;
      const double d2 = geometry::distance2(pos, p);
      if (!best || d2 < best_d2) {
        best = id;
        best_d2 = d2;
      }
    }
    return best;
  }

  /// Nearest accepted point under the fl(sqrt(d2)) key that scans using
  /// geometry::distance compare. sqrt rounding can merge distinct d2 keys,
  /// so this and nearest_d2 can legitimately disagree.
  template <typename Filter>
  [[nodiscard]] std::optional<Id> nearest_euclid(geometry::Vec2 p, Filter accept) const {
    std::optional<Id> best;
    double best_d = std::numeric_limits<double>::infinity();
    for (const auto& [id, pos] : pts) {
      if (!accept(id)) continue;
      const double d = geometry::distance(pos, p);
      if (!best || d < best_d) {
        best = id;
        best_d = d;
      }
    }
    return best;
  }

  /// Ids in the closed ball under the unit-disk predicate d2 <= r*r.
  [[nodiscard]] std::vector<Id> within_radius(geometry::Vec2 p, double r) const {
    std::vector<Id> out;
    for (const auto& [id, pos] : pts) {
      if (geometry::distance2(pos, p) <= r * r) out.push_back(id);
    }
    return out;
  }

  /// Ids in the closed ball under the sqrt-form test distance <= r.
  [[nodiscard]] std::vector<Id> within_distance(geometry::Vec2 p, double r) const {
    std::vector<Id> out;
    for (const auto& [id, pos] : pts) {
      if (geometry::distance(pos, p) <= r) out.push_back(id);
    }
    return out;
  }

  /// Ids inside the closed rectangle.
  [[nodiscard]] std::vector<Id> in_rect(const geometry::Rect& r) const {
    std::vector<Id> out;
    for (const auto& [id, pos] : pts) {
      if (r.contains(pos)) out.push_back(id);
    }
    return out;
  }
};

}  // namespace sensrep::reference
