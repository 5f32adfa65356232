#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"

namespace sensrep::spatial {

/// Bounded uniform-grid bucket index over point objects.
///
/// The grid is sized once from a known field rectangle and stores its
/// buckets in a flat row-major vector, which makes whole-index
/// iteration deterministic and cheap: cell-major (row-major over cells),
/// then insertion order within a cell. Points outside the bounds are clamped
/// into the border cells, so the index never rejects a position — exact
/// distances are always computed from the true stored position, never from
/// the cell.
///
/// Determinism contract (docs/SPATIAL.md):
///  * for_each visits entries in cell-major, then insertion order;
///  * within_radius / in_rect return ids in ascending order;
///  * nearest breaks distance ties by lowest id, and the distance key is
///    configurable (squared distance, or the floating-point sqrt distance)
///    so a grid-backed query can reproduce a brute-force scan's comparator
///    bit for bit.
template <typename Id>
class UniformGrid2D {
 public:
  struct Entry {
    Id id;
    geometry::Vec2 pos;
  };

  UniformGrid2D(geometry::Rect bounds, double cell_size)
      : bounds_(bounds), cell_(cell_size) {
    if (!(cell_size > 0.0)) {
      throw std::invalid_argument("UniformGrid2D: cell_size must be positive");
    }
    if (bounds.width() < 0.0 || bounds.height() < 0.0) {
      throw std::invalid_argument("UniformGrid2D: bounds must be a valid Rect");
    }
    cols_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(bounds.width() / cell_size)));
    rows_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(bounds.height() / cell_size)));
    cells_.resize(cols_ * rows_);
  }

  [[nodiscard]] const geometry::Rect& bounds() const noexcept { return bounds_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return positions_.empty(); }

  [[nodiscard]] bool contains(Id id) const noexcept {
    return positions_.count(id) != 0;
  }

  /// Current stored position. Requires contains(id).
  [[nodiscard]] geometry::Vec2 position(Id id) const {
    const auto it = positions_.find(id);
    if (it == positions_.end()) {
      throw std::out_of_range("UniformGrid2D::position: unknown id");
    }
    return it->second;
  }

  /// Adds a new object. Throws if the id is already present (use move()).
  void insert(Id id, geometry::Vec2 pos) {
    if (!positions_.emplace(id, pos).second) {
      throw std::logic_error("UniformGrid2D::insert: id already present");
    }
    cells_[cell_index(pos)].push_back(Entry{id, pos});
  }

  /// Removes an object; no-op if absent.
  void remove(Id id) {
    const auto it = positions_.find(id);
    if (it == positions_.end()) return;
    erase_from_cell(id, it->second);
    positions_.erase(it);
  }

  /// Relocates an existing object. Throws if the id is absent.
  void move(Id id, geometry::Vec2 new_pos) {
    const auto it = positions_.find(id);
    if (it == positions_.end()) {
      throw std::out_of_range("UniformGrid2D::move: unknown id");
    }
    const std::size_t old_cell = cell_index(it->second);
    const std::size_t new_cell = cell_index(new_pos);
    if (old_cell == new_cell) {
      // Same bucket: refresh the stored position in place (keeps insertion
      // order, which the determinism contract pins).
      for (Entry& e : cells_[old_cell]) {
        if (e.id == id) {
          e.pos = new_pos;
          break;
        }
      }
    } else {
      erase_from_cell(id, it->second);
      cells_[new_cell].push_back(Entry{id, new_pos});
    }
    it->second = new_pos;
  }

  /// Relocation with the caller's belief of the old position; throws if it
  /// disagrees with the stored one (a desync means a call site forgot an
  /// update — fail loudly rather than silently corrupt the index).
  void move(Id id, geometry::Vec2 old_pos, geometry::Vec2 new_pos) {
    const auto it = positions_.find(id);
    if (it == positions_.end()) {
      throw std::out_of_range("UniformGrid2D::move: unknown id");
    }
    if (it->second != old_pos) {
      throw std::logic_error("UniformGrid2D::move: stale old_pos (index desync)");
    }
    move(id, new_pos);
  }

  /// Nearest accepted object under the squared-distance key (ties by lowest
  /// id). `accept(id)` filters candidates (e.g. "not presumed dead").
  template <typename Filter>
  [[nodiscard]] std::optional<Id> nearest(geometry::Vec2 p, Filter&& accept) const {
    return nearest_impl(p, accept, [](double d2) { return d2; });
  }

  [[nodiscard]] std::optional<Id> nearest(geometry::Vec2 p) const {
    return nearest(p, [](Id) { return true; });
  }

  /// Nearest accepted object under the *computed Euclidean distance* key —
  /// fl(sqrt(d2)) — which is what brute-force scans using
  /// geometry::distance() compare. sqrt compresses ULP spacing, so two
  /// different squared distances can round to the same sqrt; matching the
  /// brute comparator exactly is what keeps goldens byte-identical.
  template <typename Filter>
  [[nodiscard]] std::optional<Id> nearest_euclid(geometry::Vec2 p,
                                                 Filter&& accept) const {
    return nearest_impl(p, accept, [](double d2) { return std::sqrt(d2); });
  }

  /// Ids within the closed ball (fl(d2) <= fl(r*r), the medium's unit-disk
  /// predicate), ascending. Throws std::invalid_argument on a negative or NaN
  /// radius, which r*r would otherwise turn into the ball of radius |r|.
  [[nodiscard]] std::vector<Id> within_radius(geometry::Vec2 p, double r) const {
    if (!(r >= 0.0)) {
      throw std::invalid_argument("UniformGrid2D::within_radius: radius must be non-negative");
    }
    std::vector<Id> out;
    const double r2 = r * r;
    for_each_candidate(p, r, [&](Id id, geometry::Vec2 pos) {
      if (geometry::distance2(pos, p) <= r2) out.push_back(id);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Ids inside the closed rectangle, ascending.
  [[nodiscard]] std::vector<Id> in_rect(const geometry::Rect& r) const {
    std::vector<Id> out;
    const auto [lo_x, lo_y] = cell_coords(r.min);
    const auto [hi_x, hi_y] = cell_coords(r.max);
    for (std::size_t cy = lo_y; cy <= hi_y; ++cy) {
      for (std::size_t cx = lo_x; cx <= hi_x; ++cx) {
        for (const Entry& e : cells_[cy * cols_ + cx]) {
          if (r.contains(e.pos)) out.push_back(e.id);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Visits every entry in cell-major (row-major over cells), then insertion
  /// order. fn(id, pos).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& cell : cells_) {
      for (const Entry& e : cell) fn(e.id, e.pos);
    }
  }

  /// Visits every entry in the cells overlapping the disc of radius `r`
  /// around `p`, padded by one cell on each side so clamped border points
  /// and FP-boundary cells are never missed. A superset of the disc's
  /// entries: callers apply their own exact predicate. fn(id, pos).
  template <typename Fn>
  void for_each_candidate(geometry::Vec2 p, double r, Fn&& fn) const {
    const auto [lo_x, lo_y] = cell_coords({p.x - r, p.y - r});
    const auto [hi_x, hi_y] = cell_coords({p.x + r, p.y + r});
    const std::size_t x0 = lo_x > 0 ? lo_x - 1 : 0;
    const std::size_t y0 = lo_y > 0 ? lo_y - 1 : 0;
    const std::size_t x1 = std::min(cols_ - 1, hi_x + 1);
    const std::size_t y1 = std::min(rows_ - 1, hi_y + 1);
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) {
        for (const Entry& e : cells_[cy * cols_ + cx]) fn(e.id, e.pos);
      }
    }
  }

 private:
  [[nodiscard]] std::pair<std::size_t, std::size_t> cell_coords(
      geometry::Vec2 p) const noexcept {
    // Out-of-bounds points land in the border cells (clamp before the cast:
    // a negative double to unsigned cast is UB).
    const double fx = std::floor((p.x - bounds_.min.x) / cell_);
    const double fy = std::floor((p.y - bounds_.min.y) / cell_);
    const auto clamp_to = [](double f, std::size_t n) {
      if (!(f > 0.0)) return std::size_t{0};
      const auto i = static_cast<std::size_t>(f);
      return std::min(i, n - 1);
    };
    return {clamp_to(fx, cols_), clamp_to(fy, rows_)};
  }

  [[nodiscard]] std::size_t cell_index(geometry::Vec2 p) const noexcept {
    const auto [cx, cy] = cell_coords(p);
    return cy * cols_ + cx;
  }

  void erase_from_cell(Id id, geometry::Vec2 pos) {
    auto& cell = cells_[cell_index(pos)];
    for (auto it = cell.begin(); it != cell.end(); ++it) {
      if (it->id == id) {
        cell.erase(it);  // preserves the insertion order of the rest
        return;
      }
    }
  }

  template <typename Filter, typename KeyFn>
  [[nodiscard]] std::optional<Id> nearest_impl(geometry::Vec2 p, Filter& accept,
                                               KeyFn key) const {
    if (positions_.empty()) return std::nullopt;
    const auto [cx, cy] = cell_coords(p);
    bool found = false;
    Id best{};
    double best_key = std::numeric_limits<double>::infinity();
    double best_d2 = std::numeric_limits<double>::infinity();
    const auto consider = [&](const Entry& e) {
      if (!accept(e.id)) return;
      const double d2 = geometry::distance2(e.pos, p);
      // Clear losers skip the key transform: fl(sqrt) halves relative ulp
      // spacing, so it can only merge two keys whose squared distances are
      // within ~4.6e-16 relative — far inside this guard. Anything beyond
      // it is strictly farther under either key and can neither win the
      // comparison nor reach the id tie-break.
      if (found && d2 > best_d2 * (1.0 + 1e-14)) return;
      const double k = key(d2);
      if (!found || k < best_key || (k == best_key && e.id < best)) {
        found = true;
        best = e.id;
        best_key = k;
        best_d2 = d2;
      }
    };
    // Expanding Chebyshev ring search. Any entry in a ring-r cell is at true
    // distance >= (r-1)*cell from p — an exact geometric bound (p can sit
    // anywhere inside its own cell). The termination compares against that
    // bound with a two-sided 1e-9 relative margin, which towers over every
    // floating-point hazard (distance2 rounds within a few ulps ~ 2e-16
    // relative, and fl(sqrt) can only merge keys whose squared distances
    // are within ~4e-16 relative): once the deflated bound exceeds the
    // inflated best, every unvisited entry is *strictly* farther under
    // either key, so it can neither win nor tie.
    // Rings 0 and 1 are fused into one clamped 3x3 block sweep — the common
    // case resolves next door, and the result is visit-order independent
    // (strict key comparison with the id tie-break).
    const std::size_t bx0 = cx > 0 ? cx - 1 : 0;
    const std::size_t bx1 = std::min(cols_ - 1, cx + 1);
    const std::size_t by0 = cy > 0 ? cy - 1 : 0;
    const std::size_t by1 = std::min(rows_ - 1, cy + 1);
    for (std::size_t y = by0; y <= by1; ++y) {
      for (std::size_t x = bx0; x <= bx1; ++x) {
        for (const Entry& e : cells_[y * cols_ + x]) consider(e);
      }
    }
    const std::size_t max_ring =
        std::max(std::max(cx, cols_ - 1 - cx), std::max(cy, rows_ - 1 - cy));
    for (std::size_t ring = 2; ring <= max_ring; ++ring) {
      if (found) {
        const double ring_floor =
            (static_cast<double>(ring) - 1.0) * cell_ * (1.0 - 1e-9);
        if (ring_floor * ring_floor > best_d2 * (1.0 + 1e-9)) break;
      }
      visit_ring(cx, cy, ring, consider);
    }
    if (!found) return std::nullopt;
    return best;
  }

  template <typename Fn>
  void visit_ring(std::size_t cx, std::size_t cy, std::size_t ring, Fn& fn) const {
    const auto visit_cell = [&](std::size_t x, std::size_t y) {
      for (const Entry& e : cells_[y * cols_ + x]) fn(e);
    };
    if (ring == 0) {
      visit_cell(cx, cy);
      return;
    }
    const std::size_t x0 = cx >= ring ? cx - ring : 0;
    const std::size_t x1 = std::min(cols_ - 1, cx + ring);
    const std::size_t y0 = cy >= ring ? cy - ring : 0;
    const std::size_t y1 = std::min(rows_ - 1, cy + ring);
    const bool top = cy >= ring;           // row y0 really is the ring's top
    const bool bottom = cy + ring <= rows_ - 1;
    const bool left = cx >= ring;
    const bool right = cx + ring <= cols_ - 1;
    if (top) {
      for (std::size_t x = x0; x <= x1; ++x) visit_cell(x, y0);
    }
    if (bottom) {
      for (std::size_t x = x0; x <= x1; ++x) visit_cell(x, y1);
    }
    const std::size_t ry0 = top ? y0 + 1 : y0;
    const std::size_t ry1 = bottom ? y1 - 1 : y1;
    if (ry0 <= ry1 && ry1 != std::numeric_limits<std::size_t>::max()) {
      if (left) {
        for (std::size_t y = ry0; y <= ry1; ++y) visit_cell(x0, y);
      }
      if (right) {
        for (std::size_t y = ry0; y <= ry1; ++y) visit_cell(x1, y);
      }
    }
  }

  geometry::Rect bounds_;
  double cell_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<Entry>> cells_;
  std::unordered_map<Id, geometry::Vec2> positions_;
};

}  // namespace sensrep::spatial
