#include "geometry/coverage.hpp"

#include <algorithm>
#include <stack>
#include <stdexcept>

#include "spatial/uniform_grid.hpp"

namespace sensrep::geometry {

CoverageReport analyze_coverage(const std::vector<Vec2>& sensors, const Rect& area,
                                double sensing_radius, std::size_t k,
                                std::size_t grid_side) {
  if (sensing_radius <= 0.0) {
    throw std::invalid_argument("analyze_coverage: sensing_radius must be positive");
  }
  if (k < 1) throw std::invalid_argument("analyze_coverage: k must be >= 1");
  if (grid_side < 2) throw std::invalid_argument("analyze_coverage: grid_side must be >= 2");

  // Sensors outside `area` clamp into the border cells; distances use their
  // true positions.
  spatial::UniformGrid2D<std::uint32_t> index(area, sensing_radius);
  for (std::uint32_t i = 0; i < sensors.size(); ++i) index.insert(i, sensors[i]);

  const double dx = area.width() / static_cast<double>(grid_side);
  const double dy = area.height() / static_cast<double>(grid_side);
  const double cell_area = dx * dy;

  // Degree of coverage per grid sample.
  std::vector<std::size_t> degree(grid_side * grid_side, 0);
  std::size_t covered = 0;
  std::size_t k_covered = 0;
  for (std::size_t gy = 0; gy < grid_side; ++gy) {
    for (std::size_t gx = 0; gx < grid_side; ++gx) {
      const Vec2 p{area.min.x + (static_cast<double>(gx) + 0.5) * dx,
                   area.min.y + (static_cast<double>(gy) + 0.5) * dy};
      const std::size_t deg = index.within_radius(p, sensing_radius).size();
      degree[gy * grid_side + gx] = deg;
      if (deg >= 1) ++covered;
      if (deg >= k) ++k_covered;
    }
  }

  CoverageReport report;
  const auto total = static_cast<double>(grid_side * grid_side);
  report.covered_fraction = static_cast<double>(covered) / total;
  report.k_covered_fraction = static_cast<double>(k_covered) / total;
  report.total_hole_area =
      static_cast<double>(grid_side * grid_side - covered) * cell_area;

  // Holes: 4-connected components of uncovered samples.
  std::vector<bool> seen(grid_side * grid_side, false);
  for (std::size_t start = 0; start < degree.size(); ++start) {
    if (degree[start] > 0 || seen[start]) continue;
    ++report.hole_count;
    std::size_t cells = 0;
    std::stack<std::size_t> stack;
    stack.push(start);
    seen[start] = true;
    while (!stack.empty()) {
      const std::size_t cur = stack.top();
      stack.pop();
      ++cells;
      const std::size_t gx = cur % grid_side;
      const std::size_t gy = cur / grid_side;
      const auto visit = [&](std::size_t nx, std::size_t ny) {
        const std::size_t idx = ny * grid_side + nx;
        if (!seen[idx] && degree[idx] == 0) {
          seen[idx] = true;
          stack.push(idx);
        }
      };
      if (gx > 0) visit(gx - 1, gy);
      if (gx + 1 < grid_side) visit(gx + 1, gy);
      if (gy > 0) visit(gx, gy - 1);
      if (gy + 1 < grid_side) visit(gx, gy + 1);
    }
    report.largest_hole_area =
        std::max(report.largest_hole_area, static_cast<double>(cells) * cell_area);
  }
  return report;
}

}  // namespace sensrep::geometry
