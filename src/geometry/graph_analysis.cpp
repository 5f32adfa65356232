#include "geometry/graph_analysis.hpp"

#include <algorithm>
#include <stack>
#include <stdexcept>

#include "spatial/uniform_grid.hpp"

namespace sensrep::geometry {

UnitDiskGraph::UnitDiskGraph(const std::vector<Vec2>& points, double radius) {
  if (radius <= 0.0) throw std::invalid_argument("UnitDiskGraph: radius must be positive");
  adjacency_.resize(points.size());
  spatial::UniformGrid2D<std::uint32_t> index(Rect::bounding(points), radius);
  for (std::uint32_t i = 0; i < points.size(); ++i) index.insert(i, points[i]);
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    for (const std::uint32_t j : index.within_radius(points[i], radius)) {
      if (j == i) continue;
      adjacency_[i].push_back(j);
      if (j > i) ++edges_;
    }
  }
}

UnitDiskGraph::Components UnitDiskGraph::connected_components() const {
  Components out;
  out.id.assign(size(), SIZE_MAX);
  for (std::size_t start = 0; start < size(); ++start) {
    if (out.id[start] != SIZE_MAX) continue;
    // Iterative DFS flood fill.
    std::stack<std::size_t> stack;
    stack.push(start);
    out.id[start] = out.count;
    while (!stack.empty()) {
      const std::size_t v = stack.top();
      stack.pop();
      for (const std::size_t w : adjacency_[v]) {
        if (out.id[w] == SIZE_MAX) {
          out.id[w] = out.count;
          stack.push(w);
        }
      }
    }
    ++out.count;
  }
  return out;
}

std::vector<std::size_t> UnitDiskGraph::articulation_points() const {
  // Tarjan's low-link algorithm, made iterative so large fields do not
  // overflow the stack.
  const std::size_t n = size();
  std::vector<std::size_t> disc(n, SIZE_MAX), low(n, 0), parent(n, SIZE_MAX);
  std::vector<std::size_t> child_count(n, 0);
  std::vector<bool> is_articulation(n, false);
  std::size_t timer = 0;

  struct Frame {
    std::size_t v;
    std::size_t edge_index;
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != SIZE_MAX) continue;
    std::vector<Frame> stack{{root, 0}};
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::size_t v = frame.v;
      if (frame.edge_index < adjacency_[v].size()) {
        const std::size_t w = adjacency_[v][frame.edge_index++];
        if (disc[w] == SIZE_MAX) {
          parent[w] = v;
          ++child_count[v];
          disc[w] = low[w] = timer++;
          stack.push_back({w, 0});
        } else if (w != parent[v]) {
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        stack.pop_back();
        const std::size_t p = parent[v];
        if (p != SIZE_MAX) {
          low[p] = std::min(low[p], low[v]);
          if (p != root && low[v] >= disc[p]) is_articulation[p] = true;
        }
      }
    }
    if (child_count[root] >= 2) is_articulation[root] = true;
  }

  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < n; ++v) {
    if (is_articulation[v]) out.push_back(v);
  }
  return out;
}

std::size_t UnitDiskGraph::largest_component_without(std::size_t v) const {
  if (v >= size()) throw std::out_of_range("UnitDiskGraph::largest_component_without");
  std::vector<std::size_t> comp_size;
  std::vector<bool> seen(size(), false);
  seen[v] = true;  // removed
  for (std::size_t start = 0; start < size(); ++start) {
    if (seen[start]) continue;
    std::size_t count = 0;
    std::stack<std::size_t> stack;
    stack.push(start);
    seen[start] = true;
    while (!stack.empty()) {
      const std::size_t u = stack.top();
      stack.pop();
      ++count;
      for (const std::size_t w : adjacency_[u]) {
        if (!seen[w]) {
          seen[w] = true;
          stack.push(w);
        }
      }
    }
    comp_size.push_back(count);
  }
  return comp_size.empty() ? 0 : *std::max_element(comp_size.begin(), comp_size.end());
}

double UnitDiskGraph::mean_degree() const noexcept {
  if (adjacency_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edges_) / static_cast<double>(adjacency_.size());
}

}  // namespace sensrep::geometry
