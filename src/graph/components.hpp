#pragma once
/// \file components.hpp
/// Connected components. Phase 0 of the relaxed greedy algorithm partitions
/// G_0 = G[E_0] into components (each of which induces a clique of G by
/// Lemma 1) and spans each one independently with SEQ-GREEDY.

#include <vector>

#include "graph/graph.hpp"

namespace localspan::graph {

/// Labeling of each vertex with a component id in [0, count).
struct Components {
  std::vector<int> label;
  int count = 0;

  /// Vertices of each component, grouped (index = component id).
  [[nodiscard]] std::vector<std::vector<int>> groups() const;
};

/// Label components by DFS; `G` is a Graph or any type with n()/neighbors()
/// (the frozen CsrView the routing harness labels).
template <class G>
[[nodiscard]] Components connected_components(const G& g) {
  Components c;
  c.label.assign(static_cast<std::size_t>(g.n()), -1);
  std::vector<int> stack;
  for (int s = 0; s < g.n(); ++s) {
    if (c.label[static_cast<std::size_t>(s)] != -1) continue;
    const int id = c.count++;
    stack.push_back(s);
    c.label[static_cast<std::size_t>(s)] = id;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const Neighbor& nb : g.neighbors(v)) {
        if (c.label[static_cast<std::size_t>(nb.to)] == -1) {
          c.label[static_cast<std::size_t>(nb.to)] = id;
          stack.push_back(nb.to);
        }
      }
    }
  }
  return c;
}

/// True iff u and v are in the same component of g.
[[nodiscard]] bool connected(const Graph& g, int u, int v);

}  // namespace localspan::graph
