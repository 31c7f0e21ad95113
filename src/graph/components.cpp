#include "graph/components.hpp"

namespace localspan::graph {

std::vector<std::vector<int>> Components::groups() const {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(count));
  for (int v = 0; v < static_cast<int>(label.size()); ++v) {
    out[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])].push_back(v);
  }
  return out;
}

bool connected(const Graph& g, int u, int v) {
  const Components c = connected_components(g);
  return c.label[static_cast<std::size_t>(u)] == c.label[static_cast<std::size_t>(v)];
}

}  // namespace localspan::graph
