#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace localspan::graph {

Graph::Graph(int n) {
  if (n < 0) throw std::invalid_argument("Graph: negative vertex count");
  adj_.resize(static_cast<std::size_t>(n));
}

int Graph::add_vertex() {
  adj_.emplace_back();
  return n() - 1;
}

void Graph::check_vertex(int u) const {
  if (u < 0 || u >= n()) throw std::invalid_argument("Graph: vertex out of range");
}

bool Graph::add_edge(int u, int v, double w) {
  check_vertex(u);
  check_vertex(v);
  if (u == v) throw std::invalid_argument("Graph: self-loops are not allowed");
  if (!(w > 0.0)) throw std::invalid_argument("Graph: edge weight must be positive");
  if (has_edge(u, v)) return false;
  adj_[static_cast<std::size_t>(u)].push_back({v, w});
  adj_[static_cast<std::size_t>(v)].push_back({u, w});
  ++m_;
  total_weight_ += w;
  return true;
}

bool Graph::remove_edge(int u, int v) {
  check_vertex(u);
  check_vertex(v);
  auto& au = adj_[static_cast<std::size_t>(u)];
  auto it = std::find_if(au.begin(), au.end(), [v](const Neighbor& nb) { return nb.to == v; });
  if (it == au.end()) return false;
  const double w = it->w;
  au.erase(it);
  auto& av = adj_[static_cast<std::size_t>(v)];
  av.erase(std::find_if(av.begin(), av.end(), [u](const Neighbor& nb) { return nb.to == u; }));
  --m_;
  total_weight_ -= w;
  return true;
}

bool Graph::has_edge(int u, int v) const {
  check_vertex(u);
  check_vertex(v);
  const auto& au = adj_[static_cast<std::size_t>(u)];
  return std::any_of(au.begin(), au.end(), [v](const Neighbor& nb) { return nb.to == v; });
}

double Graph::edge_weight(int u, int v) const {
  check_vertex(u);
  check_vertex(v);
  for (const Neighbor& nb : adj_[static_cast<std::size_t>(u)]) {
    if (nb.to == v) return nb.w;
  }
  throw std::invalid_argument("Graph::edge_weight: no such edge");
}

std::span<const Neighbor> Graph::neighbors(int u) const {
  check_vertex(u);
  return adj_[static_cast<std::size_t>(u)];
}

int Graph::degree(int u) const {
  check_vertex(u);
  return static_cast<int>(adj_[static_cast<std::size_t>(u)].size());
}

int Graph::max_degree() const noexcept {
  int d = 0;
  for (const auto& a : adj_) d = std::max(d, static_cast<int>(a.size()));
  return d;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(m_));
  // Rows come out in u order, so sorting each row by v sorts the list.
  for (int u = 0; u < n(); ++u) {
    const auto row = static_cast<std::ptrdiff_t>(out.size());
    for (const Neighbor& nb : adj_[static_cast<std::size_t>(u)]) {
      if (u < nb.to) out.push_back({u, nb.to, nb.w});
    }
    std::sort(out.begin() + row, out.end(), [](const Edge& a, const Edge& b) { return a.v < b.v; });
  }
  return out;
}

bool Graph::operator==(const Graph& o) const { return n() == o.n() && edges() == o.edges(); }

}  // namespace localspan::graph
