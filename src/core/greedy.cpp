#include "core/greedy.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/sp_workspace.hpp"

namespace localspan::core {

graph::Graph seq_greedy(const graph::Graph& g, double t) {
  if (!(t >= 1.0)) throw std::invalid_argument("seq_greedy: t must be >= 1");
  std::vector<graph::Edge> es = g.edges();
  std::sort(es.begin(), es.end(), [](const graph::Edge& a, const graph::Edge& b) {
    if (a.w != b.w) return a.w < b.w;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  graph::Graph out(g.n());
  graph::DijkstraWorkspace ws(g.n());  // one workspace across all m queries
  for (const graph::Edge& e : es) {
    const double bound = t * e.w;
    if (ws.distance(out, e.u, e.v, bound) > bound) out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

std::vector<graph::Edge> seq_greedy_clique(const std::vector<int>& members,
                                           const std::function<double(int, int)>& weight,
                                           double t) {
  if (!(t >= 1.0)) throw std::invalid_argument("seq_greedy_clique: t must be >= 1");
  const int k = static_cast<int>(members.size());
  graph::Graph local(k);
  // Local clique in member-index space.
  struct LocalEdge {
    int a, b;
    double w;
  };
  std::vector<LocalEdge> es;
  es.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(k - 1) / 2);
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      es.push_back({a, b, weight(members[static_cast<std::size_t>(a)],
                                 members[static_cast<std::size_t>(b)])});
    }
  }
  std::sort(es.begin(), es.end(), [](const LocalEdge& x, const LocalEdge& y) {
    if (x.w != y.w) return x.w < y.w;
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  std::vector<graph::Edge> chosen;
  graph::DijkstraWorkspace ws(k);
  for (const LocalEdge& e : es) {
    const double bound = t * e.w;
    if (ws.distance(local, e.a, e.b, bound) > bound) {
      local.add_edge(e.a, e.b, e.w);
      const int gu = members[static_cast<std::size_t>(e.a)];
      const int gv = members[static_cast<std::size_t>(e.b)];
      chosen.push_back({std::min(gu, gv), std::max(gu, gv), e.w});
    }
  }
  return chosen;
}

}  // namespace localspan::core
