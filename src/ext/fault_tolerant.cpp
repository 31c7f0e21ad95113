#include "ext/fault_tolerant.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"

namespace localspan::ext {

namespace {

/// Count pairwise edge-disjoint uv-paths of length <= bound in g, by greedy
/// peeling: repeatedly find a shortest bounded path, count it, delete its
/// edges. Stops at `needed`. `ws` is shared across all peels (and, by the
/// builders below, across all candidate edges).
int disjoint_bounded_paths(graph::DijkstraWorkspace& ws, graph::Graph g, int u, int v,
                           double bound, int needed) {
  int found = 0;
  while (found < needed) {
    const graph::SpView sp = ws.bounded_to(g, u, v, bound);
    if (sp.dist(v) > bound) break;
    ++found;
    for (int cur = v; sp.parent(cur) != -1;) {
      const int prev = sp.parent(cur);
      g.remove_edge(prev, cur);
      cur = prev;
    }
  }
  return found;
}

/// Count internally vertex-disjoint uv-paths of length <= bound, greedily:
/// find a shortest bounded path, count it, delete its interior vertices.
int disjoint_bounded_vertex_paths(graph::DijkstraWorkspace& ws, graph::Graph g, int u, int v,
                                  double bound, int needed) {
  int found = 0;
  while (found < needed) {
    const graph::SpView sp = ws.bounded_to(g, u, v, bound);
    if (sp.dist(v) > bound) break;
    ++found;
    // Collect the interior, then cut those vertices out of the working copy.
    std::vector<int> interior;
    for (int cur = sp.parent(v); cur != -1 && cur != u; cur = sp.parent(cur)) {
      interior.push_back(cur);
    }
    if (interior.empty()) {
      // The direct edge: remove it so the next peel finds another route.
      g.remove_edge(u, v);
      continue;
    }
    for (int w : interior) {
      std::vector<int> nbrs;
      for (const graph::Neighbor& nb : g.neighbors(w)) nbrs.push_back(nb.to);
      for (int to : nbrs) g.remove_edge(w, to);
    }
  }
  return found;
}

/// Shared driver for both greedy variants. `has_enough(ws, out, e)` answers
/// "does `out` already hold k+1 sufficiently short disjoint uv-paths?" — a
/// pure function of the output snapshot it is handed.
///
/// The sorted edges go in waves. A wave's checks run against the output as
/// it stands and are committed in edge order up to and including the first
/// edge that must be *added*: the checks after it saw a stale output (the
/// greedy peel count is not monotone under edge insertion in either
/// direction), so the wave ends there and the next one re-checks from the
/// following edge. Streamed (no pool, or a team of one) those stale checks
/// are skipped, so every edge is checked once, as in the serial greedy; on
/// several workers the wave's checks speculate on one snapshot. Consumed
/// decisions therefore always saw exactly the serial algorithm's output
/// state — the result is bit-identical at every thread count. The wave size
/// adapts: skip-only waves widen the window (the common regime once the
/// output is dense enough), an add shrinks it back toward one chunk per
/// worker to bound the speculation waste.
template <class HasEnough>
graph::Graph ft_greedy_drive(const graph::Graph& g, runtime::WorkerPool* pool,
                             const HasEnough& has_enough) {
  std::vector<graph::Edge> es = g.edges();
  std::sort(es.begin(), es.end(), [](const graph::Edge& a, const graph::Edge& b) {
    if (a.w != b.w) return a.w < b.w;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  graph::Graph out(g.n());
  graph::DijkstraWorkspace ws(g.n());
  const int team = pool != nullptr ? pool->threads() : 1;
  const int m = static_cast<int>(es.size());
  int wave_cap = team;
  const int wave_max = 16 * team;
  int idx = 0;
  while (idx < m) {
    const int wave = std::min(wave_cap, m - idx);
    int consumed = 0;
    bool added = false;
    runtime::harvest_commit<char>(
        pool, ws, wave,
        [&](graph::DijkstraWorkspace& cws, int, int i, char& enough) {
          if (!added) enough = has_enough(cws, out, es[static_cast<std::size_t>(idx + i)]);
        },
        [&](int i, char enough) {
          if (added) return;  // checked a snapshot the wave's add changed
          ++consumed;
          if (!enough) {
            const graph::Edge& e = es[static_cast<std::size_t>(idx + i)];
            out.add_edge(e.u, e.v, e.w);
            added = true;
          }
        });
    idx += consumed;
    wave_cap = added ? std::max(team, wave_cap / 2) : std::min(wave_cap * 2, wave_max);
  }
  return out;
}

}  // namespace

graph::Graph fault_tolerant_greedy_vertex(const graph::Graph& g, double t, int k,
                                          runtime::WorkerPool* pool) {
  if (!(t >= 1.0)) throw std::invalid_argument("fault_tolerant_greedy_vertex: t must be >= 1");
  if (k < 0) throw std::invalid_argument("fault_tolerant_greedy_vertex: k must be >= 0");
  return ft_greedy_drive(g, pool,
                         [&](graph::DijkstraWorkspace& ws, const graph::Graph& out,
                             const graph::Edge& e) {
                           return disjoint_bounded_vertex_paths(ws, out, e.u, e.v, t * e.w,
                                                                k + 1) >= k + 1;
                         });
}

graph::Graph fault_tolerant_greedy(const graph::Graph& g, double t, int k,
                                   runtime::WorkerPool* pool) {
  if (!(t >= 1.0)) throw std::invalid_argument("fault_tolerant_greedy: t must be >= 1");
  if (k < 0) throw std::invalid_argument("fault_tolerant_greedy: k must be >= 0");
  return ft_greedy_drive(g, pool,
                         [&](graph::DijkstraWorkspace& ws, const graph::Graph& out,
                             const graph::Edge& e) {
                           return disjoint_bounded_paths(ws, out, e.u, e.v, t * e.w, k + 1) >=
                                  k + 1;
                         });
}

graph::Graph inject_edge_faults(const graph::Graph& g, int faults, std::uint64_t seed,
                                std::vector<graph::Edge>* removed) {
  if (faults < 0) throw std::invalid_argument("inject_edge_faults: negative fault count");
  graph::Graph out = g;
  std::vector<graph::Edge> es = g.edges();
  std::mt19937_64 rng(seed);
  std::shuffle(es.begin(), es.end(), rng);
  const int kill = std::min<int>(faults, static_cast<int>(es.size()));
  if (removed != nullptr) removed->clear();
  for (int i = 0; i < kill; ++i) {
    out.remove_edge(es[static_cast<std::size_t>(i)].u, es[static_cast<std::size_t>(i)].v);
    if (removed != nullptr) removed->push_back(es[static_cast<std::size_t>(i)]);
  }
  return out;
}

graph::Graph inject_vertex_faults(const graph::Graph& g, int faults, std::uint64_t seed,
                                  std::vector<int>* removed_vertices) {
  if (faults < 0) throw std::invalid_argument("inject_vertex_faults: negative fault count");
  graph::Graph out = g;
  std::vector<int> ids(static_cast<std::size_t>(g.n()));
  for (int i = 0; i < g.n(); ++i) ids[static_cast<std::size_t>(i)] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng);
  const int kill = std::min<int>(faults, g.n());
  if (removed_vertices != nullptr) removed_vertices->clear();
  for (int i = 0; i < kill; ++i) {
    const int victim = ids[static_cast<std::size_t>(i)];
    // Copy the neighbor list: remove_edge mutates adjacency under iteration.
    std::vector<int> nbrs;
    for (const graph::Neighbor& nb : out.neighbors(victim)) nbrs.push_back(nb.to);
    for (int to : nbrs) out.remove_edge(victim, to);
    if (removed_vertices != nullptr) removed_vertices->push_back(victim);
  }
  return out;
}

}  // namespace localspan::ext
