#include "cluster_reference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace localspan::cluster {

bool is_valid_cover(const graph::Graph& gp, const ClusterCover& cover) {
  const int n = gp.n();
  graph::DijkstraWorkspace ws(n);
  if (static_cast<int>(cover.center_of.size()) != n) return false;
  for (int v = 0; v < n; ++v) {
    const int c = cover.center_of[static_cast<std::size_t>(v)];
    if (c < 0 || c >= n) return false;                          // coverage
    if (cover.center_of[static_cast<std::size_t>(c)] != c) return false;  // centers own themselves
    const double d = ws.distance(gp, c, v, cover.radius);
    if (d > cover.radius) return false;  // radius bound (also validates dist_to_center)
    if (std::abs(d - cover.dist_to_center[static_cast<std::size_t>(v)]) > 1e-9) return false;
  }
  for (int a : cover.centers) {
    for (int b : cover.centers) {
      if (a >= b) continue;
      if (ws.distance(gp, a, b, cover.radius) <= cover.radius) return false;  // separation
    }
  }
  return true;
}

ReferenceClusterGraph reference_cluster_graph(const graph::CsrView& gp, const ClusterCover& cover,
                                              double w_prev) {
  const int n = gp.n();
  ReferenceClusterGraph cg{graph::Graph(n)};
  graph::DijkstraWorkspace ws;

  // Intra-cluster edges: center to every (distinct) member.
  for (int v = 0; v < n; ++v) {
    const int a = cover.center_of[static_cast<std::size_t>(v)];
    if (a == v) continue;
    const double w = cover.dist_to_center[static_cast<std::size_t>(v)];
    if (cg.h.add_edge(a, v, std::max(w, 1e-15))) ++cg.intra_edges;
  }

  std::vector<std::vector<int>> members(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(cover.center_of[static_cast<std::size_t>(v)])].push_back(v);
  }
  std::vector<int> inter_degree(static_cast<std::size_t>(n), 0);
  const auto add_inter = [&](int a, int b, double d) {
    if (cg.h.add_edge(a, b, d)) {
      ++cg.inter_edges;
      ++inter_degree[static_cast<std::size_t>(a)];
      ++inter_degree[static_cast<std::size_t>(b)];
      cg.max_inter_weight = std::max(cg.max_inter_weight, d);
    }
  };
  struct Retry {
    int a, b;
    double bound;
  };
  std::vector<Retry> retries;
  // Inter-cluster edges: per center a, the centers b > a with
  // sp(a,b) <= W_{i-1}, then the clusters b > a a member edge crosses into.
  const double reach = (2.0 * cover.radius / w_prev + 1.0) * w_prev + 1e-12;
  for (int a : cover.centers) {
    const std::vector<int>& mine = members[static_cast<std::size_t>(a)];
    if (gp.neighbors(a).empty() && mine.size() == 1) continue;
    const graph::SpView sp = ws.bounded(gp, a, reach);
    for (int v : sp.touched()) {
      if (v <= a || cover.center_of[static_cast<std::size_t>(v)] != v) continue;
      if (sp.dist(v) <= w_prev) add_inter(a, v, sp.dist(v));
    }
    for (int u : mine) {
      for (const graph::Neighbor& nb : gp.neighbors(u)) {
        const int b = cover.center_of[static_cast<std::size_t>(nb.to)];
        if (b <= a || cg.h.has_edge(a, b)) continue;
        const double d = sp.dist(b);
        if (d == graph::kInf) {
          retries.push_back({a, b, 2.0 * cover.radius + nb.w + 1e-9});
        } else {
          add_inter(a, b, d);
        }
      }
    }
  }
  // Crossing edges past `reach` get one widened search each, in order.
  for (const Retry& r : retries) {
    if (cg.h.has_edge(r.a, r.b)) continue;
    const double d = ws.distance(gp, r.a, r.b, r.bound);
    if (d != graph::kInf) add_inter(r.a, r.b, d);
  }
  for (int d : inter_degree) cg.max_inter_degree = std::max(cg.max_inter_degree, d);
  cg.retries = static_cast<int>(retries.size());
  return cg;
}

std::string row_mismatch(const graph::CsrView& csr, const graph::Graph& g) {
  if (csr.n() != g.n()) {
    return "n " + std::to_string(csr.n()) + " vs " + std::to_string(g.n());
  }
  for (int u = 0; u < g.n(); ++u) {
    const std::span<const graph::Neighbor> got = csr.neighbors(u);
    const std::span<const graph::Neighbor> want = g.neighbors(u);
    const bool same = std::equal(
        got.begin(), got.end(), want.begin(), want.end(),
        [](const graph::Neighbor& x, const graph::Neighbor& y) {
          return x.to == y.to &&
                 std::bit_cast<std::uint64_t>(x.w) == std::bit_cast<std::uint64_t>(y.w);
        });
    if (!same) {
      return "row " + std::to_string(u) + ": " + std::to_string(got.size()) + " vs " +
             std::to_string(want.size()) + " entries, or an entry differs";
    }
  }
  return {};
}

}  // namespace localspan::cluster
