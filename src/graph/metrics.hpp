#pragma once
/// \file metrics.hpp
/// Measurement of the three spanner properties the paper guarantees —
/// stretch (Theorem 10), degree (Theorem 11), weight (Theorem 13) — plus the
/// §1.6 power-cost measure, the (t2,t)-leapfrog property that drives the
/// weight proof, and a doubling-dimension estimator for the derived graphs
/// of Lemmas 15 and 20.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <ranges>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"

namespace localspan::graph {

/// The vertices a witness pass covers: every vertex when `vertices` is
/// empty, else the edges with an endpoint in `vertices`. `member` is the
/// caller's flag array over all vertex ids, nonzero exactly on `vertices`,
/// so the per-edge scope test is O(1) and allocates nothing.
struct WitnessScope {
  std::span<const int> vertices;
  std::span<const char> member;

  [[nodiscard]] bool full() const noexcept { return vertices.empty(); }
  [[nodiscard]] bool contains(int v) const {
    return full() || member[static_cast<std::size_t>(v)] != 0;
  }
};

struct WitnessPass {
  /// Max over the checked edges of sp_sub(u,v) / weight(w(u,v)), at least
  /// 1; kInf when an endpoint lies past the final search radius.
  double worst = 1.0;
  std::int64_t widened = 0;  ///< vertices whose probe missed an endpoint.
};

/// The one per-edge witness stretch search; max_edge_stretch and
/// core::certify run it. Checks each edge of `g` in `scope` once: via its
/// smaller endpoint when both ends are scoped, else via the scoped one.
/// Vertex u searches `sub` within probe·w_max(u), w_max(u) its heaviest
/// checked edge, and stops as soon as the endpoints of its checked edges
/// have settled (`bounded_to_all`). Only when one lies past that radius and
/// cap > probe does it search again within cap·w_max(u). A settled distance
/// is the same double at any radius that contains it and whenever the
/// search stops, so the ratios are those of a full cap search alone.
/// `weight` maps g's edge weights into the units of `sub` (a Graph or a
/// CsrView).
///
/// The vertices run on `pool`'s workers when it has several, else on `ws`.
/// Max and sum are exact in any order, so the pass is bit-identical at
/// every thread count; it allocates nothing once the workspaces are warm.
template <class Sub, class Weight = IdentityWeight>
[[nodiscard]] WitnessPass witness_stretch(const Graph& g, const Sub& sub,
                                          const WitnessScope& scope, double probe, double cap,
                                          DijkstraWorkspace& ws, runtime::WorkerPool* pool,
                                          Weight weight = {}) {
  std::atomic<double> worst{1.0};
  std::atomic<std::int64_t> widened{0};
  const int count = scope.full() ? g.n() : static_cast<int>(scope.vertices.size());
  runtime::for_each_with_workspace(pool, ws, 0, count, [&](DijkstraWorkspace& vws, int i) {
    const int u = scope.full() ? i : scope.vertices[static_cast<std::size_t>(i)];
    const auto checked = [&](int v) { return v > u || !scope.contains(v); };
    double w_max = 0.0;
    for (const Neighbor& nb : g.neighbors(u)) {
      if (checked(nb.to)) w_max = std::max(w_max, weight(nb.w));
    }
    if (w_max == 0.0) return;
    // Not const: a filter view caches its first match on begin().
    auto targets = g.neighbors(u) |
                   std::views::filter([&](const Neighbor& nb) { return checked(nb.to); }) |
                   std::views::transform(&Neighbor::to);
    const auto worst_within = [&](double radius) {
      const SpView sp = vws.bounded_to_all(sub, u, targets, radius * w_max);
      double r = 1.0;
      for (const Neighbor& nb : g.neighbors(u)) {
        if (checked(nb.to)) r = std::max(r, sp.dist(nb.to) / weight(nb.w));
      }
      return r;
    };
    double r = worst_within(probe);
    if (r == kInf && cap > probe) {
      widened.fetch_add(1, std::memory_order_relaxed);
      r = worst_within(cap);
    }
    double seen = worst.load(std::memory_order_relaxed);
    while (r > seen && !worst.compare_exchange_weak(seen, r, std::memory_order_relaxed)) {
    }
  });
  return {worst.load(std::memory_order_relaxed), widened.load(std::memory_order_relaxed)};
}

/// Max over edges {u,v} of g of sp_sub(u,v)/w(u,v), with per-edge ratios
/// clamped at `cap` (a ratio reported as `cap` means "at least cap", which is
/// all a bounded-stretch validation needs). For subgraphs of g this equals
/// the classical spanner stretch factor: sp_sub(u,v) <= t·sp_g(u,v) for all
/// pairs iff it holds for all edges of g.
///
/// witness_stretch over every vertex u, probing within 2·w_max(u) and
/// widening to cap·w_max(u). An unsettled endpoint has ratio > 2, so
/// spanners with t <= 2 never widen, and vertex u's search stops once its
/// checked neighbours settle: it costs at most O(|B| log |B|), B =
/// ball_sub(u, 2·w_max(u)), not a near all-pairs cap·w_max ball. The obs
/// counters `stretch.vertices`, `stretch.widened` and `stretch.heap_pops`
/// count the vertices measured, those that widened and the heap pops of
/// the pass.
///
/// A `pool` splits the vertices over its workers, bit-identically; null
/// measures serially.
[[nodiscard]] double max_edge_stretch(const Graph& g, const Graph& sub, double cap = 64.0,
                                      runtime::WorkerPool* pool = nullptr);

/// 0-based index of the q-quantile entry among `count` ascending-sorted
/// samples: min(count-1, ceil(q*count)-1), never below 0. Computed in
/// 64-bit end-to-end — the count*q products of 1e5-scale sweeps (samples ×
/// pairs) overflow 32-bit arithmetic. Returns -1 for count <= 0.
[[nodiscard]] std::int64_t quantile_index(std::int64_t count, double q);

/// Degree distribution summary.
struct DegreeStats {
  int max = 0;
  double mean = 0.0;
  int p99 = 0;
};

[[nodiscard]] DegreeStats degree_stats(const Graph& g);

/// w(sub) / w(MSF(g)) — the lightness ratio of Theorem 13 (>= 1 for any
/// spanning subgraph; O(1) is the guarantee).
[[nodiscard]] double lightness(const Graph& g, const Graph& sub);

/// Power cost of §1.6: sum over vertices of the heaviest incident edge
/// (transmission power needed to reach the farthest chosen neighbor).
/// Isolated vertices contribute zero.
[[nodiscard]] double power_cost(const Graph& g);

/// Sampled check of the (t2,t)-leapfrog property (paper eq. (6), Fig 4b) on
/// the edge set of `sub` embedded via `pts_dist(u,v)` = Euclidean distance.
/// Draws `trials` random subsets S (2 <= |S| <= 6) of edges and counts
/// violations of
///   t2·|u1v1| < Σ_{i>=2} |u_i v_i| + t·(Σ |v_i u_{i+1}| + |v_s u_1|)
/// where {u1,v1} is the longest edge of S. Returns the violation count.
/// Trial and violation counts are 64-bit end-to-end (32-bit counters wrap
/// at n=1e5-scale sweep budgets).
[[nodiscard]] std::int64_t leapfrog_violations(
    const Graph& sub, const std::function<double(int, int)>& pts_dist, double t2, double t,
    std::int64_t trials, std::uint64_t seed);

/// Greedy estimate of the doubling dimension of a finite metric given by a
/// symmetric distance matrix: log2 of the max, over sampled balls B(x,R), of
/// the number of (R/2)-balls a greedy cover needs. Lemmas 15/20 predict an
/// O(1) result for the derived conflict graphs J.
[[nodiscard]] double doubling_dimension_estimate(const std::vector<std::vector<double>>& dist,
                                                 int ball_samples, std::uint64_t seed);

}  // namespace localspan::graph
