#pragma once
/// \file metrics.hpp
/// Measurement of the three spanner properties the paper guarantees —
/// stretch (Theorem 10), degree (Theorem 11), weight (Theorem 13) — plus the
/// §1.6 power-cost measure, the (t2,t)-leapfrog property that drives the
/// weight proof, and a doubling-dimension estimator for the derived graphs
/// of Lemmas 15 and 20.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::graph {

/// Max over edges {u,v} of g of sp_sub(u,v)/w(u,v), with per-edge ratios
/// clamped at `cap` (a ratio reported as `cap` means "at least cap", which is
/// all a bounded-stretch validation needs). For subgraphs of g this equals
/// the classical spanner stretch factor: sp_sub(u,v) <= t·sp_g(u,v) for all
/// pairs iff it holds for all edges of g.
///
/// Two radii per vertex u, with w_max(u) its heaviest incident edge in g:
/// a first bounded search in `sub` to 2·w_max(u), and a wide one to
/// cap·w_max(u) only when some edge {u,v}, v > u, has v unsettled by the
/// first. The result is exact, bit for bit the value of the wide search
/// alone: a settled distance is final and the same double at any radius
/// that contains it, and the first search settles every vertex at distance
/// <= its radius. An unsettled endpoint has ratio > 2, so the widening runs
/// only where an edge stretches past 2. Spanners with t <= 2 never widen,
/// so the pass costs O(|B| log |B|) per vertex u, B = ball_sub(u, 2·w_max(u)),
/// instead of the near all-pairs cost of cap·w_max balls; other
/// subgraphs (MSFs, faulted graphs) pay at most one extra short search per
/// vertex. The obs counters `stretch.vertices` and `stretch.widened` count
/// the vertices measured and those that needed the wide search.
///
/// `threads` > 1 splits the per-vertex searches over a worker pool (each
/// vertex's worst ratio is independent; max over doubles is exact under any
/// reduction order, so the result is bit-identical to the serial pass);
/// <= 0 uses the process default (LOCALSPAN_THREADS, else 1). A non-null
/// caller-owned `pool` overrides `threads` — repeated-measurement loops
/// reuse one pool instead of spawning threads per call.
[[nodiscard]] double max_edge_stretch(const Graph& g, const Graph& sub, double cap = 64.0,
                                      int threads = 0, runtime::WorkerPool* pool = nullptr);

/// Stretch over `samples` random vertex pairs (ratio of sp_sub to sp_g);
/// pairs disconnected in g are skipped. Cross-validates max_edge_stretch.
/// Samples are grouped by source vertex, so a source drawn k times costs
/// its two unbounded searches once, not k times (the drawn pair set is
/// identical either way). The sample count is 64-bit end-to-end: n=1e5-scale
/// sweeps ask for sample budgets that wrapped 32-bit counters.
/// `threads`/`pool` parallelize the per-source-group searches
/// (bit-identical; same semantics as max_edge_stretch).
[[nodiscard]] double sampled_pair_stretch(const Graph& g, const Graph& sub, std::int64_t samples,
                                          std::uint64_t seed, int threads = 0,
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
