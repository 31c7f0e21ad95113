#pragma once
/// \file relaxed_greedy.hpp
/// The sequential relaxed greedy algorithm (paper §2) — the paper's core
/// contribution, and the engine the distributed version (§3) drives.
///
/// Differences from classical SEQ-GREEDY that make it distributable:
///   * edges are processed bin-by-bin (BinSchema), in arbitrary order inside
///     a bin, with the spanner updated lazily once per bin;
///   * per-bin shortest-path queries are answered on the Das–Narasimhan
///     cluster graph H_{i-1} built from a δW_{i-1} cluster cover;
///   * θ-cone covered edges are filtered out (Lemma 3) and only one query
///     edge per cluster pair survives (minimizing t·|xy| − sp(a,x) − sp(b,y));
///   * mutually redundant added edges are thinned by an MIS pass (§2.2.5),
///     which restores the leapfrog property the weight proof needs.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/cover.hpp"
#include "core/bins.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "graph/soa_points.hpp"
#include "ubg/generator.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::core {

/// Per-phase trace: one row per processed bin, aggregating everything the
/// paper's lemmas bound (experiments E9 and E11 print these).
struct PhaseStats {
  int bin = 0;
  double w_lo = 0.0;  ///< W_{i-1} (0 for the phase-0 row).
  double w_hi = 0.0;  ///< W_i.
  int edges_in_bin = 0;
  int already_in_spanner = 0;
  int covered = 0;     ///< edges filtered by the θ-cone test.
  int candidates = 0;  ///< candidate query edges after filtering.
  int queries = 0;     ///< selected query edges (<=1 per cluster pair).
  int added = 0;       ///< edges whose H-query failed (added to G').
  int removed = 0;     ///< edges removed as mutually redundant.
  int clusters = 0;
  int max_query_edges_per_cluster = 0;  ///< Lemma 4 quantity.
  int max_inter_degree = 0;             ///< Lemma 6 quantity.
  double max_inter_weight = 0.0;        ///< Lemma 5 quantity (<= (2δ+1)W).
  int max_query_hops = 0;               ///< Lemma 8 quantity.
};

/// Knobs shared by the sequential and distributed drivers.
struct RelaxedGreedyOptions {
  /// Redundancy-removal pass on/off (ablation in E12; required for the
  /// Theorem 13 weight proof).
  bool redundancy_removal = true;

  /// θ-cone covered-edge filter on/off (ablation in E12; required for the
  /// Theorem 11 degree proof — without it every candidate edge is queried).
  bool covered_edge_filter = true;

  /// Strictly increasing map from Euclidean length to edge weight with
  /// transform(0+) -> 0; identity for the paper's main setting, c·len^γ for
  /// the §1.6 energy extension. Applied consistently to edge weights and to
  /// every length threshold compared against path weights.
  std::function<double(double)> weight_transform;  // null => identity

  /// Cap on clique size in phase 0 (guards O(k^4) SEQ-GREEDY blowup on
  /// adversarially dense inputs; components larger than this are spanned
  /// with SEQ-GREEDY over the component's UBG edges instead of its clique,
  /// which preserves the spanner property since the clique edges are a
  /// superset). Never triggered by the paper-style workloads.
  int phase0_clique_cap = 512;

  /// Optional caller-owned shortest-path workspace, reused for every bounded
  /// search the run performs (covers, cluster graphs, queries, redundancy
  /// balls). Long-lived engines that invoke relaxed_greedy repeatedly — the
  /// dynamic repair path above all — share one workspace across calls so the
  /// steady state stops allocating scratch. Null => a run-local workspace.
  /// Non-owning; must outlive every relaxed_greedy call it is passed to.
  graph::DijkstraWorkspace* workspace = nullptr;

  /// Optional borrowed worker pool (thread pool + per-worker workspaces)
  /// for the embarrassingly parallel passes (cover ball computation,
  /// cluster-graph center sweeps, covered-edge filtering, H-queries, §2.2.5
  /// redundancy endpoint balls); null runs them serially. The construction
  /// is **bit-identical** with and without one: parallel phases compute
  /// state-independent per-item results and all commits stay in the serial
  /// order (tests/test_parallel.cpp enforces this across the scenario
  /// matrix). Non-owning; must outlive every call.
  runtime::WorkerPool* worker_pool = nullptr;
};

/// Outcome of a (sequential or distributed) run.
struct RelaxedGreedyResult {
  graph::Graph spanner;
  Params params;
  std::vector<PhaseStats> phases;  ///< phase 0 first, then nonempty bins ascending.
  int phase0_components = 0;
  int nonempty_bins = 0;
  int total_bins = 0;  ///< m+1, including empty ones.
};

/// Run the sequential relaxed greedy algorithm of §2 on an α-UBG instance.
/// \throws std::invalid_argument if params.alpha disagrees with the instance
///         or the parameter set violates the Theorem 10 conditions.
[[nodiscard]] RelaxedGreedyResult relaxed_greedy(const ubg::UbgInstance& inst,
                                                 const Params& params,
                                                 const RelaxedGreedyOptions& opts = {});

namespace detail {

/// A non-owning reference to a callable: two pointers, never allocates.
/// The referenced callable must outlive every call made through the ref.
template <class Sig>
class FnRef;

template <class R, class... Args>
class FnRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FnRef>)
  FnRef(F&& f)  // implicit, so a callable binds like a reference
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Per-phase machinery of the shared phase loop, exposed so white-box tests
/// can exercise each §2.2 step in isolation.

/// A bin edge annotated with its active weight.
struct PhaseEdge {
  int u, v;
  double len;  ///< Euclidean length (bins, geometry).
  double w;    ///< active weight (spanner arithmetic).
};

/// The cone half-angle θ of the covered test, with cos θ worked out once.
/// Implicit, so a bare angle converts.
struct CoveredCone {
  CoveredCone(double angle);  // NOLINT(google-explicit-constructor)
  double theta;
  double cos_theta;
  double band;  ///< 1e-12; everything when θ is outside [0, π] or NaN.
};

/// §2.2.2 part 1: the θ-cone covered test for one edge (Lemma 3 / Fig 1).
/// True iff some z with {u,z} in gp, |vz| <= α and ∠vuz <= θ exists (or the
/// symmetric condition at v). The geometry streams from the flat SoA
/// coordinate lanes; `alpha` is the instance's UBG radius. The angle is
/// compared through its cosine, and acos runs only for a cosine within
/// `band` of cos θ, so the answer is bit-identical to testing the angle.
[[nodiscard]] bool is_covered_edge(const graph::SoaPoints& pts, double alpha,
                                   const graph::CsrView& gp, const PhaseEdge& e,
                                   const CoveredCone& cone);

/// §2.2.2 part 2: keep one query edge per cluster pair, minimizing
/// t·w(x,y) − sp(a,x) − sp(b,y). Returns selected edges in ascending
/// cluster-pair order; if `per_cluster_max` is non-null it receives the
/// Lemma 4 quantity.
///
/// One sort of (pair, objective, u, v, index) rows: the winner per pair is
/// the lexicographic minimum by (objective, (u, v)), full ties going to the
/// earliest candidate, and incident pairs are counted in a flat per-vertex
/// array.
[[nodiscard]] std::vector<PhaseEdge> select_query_edges(const std::vector<PhaseEdge>& candidates,
                                                        const cluster::ClusterCover& cover,
                                                        double t, int* per_cluster_max);

/// §2.2.4: answer all queries on H; returns the edges to add (those with
/// sp_H(x,y) > t·w(x,y)). Updates `max_hops` with the Lemma 8 quantity.
/// One early-exit bounded search per query, no per-query allocation once
/// the workspace is warm. With a pool the per-query searches run in
/// parallel (results committed in query order — bit-identical to serial).
[[nodiscard]] std::vector<PhaseEdge> answer_queries(graph::DijkstraWorkspace& ws,
                                                    const graph::CsrView& h,
                                                    const std::vector<PhaseEdge>& queries,
                                                    double t, int* max_hops,
                                                    runtime::WorkerPool* pool = nullptr);

/// §2.2.5: find mutually redundant pairs among `added`, build the conflict
/// graph J (one node per edge participating in >= 1 pair), run `mis` on it
/// and return the indices (into `added`) of edges to REMOVE (non-MIS nodes).
[[nodiscard]] std::vector<int> redundant_edge_removal(
    graph::DijkstraWorkspace& ws, const graph::CsrView& h, const std::vector<PhaseEdge>& added,
    double t1, FnRef<std::vector<int>(const graph::Graph&)> mis,
    runtime::WorkerPool* pool = nullptr);

/// The conflict graph J of §2.2.5 alone: node k = added[k]; edges connect
/// mutually redundant pairs. With a pool the endpoint-ball harvests (one
/// bounded search per distinct endpoint — the dominant cost) run on the
/// workers; the pair sweep and J construction stay sequential, so J is
/// bit-identical to serial.
///
/// The balls stop settling at (t1 − 1 + 1e-9)·max_w, not t1·max_w. Edges e
/// and f are mutually redundant under a pairing with connection sum
/// s = sp(e.x, f.x') + sp(e.y, f.y') when s + w(f) <= t1·w(e) and
/// s + w(e) <= t1·w(f). Adding the two gives s <= (t1 − 1)(w(e) + w(f))/2
/// <= (t1 − 1)·max_w, and each distance in s is at most s, so a conflict
/// never reads a distance past that radius. The 1e-9·max_w slack is many
/// orders of magnitude above the rounding in the pairing tests (for
/// t1 < 10^6). A pair that needs a longer distance fails the tests either
/// way, so J's edge set is the one the t1·max_w balls give. Each search is
/// the t1·max_w search cut short (`bounded` with a `settle` radius), so its
/// touched list is a prefix of the full one and J's adjacency order is the
/// same too; that order is the message order of a distributed MIS on J.
[[nodiscard]] graph::Graph redundancy_conflict_graph(graph::DijkstraWorkspace& ws,
                                                     const graph::CsrView& h,
                                                     const std::vector<PhaseEdge>& added,
                                                     double t1,
                                                     runtime::WorkerPool* pool = nullptr);

/// The three steps in which the sequential (§2) and distributed (§3)
/// drivers differ; everything else is one phase loop.
/// Steps that run on a pool use the options' `worker_pool`, as the loop does.
struct PhaseSteps {
  /// §2.2.1 / §3.2.1: a radius-`radius` cluster cover of G'_{i-1}, given
  /// as the phase's frozen CSR snapshot (`csr`).
  FnRef<cluster::ClusterCover(const graph::CsrView& csr, double radius,
                              graph::DijkstraWorkspace& ws)>
      cover;
  /// The MIS of the §2.2.5 conflict graph J.
  FnRef<std::vector<int>(const graph::Graph& j)> mis;
  /// Runs once per processed bin i >= 1 with its completed row, before the
  /// next phase starts (the distributed driver charges its rounds here).
  FnRef<void(const PhaseStats& st)> after_phase;
};

/// The §2 phase loop: binning, phase 0, then per nonempty bin the cover,
/// covered-edge filter, query selection, cluster graph, queries and
/// redundancy removal. relaxed_greedy and distributed_relaxed_greedy are
/// this loop with their own `steps`.
[[nodiscard]] RelaxedGreedyResult run_relaxed_phases(const ubg::UbgInstance& inst,
                                                     const Params& params,
                                                     const RelaxedGreedyOptions& opts,
                                                     PhaseSteps steps);

}  // namespace detail

}  // namespace localspan::core
