#pragma once
/// \file cover.hpp
/// Cluster covers (§2.2.1 sequential, §3.2.1 distributed).
///
/// A cluster cover of J with radius ρ is a set of clusters {C_{u1}, ...}
/// such that every cluster has radius ρ (members within shortest-path
/// distance ρ of the center), every vertex belongs to a cluster, and any two
/// centers are more than ρ apart. Our covers additionally *partition* V
/// (each vertex records exactly one owning center), which both constructions
/// below produce naturally and which query-edge selection relies on.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sp_workspace.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::cluster {

/// A radius-ρ cluster cover of a (partial spanner) graph.
struct ClusterCover {
  double radius = 0.0;
  std::vector<int> center_of;        ///< owning center of each vertex (center_of[c]==c).
  std::vector<double> dist_to_center;  ///< sp_{G'}(center_of[v], v), 0 at centers.
  std::vector<int> centers;          ///< sorted list of distinct centers.

  /// Members of each center, keyed by center id (only centers present).
  [[nodiscard]] std::vector<std::vector<int>> members() const;
};

/// Sequential construction (§2.2.1): sweep vertices in id order; each still
/// uncovered vertex becomes a center and absorbs every uncovered vertex
/// within shortest-path distance `radius` in gp (bounded Dijkstra).
///
/// Output-sensitive on a frozen CSR snapshot with a caller-owned workspace:
/// each center's absorption sweep walks only the ball the bounded search
/// settled (O(Σ|ball| log |ball|) total instead of O(n · centers)), and the
/// workspace is reused across centers (and phases) so the steady state
/// allocates nothing.
[[nodiscard]] ClusterCover sequential_cover(const graph::CsrView& gp, double radius,
                                            graph::DijkstraWorkspace& ws);

/// A geometric stack of cluster covers of one frozen graph: level ℓ is a
/// sequential_cover at radius base_radius · ratio^ℓ. This is the structure
/// the serve-layer routing oracle consumes — each level contributes one
/// landmark-label family, and the stack as a whole answers distance queries
/// with multiplicative stretch (see serve/oracle.hpp for the bound).
struct CoverHierarchy {
  std::vector<double> radii;         ///< radii[ℓ] = base_radius · ratio^ℓ.
  std::vector<ClusterCover> levels;  ///< levels[ℓ] = cover at radii[ℓ].

  /// True when the top level has exactly one cluster per connected
  /// component, i.e. any connected pair shares a top-level center. When
  /// false (max_levels hit first), far pairs may miss every level and the
  /// oracle must fall back to an exact search for them.
  bool complete = false;
};

/// Build the cover stack bottom-up, stopping early once a level has one
/// center per connected component (further doublings cannot coarsen it).
/// Each level is an independent sequential_cover of the same frozen gp.
///
/// \throws std::invalid_argument for base_radius <= 0, ratio <= 1, or
/// max_levels < 1.
[[nodiscard]] CoverHierarchy cover_hierarchy(const graph::CsrView& gp, double base_radius,
                                             double ratio, int max_levels,
                                             graph::DijkstraWorkspace& ws);

/// MIS-based construction (§3.2.1) on a frozen CSR snapshot: build the
/// proximity graph J on V with {x,y} ∈ J iff sp_gp(x,y) <= radius (distinct
/// vertices at distance 0 included); an MIS of J (computed by `mis`, which
/// receives J) gives the centers; every other vertex attaches to its
/// highest-id MIS neighbor in J. This is the distributed algorithm's cover;
/// with a deterministic `mis` it is reproducible.
///
/// Local like the protocol it simulates: J comes from one workspace-bounded
/// ball per vertex and dist_to_center from one per center, so the cost is
/// O(Σ|ball| log |ball|) time and O(n + |E(J)|) memory — nothing is O(n) per
/// vertex. With a non-null `pool` the balls are searched on the workers and
/// committed in vertex order, so J (its adjacency order included), the MIS
/// input and the cover are bit-identical at every thread count, and to an
/// all-pairs scan of dense bounded Dijkstra rows.
///
/// \throws std::logic_error when `mis` returns a set that leaves a vertex
/// with no MIS neighbor in J.
[[nodiscard]] ClusterCover mis_cover(
    const graph::CsrView& gp, double radius, graph::DijkstraWorkspace& ws,
    const std::function<std::vector<int>(const graph::Graph&)>& mis,
    runtime::WorkerPool* pool = nullptr);

/// Validation for tests: coverage, radius bound, center separation
/// (sp between any two centers > radius), and partition consistency.
[[nodiscard]] bool is_valid_cover(const graph::Graph& gp, const ClusterCover& cover);

}  // namespace localspan::cluster
