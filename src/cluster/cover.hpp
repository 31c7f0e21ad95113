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
};

/// Sequential construction (§2.2.1): sweep vertices in id order; each still
/// uncovered vertex becomes a center and absorbs every uncovered vertex
/// within shortest-path distance `radius` in gp (bounded Dijkstra).
///
/// Output-sensitive on a frozen CSR snapshot with a caller-owned workspace:
/// each center's absorption sweep walks only the ball the bounded search
/// settled (O(Σ|ball| log |ball|) total instead of O(n · centers)), and the
/// workspace is reused across centers (and phases) so the steady state
/// allocates nothing. serve::RoutingOracle runs the same sweep per level,
/// with each search widened to its label reach (serve/oracle.hpp).
[[nodiscard]] ClusterCover sequential_cover(const graph::CsrView& gp, double radius,
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

}  // namespace localspan::cluster
