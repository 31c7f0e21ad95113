#pragma once
/// \file routing.hpp
/// Geometric routing on topology-control outputs.
///
/// §1.3 motivates topology control partly by routing: memoryless geometric
/// routing (GPSR [9]) forwards greedily toward the destination and fails at
/// local minima. Spanners change the trade-off: they keep short detours
/// available so greedy progress rarely strands, and when it succeeds the
/// route length is competitive. This module implements greedy and compass
/// forwarding plus a Monte-Carlo evaluation harness (experiment E13).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sp_workspace.hpp"
#include "ubg/generator.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::route {

/// Forwarding rules.
enum class Forwarding {
  kGreedy,   ///< neighbor geographically closest to the destination.
  kCompass,  ///< neighbor minimizing the angle to the destination ray.
};

/// One routed packet.
struct RouteResult {
  bool delivered = false;
  int hops = 0;
  double length = 0.0;       ///< total Euclidean length of the traversed path.
  double weight = 0.0;       ///< total edge weight of the path in `topo`.
  std::vector<int> path;     ///< visited vertices, starting at the source.
};

/// Route one packet from s to d over the frozen CSR snapshot `topo` using
/// the given rule. The packet fails (delivered=false) at a local minimum — a
/// node with no neighbor making progress — or after `max_hops`.
/// \throws std::invalid_argument on an endpoint out of range or when `topo`
/// and `inst.points` differ in size.
[[nodiscard]] RouteResult route_packet(const ubg::UbgInstance& inst, const graph::CsrView& topo,
                                       int s, int d, Forwarding rule, int max_hops = 10000);

/// Aggregate routing quality over random connected source-destination pairs.
struct RoutingStats {
  int trials = 0;
  int delivered = 0;
  double delivery_rate = 0.0;
  double mean_hops = 0.0;           ///< over delivered packets.
  double mean_route_stretch = 0.0;  ///< route length / shortest-path length in topo.
  double worst_route_stretch = 0.0;
};

/// Warmed evaluation: the caller owns the frozen snapshot and the
/// epoch-stamped workspace, so repeated evaluations (several rules, several
/// topologies, the CLI's spanner-vs-UBG comparison) share buffers and the
/// steady state allocates only per-trial route paths. Pairs are drawn
/// serially from the seed and accepted in draw order when their endpoints
/// share a component. A delivered route is priced against the exact
/// goal-directed sp(s, d). With a non-null `pool` the pairs run on
/// per-worker workspaces, and the stats are bit-identical at every thread
/// count. Reports route.pairs, route.delivered and route.heap_pops.
/// \throws std::invalid_argument when trials <= 0, or when `topo` is empty
/// or its size differs from the instance's point count.
[[nodiscard]] RoutingStats evaluate_routing(const ubg::UbgInstance& inst,
                                            const graph::CsrView& topo, Forwarding rule,
                                            int trials, std::uint64_t seed,
                                            graph::DijkstraWorkspace& ws,
                                            runtime::WorkerPool* pool = nullptr);

}  // namespace localspan::route
