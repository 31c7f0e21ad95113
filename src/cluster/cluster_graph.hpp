#pragma once
/// \file cluster_graph.hpp
/// The Das–Narasimhan cluster graph H_{i-1} (§2.2.3, Fig 2).
///
/// H approximates the partial spanner G'_{i-1} so that the per-edge
/// shortest-path queries of phase i can be answered on paths of O(1) hops
/// (Lemma 8). Vertices of H are all of V; edges are
///   * intra-cluster: {center a, member x}, weight sp_{G'}(a, x);
///   * inter-cluster: {center a, center b} when sp_{G'}(a,b) <= W_{i-1} or
///     some edge of G'_{i-1} crosses the two clusters; weight sp_{G'}(a,b).
/// Lemma 5 bounds every inter-cluster weight by (2δ+1)W_{i-1}; Lemma 7 shows
/// H-path lengths overestimate G'-path lengths by at most (1+6δ)/(1−2δ).
///
/// A phase answers every query on H before it adds an edge (the lazy
/// update of §2.2.4), so H is frozen once built: a CSR whose rows list edges
/// in commit order (intra edges by member id, then per center its cond-1
/// and crossing edges, then the widened retries), as a graph built edge by
/// edge would, so searches on H settle the same balls.

#include "cluster/cover.hpp"
#include "graph/graph.hpp"
#include "graph/sp_workspace.hpp"

namespace localspan::cluster {

/// H plus the structural counters the paper's lemmas bound.
struct ClusterGraph {
  graph::CsrView h;        ///< the cluster graph (same vertex ids as G').
  int intra_edges = 0;
  int inter_edges = 0;
  int max_inter_degree = 0;  ///< max inter-cluster edges at a center (Lemma 6).
  double max_inter_weight = 0.0;  ///< max inter-cluster edge weight (Lemma 5).
};

/// Build H_{i-1} from the partial spanner gp and its radius-δW cluster cover.
/// \param w_prev  W_{i-1}, the inter-cluster connectivity threshold.
///
/// Output-sensitive on a frozen CSR snapshot with a caller-owned workspace:
/// per-center sweeps walk the settled ball (via the SpView touched list) and
/// a center-keyed member CSR instead of scanning all n vertices per center.
/// The edges are collected in commit order (a per-vertex stamp stands in for
/// a duplicate check) and laid out in one counting-sort pass.
///
/// With a non-null `pool`, the per-center bounded searches (the dominant
/// cost) run in parallel — each center's candidate harvest is a pure
/// function of (gp, cover, center) — and edges are committed sequentially
/// in center order, so H is bit-identical to the serial build at every
/// thread count.
[[nodiscard]] ClusterGraph build_cluster_graph(const graph::CsrView& gp, const ClusterCover& cover,
                                               double w_prev, graph::DijkstraWorkspace& ws,
                                               runtime::WorkerPool* pool = nullptr);

/// Answer one §2.2.4 query on H: sp_H(x, y) truncated at `bound`
/// (returns kInf if it exceeds the bound). If `hops_out` is non-null it
/// receives the hop count of the found path (-1 when none), validating
/// Lemma 8's O(1)-hop claim. One early-exit bounded search on the caller's
/// workspace: zero allocation once the workspace is warm.
[[nodiscard]] double query_on_h(graph::DijkstraWorkspace& ws, const graph::CsrView& h, int x, int y,
                                double bound, int* hops_out = nullptr);

}  // namespace localspan::cluster
