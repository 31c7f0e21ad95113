#pragma once
/// \file cluster_reference.hpp
/// References for the cluster machinery: a cover validator, and the
/// cluster graph H_{i-1} (§2.2.3) built the direct way — edge by edge into
/// a mutable graph::Graph, each add deduplicated with has_edge, with one
/// member vector per vertex. The library freezes the same edges into a CSR
/// in commit order; the tests hold every CSR row to this graph's row (same
/// neighbours, same order, same weight bits).

#include <string>

#include "cluster/cover.hpp"
#include "graph/graph.hpp"
#include "graph/sp_workspace.hpp"

namespace localspan::cluster {

/// Coverage, radius bound, center separation (sp between any two centers
/// > radius) and partition consistency, by exact bounded searches.
[[nodiscard]] bool is_valid_cover(const graph::Graph& gp, const ClusterCover& cover);

/// H as a mutable graph, with the same structural counters.
struct ReferenceClusterGraph {
  graph::Graph h;
  int intra_edges = 0;
  int inter_edges = 0;
  int max_inter_degree = 0;
  double max_inter_weight = 0.0;
  int retries = 0;  ///< widened searches queued (a pair may queue twice).
};

/// Serial build of H_{i-1} from gp and its cover, centers in id order.
[[nodiscard]] ReferenceClusterGraph reference_cluster_graph(const graph::CsrView& gp,
                                                            const ClusterCover& cover,
                                                            double w_prev);

/// Empty when every row of `csr` equals the row of `g` (neighbour ids,
/// order and weight bits), else a description of the first difference.
[[nodiscard]] std::string row_mismatch(const graph::CsrView& csr, const graph::Graph& g);

}  // namespace localspan::cluster
