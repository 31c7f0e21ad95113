/// Example: watching the distributed algorithm run (§3).
///
/// Prints the per-phase trace of the distributed relaxed greedy execution on
/// the synchronous message-passing simulator: which length bin is being
/// processed, how many clusters the MIS produced, what each of the five
/// steps cost in communication rounds, and the rounds summed by section.
#include <cstdio>
#include <utility>

#include "core/distributed.hpp"
#include "graph/metrics.hpp"
#include "ubg/generator.hpp"

using namespace localspan;

int main() {
  ubg::UbgConfig cfg;
  cfg.n = 300;
  cfg.alpha = 0.75;
  cfg.seed = 5;
  const ubg::UbgInstance net = ubg::make_ubg(cfg);
  const core::Params params = core::Params::practical_params(0.5, cfg.alpha);
  std::printf("distributed run: n=%d, m=%d\n%s\n\n", net.g.n(), net.g.m(),
              params.describe().c_str());

  const auto result = core::distributed_relaxed_greedy(net, params, {}, 5);

  std::printf("%-5s %-9s %-9s %-8s %-8s %-7s | %-6s %-7s %-13s %-6s %-6s\n", "bin", "edges",
              "clusters", "queries", "added", "removed", "cover", "select", "clustergraph",
              "query", "redund");
  std::size_t net_idx = 0;
  for (std::size_t i = 1; i < result.base.phases.size(); ++i) {
    const core::PhaseStats& st = result.base.phases[i];
    const core::PhaseRounds& pr = result.net.per_phase[net_idx++];
    std::printf("%-5d %-9d %-9d %-8d %-8d %-7d | %-6lld %-7lld %-13lld %-6lld %-6lld\n", st.bin,
                st.edges_in_bin, st.clusters, st.queries, st.added, st.removed, pr.cover,
                pr.select, pr.cluster_graph, pr.query, pr.redundancy);
  }

  long long cover = 0, select = 0, cluster_graph = 0, query = 0, redundancy = 0;
  for (const core::PhaseRounds& pr : result.net.per_phase) {
    cover += pr.cover;
    select += pr.select;
    cluster_graph += pr.cluster_graph;
    query += pr.query;
    redundancy += pr.redundancy;
  }
  std::printf("\nrounds by section:\n");
  for (const auto& [section, rounds] : {std::pair<const char*, long long>{"phase0", 3},
                                        {"cover", cover},
                                        {"select", select},
                                        {"clustergraph", cluster_graph},
                                        {"query", query},
                                        {"redundancy", redundancy}}) {
    std::printf("  %-14s %6lld rounds\n", section, rounds);
  }
  std::printf("\ntotal: %lld rounds measured (Luby MIS), %lld rounds in the KMW model,\n"
              "       %lld messages; spanner stretch %.4f with %d edges\n",
              result.net.rounds_measured, result.net.rounds_kmw_model, result.net.messages,
              graph::max_edge_stretch(net.g, result.base.spanner), result.base.spanner.m());
  return 0;
}
