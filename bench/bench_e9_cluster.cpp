/// Experiment E9 — the cluster machinery constants (Lemmas 4, 6, 8;
/// Theorem 9; Fig 2) and the doubling-dimension claims (Lemmas 15/20,
/// Figs 5-6) that make the O(log* n) MIS of [11] applicable.
///
/// All reported maxima are taken over every phase of a full run and must be
/// flat in n.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/relaxed_greedy.hpp"
#include "graph/metrics.hpp"
#include "graph/sp_workspace.hpp"

using namespace localspan;
using benchutil::fmt;
using benchutil::fmt_int;

int main() {
  benchutil::JsonReport report("E9");
  std::printf("E9: per-phase structural constants. eps=0.5, alpha=0.75, d=2, seed=9\n");
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  std::printf("params: %s\n", params.describe().c_str());
  const int lemma8_cap =
      2 + static_cast<int>(std::ceil(params.t * params.r / params.delta));

  benchutil::Table table({"n", "max query edges/cluster (L4)", "max inter-degree (L6)",
                          "max query hops (L8)", "L8 cap 2+ceil(tr/d)"});
  for (int n : {128, 256, 512, 1024, 2048}) {
    const auto inst = benchutil::standard_instance(n, 0.75, 9);
    const auto result = core::relaxed_greedy(inst, params);
    int l4 = 0;
    int l6 = 0;
    int l8 = 0;
    for (const core::PhaseStats& st : result.phases) {
      l4 = std::max(l4, st.max_query_edges_per_cluster);
      l6 = std::max(l6, st.max_inter_degree);
      l8 = std::max(l8, st.max_query_hops);
    }
    table.add_row({fmt_int(n), fmt_int(l4), fmt_int(l6), fmt_int(l8), fmt_int(lemma8_cap)});
  }
  report.print("E9: Lemma 4/6/8 quantities are constant in n", table);

  // Doubling dimension of the spanner's shortest-path metric (the metric in
  // which the derived conflict graphs of Lemmas 15/20 are UBGs). The paper's
  // claim: constant, so the KMW MIS applies.
  benchutil::Table dd_table({"n", "doubling dim estimate (G' sp metric)"});
  for (int n : {128, 256, 512}) {
    const auto inst = benchutil::standard_instance(n, 0.75, 9);
    const auto result = core::relaxed_greedy(inst, params);
    std::vector<std::vector<double>> dist(static_cast<std::size_t>(n));
    graph::DijkstraWorkspace ws;
    for (int v = 0; v < n; ++v) {
      const graph::SpView sp = ws.bounded(result.spanner, v, graph::kInf);
      for (int x = 0; x < n; ++x) {
        // Disconnected pairs: effectively far.
        dist[static_cast<std::size_t>(v)].push_back(sp.reached(x) ? sp.dist(x) : 1e9);
      }
    }
    dd_table.add_row({fmt_int(n), fmt(graph::doubling_dimension_estimate(dist, 60, 9), 2)});
  }
  report.print("E9b: doubling dimension of the derived metric stays constant (Lemmas 15/20)", dd_table);
  return report.write() ? 0 : 1;
}
