/// Experiment E13 — geometric routing on the spanner (§1.3's application
/// motivation, GPSR [9]): greedy and compass forwarding on the raw network
/// versus the topology-control outputs. A good control topology should keep
/// delivery near the raw graph's while using a fraction of the links, and
/// the route stretch should track the spanner stretch.
#include <cstdio>

#include "bench_util.hpp"
#include "baseline/rng_graph.hpp"
#include "baseline/yao.hpp"
#include "core/relaxed_greedy.hpp"
#include "route/routing.hpp"

using namespace localspan;
using benchutil::fmt;
using benchutil::fmt_int;

int main() {
  benchutil::JsonReport report("E13");
  std::printf("E13: geometric routing. n=512, alpha=1.0 (UDG), d=2, seed=13, 300 packets\n");
  const auto inst = benchutil::standard_instance(512, 1.0, 13);
  const core::Params params = core::Params::practical_params(0.5, 1.0);
  const auto spanner = core::relaxed_greedy(inst, params).spanner;

  struct Row {
    const char* name;
    graph::Graph g;
  };
  std::vector<Row> rows;
  rows.push_back({"max power", inst.g});
  rows.push_back({"RNG/XTC", baseline::relative_neighborhood_graph(inst)});
  rows.push_back({"theta k=8", baseline::theta_graph(inst, 8)});
  rows.push_back({"relaxed greedy spanner", spanner});

  benchutil::Table table({"topology", "edges", "rule", "delivery %", "mean hops",
                          "mean route stretch", "worst route stretch"});
  graph::DijkstraWorkspace ws(inst.g.n());
  graph::CsrView csr;
  for (const Row& row : rows) {
    csr.assign(row.g);
    for (const auto rule : {route::Forwarding::kGreedy, route::Forwarding::kCompass}) {
      const route::RoutingStats st = route::evaluate_routing(inst, csr, rule, 300, 13, ws);
      table.add_row({row.name, fmt_int(row.g.m()),
                     rule == route::Forwarding::kGreedy ? "greedy" : "compass",
                     fmt(100.0 * st.delivery_rate, 1), fmt(st.mean_hops, 1),
                     fmt(st.mean_route_stretch, 3), fmt(st.worst_route_stretch, 3)});
    }
  }
  report.print("E13: the spanner keeps geometric routing viable at a fraction of the links", table);
  return report.write() ? 0 : 1;
}
