/// Example: energy-aware topology control (§1.6 extensions 2 & 3).
///
/// Radio energy scales like distance^γ (γ ≈ 2 free space, up to 4 indoors).
/// Running the relaxed greedy algorithm under the energy metric c·|uv|^γ
/// yields an *energy spanner*: every multi-hop route costs at most (1+ε)
/// times the cheapest possible energy route. This example estimates network
/// lifetime for a battery-powered deployment under three topologies.
#include <cmath>
#include <cstdio>

#include "core/relaxed_greedy.hpp"
#include "ext/energy.hpp"
#include "graph/metrics.hpp"
#include "ubg/generator.hpp"

using namespace localspan;

int main() {
  ubg::UbgConfig cfg;
  cfg.n = 500;
  cfg.alpha = 0.8;
  cfg.seed = 7;
  const ubg::UbgInstance net = ubg::make_ubg(cfg);
  const double gamma = 2.0;  // free-space path loss
  const graph::Graph energy_graph = ext::energy_reweight(net, net.g, 1.0, gamma);

  std::printf("energy-aware topology control: n=%d, gamma=%.1f\n\n", net.g.n(), gamma);

  // Euclidean spanner vs energy spanner: same algorithm, different metric.
  const core::Params params = core::Params::practical_params(0.5, cfg.alpha);
  const auto euclid = core::relaxed_greedy(net, params);
  core::RelaxedGreedyOptions opts;
  opts.weight_transform = ext::energy_transform(1.0, gamma);
  const auto energy = core::relaxed_greedy(net, params, opts);

  struct Row {
    const char* name;
    const graph::Graph* topo;
  };
  for (const Row& row : {Row{"max power", &net.g}, Row{"euclidean spanner", &euclid.spanner},
                         Row{"energy spanner", &energy.spanner}}) {
    // Energy stretch: worst per-link ratio of cheapest route energy in the
    // topology to the direct-link energy (measured on the energy weights).
    graph::Graph topo_energy(net.g.n());
    for (const graph::Edge& e : row.topo->edges()) {
      topo_energy.add_edge(e.u, e.v, std::pow(net.points.distance(e.u, e.v), gamma));
    }
    const double estretch = graph::max_edge_stretch(energy_graph, topo_energy);
    std::printf("%-18s links %5d  energy-stretch %6.3f  power cost %7.2f  maxdeg %2d\n",
                row.name, row.topo->m(), estretch, graph::power_cost(topo_energy),
                row.topo->max_degree());
  }

  std::printf(
      "\nThe energy spanner guarantees energy-stretch <= %.2f by construction\n"
      "(the euclidean spanner does not optimize that metric), while its power\n"
      "cost — each node's budget to reach its farthest neighbor — stays a\n"
      "fraction of max-power operation. That is extension 3 of section 1.6.\n",
      params.t);
  return 0;
}
