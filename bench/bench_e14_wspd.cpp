/// Experiment E14 — the computational-geometry reference line (§1.4):
/// WSPD spanners (Callahan–Kosaraju) and SEQ-GREEDY on the COMPLETE
/// Euclidean graph versus the paper's algorithm on the wireless α-UBG.
///
/// The point this table makes: CG constructions assume any pair can be
/// linked (they emit edges far longer than the radio range), so they do not
/// solve topology control — but they calibrate what "linear size, bounded
/// stretch" costs when the constraint is dropped.
#include <cstdio>

#include "bench_util.hpp"
#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "graph/metrics.hpp"
#include "graph/sp_workspace.hpp"
#include "wspd/wspd.hpp"

using namespace localspan;
using benchutil::fmt;
using benchutil::fmt_int;

namespace {

/// Max over sampled pairs of sp_topo(u,v) / |uv| (complete-graph stretch).
double complete_stretch(const geom::Points& pts, const graph::Graph& topo) {
  double worst = 1.0;
  const int n = pts.size();
  graph::DijkstraWorkspace ws;
  for (int u = 0; u < n; u += 3) {
    const graph::SpView sp = ws.bounded(topo, u, graph::kInf);
    for (int v = 0; v < n; v += 5) {
      if (u == v) continue;
      const double direct = pts.distance(u, v);
      if (direct == 0.0) continue;
      worst = std::max(worst, sp.dist(v) / direct);
    }
  }
  return worst;
}

}  // namespace

int main() {
  benchutil::JsonReport report("E14");
  std::printf("E14: CG spanners on the complete graph vs topology control on the UBG.\n");
  std::printf("n=256, d=2, t=1.5, seed=14\n");
  const auto inst = benchutil::standard_instance(256, 0.75, 14);
  const int n = inst.g.n();

  // Complete Euclidean graph on the same points.
  graph::Graph complete(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      complete.add_edge(u, v, std::max(inst.points.distance(u, v), 1e-12));
    }
  }

  benchutil::Table table({"construction", "input", "edges", "edges/n",
                          "stretch vs its input", "max edge length", "max deg"});
  const auto row = [&](const char* name, const char* input, const graph::Graph& g,
                       double stretch) {
    double longest = 0.0;
    for (const graph::Edge& e : g.edges()) longest = std::max(longest, e.w);
    table.add_row({name, input, fmt_int(g.m()), fmt(static_cast<double>(g.m()) / n, 2),
                   fmt(stretch, 3), fmt(longest, 3), fmt_int(g.max_degree())});
  };

  const graph::Graph wspd = wspd::wspd_spanner(inst.points, 1.5);
  row("WSPD spanner (CK)", "complete", wspd, complete_stretch(inst.points, wspd));

  const graph::Graph greedy_complete = core::seq_greedy(complete, 1.5);
  row("SEQ-GREEDY", "complete", greedy_complete,
      complete_stretch(inst.points, greedy_complete));

  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto relaxed = core::relaxed_greedy(inst, params);
  row("relaxed greedy (paper)", "alpha-UBG", relaxed.spanner,
      graph::max_edge_stretch(inst.g, relaxed.spanner));

  report.print("E14: CG constructions need radio-infeasible long edges; the paper's "
              "algorithm gets the same guarantees using network links only", table);
  return report.write() ? 0 : 1;
}
