#include "baseline/gabriel.hpp"

#include "geom/grid.hpp"

namespace localspan::baseline {

graph::Graph gabriel_graph(const ubg::UbgInstance& inst) {
  const int n = inst.g.n();
  graph::Graph out(n);
  const geom::Grid grid(inst.points, 1.0);
  for (const graph::Edge& e : inst.g.edges()) {
    const geom::Point pu = inst.points[e.u];
    const geom::Point pv = inst.points[e.v];
    geom::Point mid(pu.dim());
    for (int kk = 0; kk < pu.dim(); ++kk) mid[kk] = 0.5 * (pu[kk] + pv[kk]);
    const double r2 = geom::sq_distance(pu, pv) / 4.0;
    bool blocked = false;
    // Any witness strictly inside the diameter ball lies within |uv|/2 <= 1/2
    // of the midpoint; enumerate grid candidates around the closer endpoint.
    grid.for_neighbors_within(e.u, 1.0, [&](int w, double) {
      if (blocked || w == e.u || w == e.v) return;
      if (geom::sq_distance(mid.coords(), inst.points.row(w)) < r2 * (1.0 - 1e-12)) {
        blocked = true;
      }
    });
    if (!blocked) out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

}  // namespace localspan::baseline
