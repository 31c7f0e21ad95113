#include "baseline/rng_graph.hpp"

#include <algorithm>

#include "geom/grid.hpp"

namespace localspan::baseline {

graph::Graph relative_neighborhood_graph(const ubg::UbgInstance& inst) {
  const int n = inst.g.n();
  graph::Graph out(n);
  const geom::Grid grid(inst.points, 1.0);
  for (const graph::Edge& e : inst.g.edges()) {
    const double duv = e.w;
    bool blocked = false;
    // A witness has |uw| < |uv| <= 1, so it is grid-reachable from u.
    grid.for_neighbors_within(e.u, 1.0, [&](int w, double) {
      if (blocked || w == e.u || w == e.v) return;
      const double lune = std::max(inst.points.distance(e.u, w), inst.points.distance(e.v, w));
      if (lune < duv * (1.0 - 1e-12)) blocked = true;
    });
    if (!blocked) out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

}  // namespace localspan::baseline
