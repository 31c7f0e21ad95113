#include "baseline/yao.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "geom/cones.hpp"

namespace localspan::baseline {

graph::Graph yao_graph(const ubg::UbgInstance& inst, int k) {
  if (inst.config.dim != 2) throw std::invalid_argument("yao_graph: defined for dim == 2");
  const geom::YaoCones2D cones(k);
  const int n = inst.g.n();
  graph::Graph out(n);
  for (int u = 0; u < n; ++u) {
    // Nearest G-neighbor per cone (ties by id for determinism).
    std::vector<int> best(static_cast<std::size_t>(k), -1);
    std::vector<double> best_d(static_cast<std::size_t>(k), 0.0);
    const geom::Point pu = inst.points[u];
    for (const graph::Neighbor& nb : inst.g.neighbors(u)) {
      // A coincident neighbor has no direction: keep the edge outright (it
      // is trivially the nearest in "its" cone; clustered deployments clamp
      // points to the box and can collide exactly).
      if (inst.points.sq_distance(u, nb.to) == 0.0) {
        out.add_edge(u, nb.to, nb.w);
        continue;
      }
      const int s = cones.sector_of(pu, inst.points[nb.to]);
      const auto si = static_cast<std::size_t>(s);
      if (best[si] == -1 || nb.w < best_d[si] || (nb.w == best_d[si] && nb.to < best[si])) {
        best[si] = nb.to;
        best_d[si] = nb.w;
      }
    }
    for (int s = 0; s < k; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (best[si] != -1) out.add_edge(u, best[si], best_d[si]);
    }
  }
  return out;
}

graph::Graph theta_graph(const ubg::UbgInstance& inst, int k) {
  if (inst.config.dim != 2) throw std::invalid_argument("theta_graph: defined for dim == 2");
  const geom::YaoCones2D cones(k);
  const int n = inst.g.n();
  graph::Graph out(n);
  const double sector = 2.0 * std::numbers::pi / k;
  for (int u = 0; u < n; ++u) {
    std::vector<int> best(static_cast<std::size_t>(k), -1);
    std::vector<double> best_proj(static_cast<std::size_t>(k), 0.0);
    const geom::Point pu = inst.points[u];
    for (const graph::Neighbor& nb : inst.g.neighbors(u)) {
      const geom::Point pv = inst.points[nb.to];
      if (geom::sq_distance(pu, pv) == 0.0) {  // no direction: keep outright
        out.add_edge(u, nb.to, nb.w);
        continue;
      }
      const int s = cones.sector_of(pu, pv);
      // Projection of u->v onto the sector bisector direction.
      const double bisector = (s + 0.5) * sector;
      const double proj = (pv[0] - pu[0]) * std::cos(bisector) +
                          (pv[1] - pu[1]) * std::sin(bisector);
      const auto si = static_cast<std::size_t>(s);
      if (best[si] == -1 || proj < best_proj[si] ||
          (proj == best_proj[si] && nb.to < best[si])) {
        best[si] = nb.to;
        best_proj[si] = proj;
      }
    }
    for (int s = 0; s < k; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (best[si] != -1) out.add_edge(u, best[si], inst.points.distance(u, best[si]));
    }
  }
  return out;
}

}  // namespace localspan::baseline
