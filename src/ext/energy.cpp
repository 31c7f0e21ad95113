#include "ext/energy.hpp"

#include <cmath>
#include <stdexcept>

namespace localspan::ext {

std::function<double(double)> energy_transform(double c, double gamma) {
  if (!(c > 0.0)) throw std::invalid_argument("energy_transform: c must be > 0");
  if (!(gamma >= 1.0)) throw std::invalid_argument("energy_transform: gamma must be >= 1");
  return [c, gamma](double len) { return c * std::pow(len, gamma); };
}

graph::Graph energy_reweight(const ubg::UbgInstance& inst, const graph::Graph& g, double c,
                             double gamma) {
  const auto transform = energy_transform(c, gamma);
  graph::Graph out(g.n());
  for (const graph::Edge& e : g.edges()) {
    out.add_edge(e.u, e.v, transform(std::max(inst.points.distance(e.u, e.v), 1e-12)));
  }
  return out;
}

}  // namespace localspan::ext
