#include "core/verify.hpp"

#include <cmath>
#include <sstream>

#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "obs/obs.hpp"

namespace localspan::core {

std::string VerificationReport::summary() const {
  std::ostringstream os;
  os << (ok() ? "PASS" : "FAIL") << ": subgraph=" << (is_subgraph ? "yes" : "NO")
     << " weights=" << (weights_match ? "yes" : "NO") << " stretch=" << measured_stretch << "/"
     << stretch_bound << (stretch_ok ? "" : " [VIOLATED]")
     << " connectivity=" << (connectivity_ok ? "yes" : "NO") << " maxdeg=" << measured_max_degree
     << (degree_ok ? "" : " [OVER CAP]") << " lightness=" << measured_lightness
     << (lightness_ok ? "" : " [OVER CAP]");
  return os.str();
}

VerificationReport verify_spanner(const ubg::UbgInstance& inst, const graph::Graph& topo,
                                  double t, const VerifyCaps& caps, int threads) {
  VerificationReport rep;
  rep.stretch_bound = t;
  if (topo.n() != inst.g.n()) return rep;  // everything false

  rep.is_subgraph = true;
  rep.weights_match = true;
  for (const graph::Edge& e : topo.edges()) {
    if (!inst.g.has_edge(e.u, e.v)) {
      rep.is_subgraph = false;
      break;
    }
    if (std::abs(inst.g.edge_weight(e.u, e.v) - e.w) > 1e-9) rep.weights_match = false;
  }

  {
    static const obs::MetricId stretch_span = obs::span_id("verify.stretch");
    const obs::Span span(stretch_span);
    rep.measured_stretch = graph::max_edge_stretch(inst.g, topo, 64.0, threads);
  }
  rep.stretch_ok = rep.measured_stretch <= t * (1.0 + 1e-9);

  rep.connectivity_ok = graph::connected_components(inst.g).count ==
                        graph::connected_components(topo).count;

  rep.measured_max_degree = topo.max_degree();
  rep.degree_ok = rep.measured_max_degree <= caps.max_degree;

  rep.measured_lightness = graph::lightness(inst.g, topo);
  rep.lightness_ok = rep.measured_lightness <= caps.lightness;
  return rep;
}

}  // namespace localspan::core
