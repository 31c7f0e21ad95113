#include "core/verify.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "graph/components.hpp"
#include "obs/obs.hpp"

namespace localspan::core {

/// Stretch and lightness are sums of doubles re-derived independently.
constexpr double kSlack = 1.0 + 1e-9;

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

VerificationReport certify(const graph::Graph& g, const graph::Graph& sub,
                           const graph::WitnessScope& scope, double t, const VerifyCaps& caps,
                           const std::function<double(double)>& weight, runtime::WorkerPool* pool,
                           graph::DijkstraWorkspace* ws) {
  if (scope.full() && weight) {
    graph::Graph reweighted(g.n());
    for (const graph::Edge& e : g.edges()) reweighted.add_edge(e.u, e.v, weight(e.w));
    return certify(reweighted, sub, scope, t, caps, {}, pool, ws);
  }
  VerificationReport rep;
  rep.stretch_bound = t;
  if (sub.n() != g.n()) return rep;  // everything false
  rep.is_subgraph = rep.weights_match = rep.connectivity_ok = rep.lightness_ok = true;
  if (scope.full()) {
    for (const graph::Edge& e : sub.edges()) {
      if (!g.has_edge(e.u, e.v)) {
        rep.is_subgraph = false;
        break;
      }
      if (std::abs(g.edge_weight(e.u, e.v) - e.w) > 1e-9) rep.weights_match = false;
    }
    {
      static const obs::MetricId stretch_span = obs::span_id("verify.stretch");
      const obs::Span span(stretch_span);
      rep.measured_stretch = graph::max_edge_stretch(g, sub, 64.0, pool);
    }
    rep.connectivity_ok =
        graph::connected_components(g).count == graph::connected_components(sub).count;
    rep.measured_max_degree = sub.max_degree();
    rep.measured_lightness = graph::lightness(g, sub);
    rep.lightness_ok = rep.measured_lightness <= caps.lightness * kSlack;
  } else {
    std::optional<graph::DijkstraWorkspace> local_ws;
    if (ws == nullptr) ws = &local_ws.emplace(g.n());
    const double radius = t * kSlack;
    rep.measured_stretch =
        (weight ? graph::witness_stretch(g, sub, scope, radius, radius, *ws, pool,
                                         graph::TransformRef{&weight})
                : graph::witness_stretch(g, sub, scope, radius, radius, *ws, pool))
            .worst;
    for (int v : scope.vertices) {
      rep.measured_max_degree = std::max(rep.measured_max_degree, sub.degree(v));
    }
  }
  rep.stretch_ok = rep.measured_stretch <= t * kSlack;
  rep.degree_ok = rep.measured_max_degree <= caps.max_degree;
  return rep;
}

VerificationReport verify_spanner(const ubg::UbgInstance& inst, const graph::Graph& topo,
                                  double t, const VerifyCaps& caps, runtime::WorkerPool* pool) {
  return certify(inst.g, topo, {}, t, caps, {}, pool);
}

}  // namespace localspan::core
