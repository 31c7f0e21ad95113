#pragma once
/// \file verify.hpp
/// Independent certification of a topology-control output: one certifier,
/// two scopes. `certify` re-checks, sharing no state with the algorithms,
/// the contract of the paper. At full scope: subgraph with matching edge
/// weights, stretch on every link (Theorem 10), connectivity, and the
/// degree (Theorem 11) and lightness (Theorem 13) caps. At local scope:
/// stretch and degree where a disturbed witness could serve, the dynamic
/// engine's per-window check. verify_spanner, the registry measure behind
/// api::check_guarantees and DynamicSpanner::certify all call it.

#include <functional>
#include <string>

#include "graph/metrics.hpp"
#include "ubg/generator.hpp"

namespace localspan::core {

/// Caps for the O(1) guarantees (the theorems do not give explicit
/// constants, so certification takes them as policy).
struct VerifyCaps {
  int max_degree = 64;
  double lightness = 16.0;
};

struct VerificationReport {
  bool is_subgraph = false;
  bool weights_match = false;
  bool stretch_ok = false;
  bool connectivity_ok = false;
  bool degree_ok = false;
  bool lightness_ok = false;

  double measured_stretch = 0.0;
  int measured_max_degree = 0;
  double measured_lightness = 0.0;
  double stretch_bound = 0.0;

  [[nodiscard]] bool ok() const {
    return is_subgraph && weights_match && stretch_ok && connectivity_ok && degree_ok &&
           lightness_ok;
  }

  [[nodiscard]] std::string summary() const;
};

/// Certify `sub` against the network `g` with stretch bound t. A `weight`
/// transform maps g's edge weights into the units of `sub`; the full
/// certificate then checks the reweighted g, so weights, stretch and
/// lightness (w(sub) / w(MSF)) share those units. Its stretch is
/// graph::max_edge_stretch's at cap 64. At local scope each vertex searches
/// to t·w_max(u)·(1+1e-9) once, an endpoint past it measures kInf, and the
/// unchecked fields read true. Stretch and lightness pass within a relative
/// 1e-9. `pool` (may be null) splits the stretch pass, bit-identically;
/// `ws` is the serial workspace (null: one per call), so a warmed local
/// certify allocates nothing.
[[nodiscard]] VerificationReport certify(const graph::Graph& g, const graph::Graph& sub,
                                         const graph::WitnessScope& scope, double t,
                                         const VerifyCaps& caps,
                                         const std::function<double(double)>& weight = {},
                                         runtime::WorkerPool* pool = nullptr,
                                         graph::DijkstraWorkspace* ws = nullptr);

/// Full-scope certify of `topo` against the instance's network. A `pool`
/// splits the stretch pass as in graph::max_edge_stretch; the report is
/// identical with and without one.
[[nodiscard]] VerificationReport verify_spanner(const ubg::UbgInstance& inst,
                                                const graph::Graph& topo, double t,
                                                const VerifyCaps& caps = {},
                                                runtime::WorkerPool* pool = nullptr);

}  // namespace localspan::core
