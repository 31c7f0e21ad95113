#pragma once
/// \file verify.hpp
/// Independent certification of a topology-control output.
///
/// Downstream users should not have to trust the construction: this module
/// re-checks, from scratch and with no shared state with the algorithms,
/// that a proposed topology satisfies the contract of the paper — subgraph
/// of the network, (1+ε)-stretch on every link, connectivity preservation,
/// and (against configurable caps) degree and lightness.

#include <string>

#include "graph/graph.hpp"
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

/// Certify `topo` as a t-spanner topology for the instance. `threads`
/// splits the stretch pass as in graph::max_edge_stretch (<= 0: the process
/// default); the report is identical at every thread count.
[[nodiscard]] VerificationReport verify_spanner(const ubg::UbgInstance& inst,
                                                const graph::Graph& topo, double t,
                                                const VerifyCaps& caps = {}, int threads = 0);

}  // namespace localspan::core
