#pragma once
/// \file oracle_reference.hpp
/// Reference for the serve-layer routing oracle, built the two-pass way: a
/// cluster::sequential_cover per level (radius r_ℓ searches), then one
/// bounded search per center at the label reach β·r_ℓ, each ball pushed
/// onto per-vertex rows in ascending center order. The library builds each
/// level in one sweep and lays its labels out by a counting sort; the tests
/// hold it to this reference field by field and row by row.

#include <vector>

#include "graph/labels.hpp"
#include "graph/sp_workspace.hpp"
#include "serve/oracle.hpp"

namespace localspan::serve {

struct ReferenceOracle {
  int n = 0;
  double base_radius = 0.0;
  double stretch_bound = 0.0;
  double near_threshold = 0.0;
  bool truncated = false;
  std::vector<double> radii;
  /// rows[ℓ][v]: label_ℓ(v), sorted by center.
  std::vector<std::vector<std::vector<graph::LabelEntry>>> rows;
};

[[nodiscard]] ReferenceOracle reference_oracle(const graph::CsrView& csr, const OracleConfig& cfg);

/// Every field, every level and every label row equal, bit for bit.
[[nodiscard]] bool operator==(const RoutingOracle& oracle, const ReferenceOracle& ref);

}  // namespace localspan::serve
