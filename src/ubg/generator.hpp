#pragma once
/// \file generator.hpp
/// α-UBG instance generation (§1.1).
///
/// The paper evaluates nothing empirically, so the workload generator is our
/// substitute for a deployed wireless network: points are placed in a
/// d-dimensional box by one of three deployment models, edges follow the
/// α-UBG rule with a pluggable gray-zone policy, and edge weights are the
/// pairwise Euclidean distances (the only geometric information the
/// algorithm is allowed to use). The positions are drawn straight into the
/// instance's one `geom::Points` store; every layer reads them there.

#include <cstdint>

#include "geom/point.hpp"
#include "graph/graph.hpp"
#include "ubg/policy.hpp"

namespace localspan::ubg {

/// Node deployment models.
enum class Placement {
  kUniform,    ///< iid uniform in the box — the standard random network.
  kClustered,  ///< Gaussian blobs around random centers — hotspot deployments.
  kCorridor,   ///< long thin strip — stresses hop diameter and phase count.
};

/// Instance description. `side == 0` auto-sizes the box so that the expected
/// number of α-neighbors per node is `target_degree`.
struct UbgConfig {
  int n = 256;
  int dim = 2;
  double alpha = 0.75;
  double side = 0.0;
  double target_degree = 10.0;
  Placement placement = Placement::kUniform;
  std::uint64_t seed = 1;
};

/// A generated network: node positions plus the α-UBG with Euclidean weights.
/// The algorithm layers read the geometry through `points.distance(u, v)`
/// (and the cone test's `points.cos_at`): the model gives them pairwise
/// distances and nothing else.
struct UbgInstance {
  UbgConfig config;
  geom::Points points;
  graph::Graph g;
};

/// Generate an instance. \throws std::invalid_argument on invalid config
/// (n <= 0, dim outside [2, kMaxDim], alpha outside (0, 1]).
[[nodiscard]] UbgInstance make_ubg(const UbgConfig& cfg, const GrayZonePolicy& policy);

/// Convenience: uniform placement with the always-connect policy.
[[nodiscard]] UbgInstance make_ubg(const UbgConfig& cfg);

/// Exhaustive O(n^2) verification of the α-UBG model constraints:
/// every pair at distance <= alpha is an edge, no edge spans distance > 1.
/// For test use.
[[nodiscard]] bool is_valid_ubg(const UbgInstance& inst);

/// Volume of the d-dimensional Euclidean ball of radius r (used for box
/// auto-sizing; π^{d/2} r^d / Γ(d/2+1)).
[[nodiscard]] double ball_volume(int dim, double r);

}  // namespace localspan::ubg
