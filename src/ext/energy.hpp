#pragma once
/// \file energy.hpp
/// Extensions 2-3 of §1.6: energy metrics and the power-cost measure.
///
/// Radio energy grows superlinearly with range: transmitting across distance
/// L costs c·L^γ for a path-loss exponent γ >= 1 (2-4 in practice). The paper
/// states its algorithm still yields all three properties when edge weights
/// are c·|uv|^γ; we realize that by passing `energy_transform` as the
/// RelaxedGreedyOptions::weight_transform hook (bins stay on Euclidean
/// lengths; every weight and threshold is transformed consistently — see
/// RelaxedGreedyOptions::weight_transform). The power cost of §1.6 is in
/// graph/metrics.hpp.

#include <functional>

#include "graph/graph.hpp"
#include "ubg/generator.hpp"

namespace localspan::ext {

/// The weight transform len -> c·len^γ. \throws std::invalid_argument unless
/// c > 0 and gamma >= 1.
[[nodiscard]] std::function<double(double)> energy_transform(double c, double gamma);

/// Reweight a geometric graph's edges from Euclidean length to energy
/// c·len^γ (edge set unchanged). Used to build the energy-metric reference
/// graph that spanner stretch is measured against in E10.
[[nodiscard]] graph::Graph energy_reweight(const ubg::UbgInstance& inst, const graph::Graph& g,
                                           double c, double gamma);

}  // namespace localspan::ext
