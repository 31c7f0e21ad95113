#pragma once
/// \file scenario_matrix.hpp
/// Shared test-infrastructure layer: a deterministic scenario matrix over the
/// α-UBG workload space. End-to-end tests instantiate TEST_P suites over
/// (dim, placement, alpha, n, seed) combinations instead of hand-rolling one
/// ad-hoc instance per test, so every pipeline property is exercised across
/// dimensions and deployment models with reproducible seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "dynamic/churn.hpp"
#include "ubg/generator.hpp"

namespace localspan::testinfra {

/// One point of the scenario matrix. Fully determines a UBG instance.
struct Scenario {
  int dim = 2;
  ubg::Placement placement = ubg::Placement::kUniform;
  double alpha = 0.75;
  int n = 128;
  std::uint64_t seed = 1;

  /// gtest-safe identifier, e.g. "d2_uniform_a075_n128_s1".
  [[nodiscard]] std::string name() const {
    const char* place = placement == ubg::Placement::kUniform     ? "uniform"
                        : placement == ubg::Placement::kClustered ? "clustered"
                                                                  : "corridor";
    char alpha_buf[16];
    std::snprintf(alpha_buf, sizeof(alpha_buf), "%03d",
                  static_cast<int>(alpha * 100.0 + 0.5));
    return "d" + std::to_string(dim) + "_" + place + "_a" + alpha_buf + "_n" +
           std::to_string(n) + "_s" + std::to_string(seed);
  }

  [[nodiscard]] ubg::UbgConfig config() const {
    ubg::UbgConfig cfg;
    cfg.n = n;
    cfg.dim = dim;
    cfg.alpha = alpha;
    cfg.placement = placement;
    cfg.seed = seed;
    return cfg;
  }

  /// Deterministic instance: same Scenario -> bitwise-identical network.
  [[nodiscard]] ubg::UbgInstance make() const { return ubg::make_ubg(config()); }
};

/// Axes of the matrix; the cross product of all vectors is enumerated.
struct MatrixSpec {
  std::vector<int> dims{2, 3};
  std::vector<ubg::Placement> placements{ubg::Placement::kUniform,
                                         ubg::Placement::kClustered};
  std::vector<double> alphas{0.6, 0.75, 1.0};
  std::vector<int> ns{64, 128};
  std::vector<std::uint64_t> seeds{1};
};

/// Enumerate the full cross product, in deterministic axis order.
[[nodiscard]] inline std::vector<Scenario> scenario_matrix(const MatrixSpec& spec) {
  std::vector<Scenario> out;
  out.reserve(spec.dims.size() * spec.placements.size() * spec.alphas.size() *
              spec.ns.size() * spec.seeds.size());
  for (int dim : spec.dims) {
    for (ubg::Placement placement : spec.placements) {
      for (double alpha : spec.alphas) {
        for (int n : spec.ns) {
          for (std::uint64_t seed : spec.seeds) {
            out.push_back(Scenario{dim, placement, alpha, n, seed});
          }
        }
      }
    }
  }
  return out;
}

/// The standard end-to-end matrix: dims {2,3} x placements {uniform,
/// clustered} x alphas {0.6, 0.75, 1.0} x n in {64, 128}, seed 1 (24 cells).
[[nodiscard]] inline std::vector<Scenario> standard_matrix() {
  return scenario_matrix(MatrixSpec{});
}

/// A trimmed matrix for expensive pipelines (8 cells): one alpha, both dims
/// and placements, two sizes.
[[nodiscard]] inline std::vector<Scenario> smoke_matrix() {
  MatrixSpec spec;
  spec.alphas = {0.75};
  spec.ns = {48, 96};
  return scenario_matrix(spec);
}

/// Name generator for INSTANTIATE_TEST_SUITE_P over Scenario params.
struct ScenarioName {
  std::string operator()(const ::testing::TestParamInfo<Scenario>& info) const {
    return info.param.name();
  }
};

// ---------------------------------------------------------------------------
// Churn scenarios: a base deployment plus a deterministic event trace, for
// the dynamic-topology pipeline (dynamic/dynamic_spanner.hpp).
// ---------------------------------------------------------------------------

enum class ChurnModel { kPoisson, kWaypoint, kRegional };

/// One dynamic-topology cell: fully determines (instance, trace).
struct ChurnScenario {
  Scenario base;
  ChurnModel model = ChurnModel::kPoisson;
  int events = 48;  ///< target event count (poisson exact; waypoint approximate).
  std::uint64_t trace_seed = 1;

  [[nodiscard]] std::string name() const {
    const char* m = model == ChurnModel::kPoisson    ? "poisson"
                    : model == ChurnModel::kWaypoint ? "waypoint"
                                                     : "regional";
    return base.name() + "_" + m + "_e" + std::to_string(events);
  }

  [[nodiscard]] dynamic::ChurnTrace make_trace(const ubg::UbgInstance& inst) const {
    switch (model) {
      case ChurnModel::kPoisson: {
        dynamic::PoissonChurnConfig cfg;
        cfg.events = events;
        cfg.seed = trace_seed;
        return dynamic::poisson_churn(inst, cfg);
      }
      case ChurnModel::kWaypoint: {
        dynamic::WaypointConfig cfg;
        cfg.movers = std::max(2, base.n / 24);
        cfg.sample_dt = 0.25;
        cfg.duration = cfg.sample_dt * events / cfg.movers;
        cfg.seed = trace_seed;
        return dynamic::random_waypoint(inst, cfg);
      }
      case ChurnModel::kRegional: {
        dynamic::RegionalFailureConfig cfg;
        cfg.radius = 1.25;
        cfg.seed = trace_seed;
        return dynamic::regional_failure(inst, cfg);
      }
    }
    return {};
  }
};

/// The standard churn matrix: three deployment cells crossed with the three
/// event models (9 cells) — every model meets two dimensions and two
/// placements while staying cheap enough for per-event invariant checking.
[[nodiscard]] inline std::vector<ChurnScenario> churn_matrix() {
  const std::vector<Scenario> bases{
      Scenario{2, ubg::Placement::kUniform, 0.75, 96, 1},
      Scenario{2, ubg::Placement::kClustered, 0.75, 96, 1},
      Scenario{3, ubg::Placement::kUniform, 0.6, 64, 1},
  };
  std::vector<ChurnScenario> out;
  for (const Scenario& base : bases) {
    for (ChurnModel model :
         {ChurnModel::kPoisson, ChurnModel::kWaypoint, ChurnModel::kRegional}) {
      out.push_back(ChurnScenario{base, model, 48, 1});
    }
  }
  return out;
}

/// Name generator for INSTANTIATE_TEST_SUITE_P over ChurnScenario params.
struct ChurnScenarioName {
  std::string operator()(const ::testing::TestParamInfo<ChurnScenario>& info) const {
    return info.param.name();
  }
};

/// FNV-1a over the raw bytes of every value fed in: the 64-bit digest the
/// golden-pin suites record a whole run with.
class Digest {
 public:
  template <class T>
  void add(T v) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    for (char c : s) add(c);
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace localspan::testinfra
