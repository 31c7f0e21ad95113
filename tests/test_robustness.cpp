// Robustness, failure-injection and adversarial-input tests across the
// whole pipeline: degenerate instances, coincident points, broken MIS
// plug-ins, disconnected networks, and message-level validation of the
// distributed phase-0 (§3.1) against the central computation.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cover.hpp"
#include "core/distributed.hpp"
#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "ext/energy.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "gather_reference.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace cl = localspan::cluster;
namespace gr = localspan::graph;
namespace rt = localspan::runtime;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance instance(std::uint64_t seed, int n = 120, double alpha = 0.75) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

TEST(Degenerate, SingleAndTwoNodeInstances) {
  for (int n : {1, 2, 3}) {
    ub::UbgConfig cfg;
    cfg.n = n;
    cfg.alpha = 0.75;
    cfg.side = 0.5;  // force everything within range
    cfg.seed = 1;
    const auto inst = ub::make_ubg(cfg);
    const core::Params params = core::Params::practical_params(0.5, 0.75);
    const auto result = core::relaxed_greedy(inst, params);
    EXPECT_TRUE(core::verify_spanner(inst, result.spanner, params.t).ok());
    const auto dist = core::distributed_relaxed_greedy(inst, params, {}, 1);
    EXPECT_TRUE(core::verify_spanner(inst, dist.base.spanner, params.t).ok());
  }
}

TEST(Degenerate, CoincidentPointsSurviveThePipeline) {
  // Several radios at identical coordinates: zero distances become the
  // generator's 1e-12 epsilon edges; the pipeline must not divide by zero.
  ub::UbgInstance inst;
  inst.config.n = 6;
  inst.config.dim = 2;
  inst.config.alpha = 0.75;
  inst.points = {{0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}, {0.5, 0.5}, {0.5, 0.5}, {0.9, 0.1}};
  inst.g = gr::Graph(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      const double d = inst.points.distance(u, v);
      if (d <= 1.0) inst.g.add_edge(u, v, std::max(d, 1e-12));
    }
  }
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  EXPECT_EQ(gr::connected_components(result.spanner).count,
            gr::connected_components(inst.g).count);
}

TEST(Degenerate, EdgelessNetwork) {
  ub::UbgConfig cfg;
  cfg.n = 30;
  cfg.alpha = 0.2;
  cfg.side = 1000.0;  // everyone isolated
  cfg.seed = 2;
  const auto inst = ub::make_ubg(cfg, *ub::never_connect());
  ASSERT_EQ(inst.g.m(), 0);
  const core::Params params = core::Params::practical_params(0.5, 0.2);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_EQ(result.spanner.m(), 0);
}

TEST(Degenerate, DisconnectedNetworkGetsPerComponentSpanners) {
  // Two far-apart clusters of radios.
  ub::UbgInstance inst;
  inst.config.n = 40;
  inst.config.dim = 2;
  inst.config.alpha = 0.75;
  for (int i = 0; i < 20; ++i) {
    inst.points.push_back({0.05 * i, 0.0});
    inst.points.push_back({0.05 * i + 100.0, 0.0});
  }
  inst.g = gr::Graph(40);
  for (int u = 0; u < 40; ++u) {
    for (int v = u + 1; v < 40; ++v) {
      const double d = inst.points.distance(u, v);
      if (d <= 1.0) inst.g.add_edge(u, v, std::max(d, 1e-12));
    }
  }
  ASSERT_EQ(gr::connected_components(inst.g).count, 2);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_EQ(gr::connected_components(result.spanner).count, 2);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
}

// Scenario matrix: sequential and distributed drivers must land in the same
// quality regime on every cell of the shared (dim, placement) grid — the
// cross-validation argument of CrossValidation.SequentialAndDistributedAgree,
// generalized beyond a single hand-picked instance.
class CrossValidationMatrix : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(CrossValidationMatrix, DriversAgreeOnQualityAcrossTheMatrix) {
  const ti::Scenario& sc = GetParam();
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  const auto seq = core::relaxed_greedy(inst, params);
  const auto dist = core::distributed_relaxed_greedy(inst, params, {}, sc.seed);
  EXPECT_TRUE(core::verify_spanner(inst, seq.spanner, params.t).ok()) << sc.name();
  EXPECT_TRUE(core::verify_spanner(inst, dist.base.spanner, params.t).ok()) << sc.name();
  if (seq.spanner.m() > 0) {
    const double m_ratio =
        static_cast<double>(dist.base.spanner.m()) / std::max(1, seq.spanner.m());
    EXPECT_GT(m_ratio, 0.5) << sc.name();
    EXPECT_LT(m_ratio, 2.0) << sc.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, CrossValidationMatrix,
                         ::testing::ValuesIn(ti::smoke_matrix()), ti::ScenarioName{});

TEST(FailureInjection, BrokenMisIsDetected) {
  // mis_cover must reject a "MIS" that is not maximal (a vertex left with no
  // dominating center cannot be attached).
  const auto inst = instance(3, 60);
  const gr::CsrView gp(core::seq_greedy(inst.g, 1.5));
  gr::DijkstraWorkspace ws;
  const auto empty_mis = [](const gr::Graph&) { return std::vector<int>{}; };
  EXPECT_THROW(static_cast<void>(cl::mis_cover(gp, 0.2, ws, empty_mis)), std::logic_error);
}

TEST(FailureInjection, VerifierCatchesSabotagedSpanner) {
  const auto inst = instance(4, 100);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  ASSERT_TRUE(core::verify_spanner(inst, result.spanner, params.t).ok());
  // Sabotage: find an edge whose removal provably violates the contract
  // (redundant edges can mask each other, so search rather than guess).
  bool caught = false;
  for (const gr::Edge& e : result.spanner.edges()) {
    gr::Graph damaged = result.spanner;
    damaged.remove_edge(e.u, e.v);
    const auto rep = core::verify_spanner(inst, damaged, params.t);
    if (!(rep.stretch_ok && rep.connectivity_ok)) {
      caught = true;
      break;
    }
  }
  EXPECT_TRUE(caught) << "no single-edge removal was detected by the verifier";
}

TEST(Distributed, Phase0MatchesMessageLevelExecution) {
  // §3.1 / Theorem 14: each node learns its closed neighborhood (2 rounds of
  // flooding) and can then compute its G_0 component locally. Validate that
  // the 2-hop views from the real gather protocol contain each node's entire
  // G_0 component and all its internal edges — the information the
  // distributed phase 0 needs.
  ub::UbgConfig cfg;
  cfg.n = 120;
  cfg.alpha = 0.9;
  cfg.side = 1.2;  // dense: nontrivial G_0 components
  cfg.seed = 5;
  const auto inst = ub::make_ubg(cfg);
  const double w0 = cfg.alpha / cfg.n;
  gr::Graph g0(inst.g.n());
  for (const gr::Edge& e : inst.g.edges()) {
    if (e.w <= w0) g0.add_edge(e.u, e.v, e.w);
  }
  const gr::Components comps = gr::connected_components(g0);
  rt::RoundLedger ledger;
  const auto views = rt::khop_views(inst.g, 2, &ledger, "phase0");
  EXPECT_EQ(ledger.rounds(), 2);
  for (int v = 0; v < inst.g.n(); ++v) {
    for (const gr::Edge& e : g0.edges()) {
      if (comps.label[static_cast<std::size_t>(e.u)] !=
          comps.label[static_cast<std::size_t>(v)]) {
        continue;
      }
      EXPECT_TRUE(views[static_cast<std::size_t>(v)].has_edge(e.u, e.v))
          << "node " << v << " missing component edge {" << e.u << "," << e.v << "}";
    }
  }
}

TEST(Distributed, EnergyTransformComposes) {
  const auto inst = instance(6, 100);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions opts;
  opts.weight_transform = localspan::ext::energy_transform(1.0, 2.0);
  const auto result = core::distributed_relaxed_greedy(inst, params, opts, 6);
  const gr::Graph reference = localspan::ext::energy_reweight(inst, inst.g, 1.0, 2.0);
  EXPECT_LE(gr::max_edge_stretch(reference, result.base.spanner), params.t * (1.0 + 1e-9));
}

TEST(Distributed, DifferentSeedsBothSatisfyProperties) {
  const auto inst = instance(7, 110);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  gr::Graph first(0);
  bool saw_difference = false;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto result = core::distributed_relaxed_greedy(inst, params, {}, seed);
    EXPECT_TRUE(core::verify_spanner(inst, result.base.spanner, params.t).ok()) << seed;
    if (first.n() == 0) {
      first = result.base.spanner;
    } else if (!(first == result.base.spanner)) {
      saw_difference = true;
    }
  }
  // Luby randomness shows up in the output; the guarantees hold regardless.
  SUCCEED() << (saw_difference ? "outputs differ across seeds" : "outputs happen to agree");
}

TEST(CrossValidation, SequentialAndDistributedAgreeOnQuality) {
  // Not edge-identical (different cluster covers), but the quality metrics
  // of the two drivers must land in the same regime.
  const auto inst = instance(8, 150);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto seq = core::relaxed_greedy(inst, params);
  const auto dist = core::distributed_relaxed_greedy(inst, params, {}, 8);
  const double m_ratio =
      static_cast<double>(dist.base.spanner.m()) / std::max(1, seq.spanner.m());
  EXPECT_GT(m_ratio, 0.7);
  EXPECT_LT(m_ratio, 1.4);
  EXPECT_NEAR(gr::lightness(inst.g, dist.base.spanner), gr::lightness(inst.g, seq.spanner),
              2.0);
}

TEST(CrossValidation, PracticalNeverBeatsStrictOnWeightByMuch) {
  // Strict parameters exist to make the weight proof go through; empirically
  // they should dominate (or tie) the practical preset on lightness.
  const auto inst = instance(9, 140);
  const auto strict =
      core::relaxed_greedy(inst, core::Params::strict_params(0.5, 0.75));
  const auto practical =
      core::relaxed_greedy(inst, core::Params::practical_params(0.5, 0.75));
  EXPECT_LE(gr::lightness(inst.g, strict.spanner),
            gr::lightness(inst.g, practical.spanner) + 0.5);
}

TEST(Params, StressEpsilonExtremes) {
  // Very small and very large eps still produce valid parameterizations and
  // working runs on a small instance.
  const auto inst = instance(10, 60);
  for (double eps : {0.02, 8.0}) {
    const core::Params params = core::Params::practical_params(eps, 0.75);
    const auto result = core::relaxed_greedy(inst, params);
    EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9))
        << "eps=" << eps;
  }
}

TEST(Params, StrictTinyEpsilonStillFeasible) {
  const core::Params p = core::Params::strict_params(0.01, 0.75);
  EXPECT_TRUE(p.satisfies_weight_conditions()) << p.describe();
  EXPECT_GT(p.r, 1.0);
  // Bin count for n=1000 stays finite and sane.
  const core::BinSchema schema(0.75, p.r, 1000);
  EXPECT_LT(schema.max_bin(), 200000);
}
