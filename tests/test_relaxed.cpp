// End-to-end and white-box tests for the sequential relaxed greedy algorithm
// (§2) — the paper's Theorems 2, 10, 11, 13 as executable properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <random>
#include <utility>
#include <vector>

#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "graph/components.hpp"
#include "dijkstra_reference.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "mis_reference.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace gr = localspan::graph;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance instance(std::uint64_t seed, int n = 180, double alpha = 0.75, int dim = 2,
                         ub::Placement placement = ub::Placement::kUniform) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.dim = dim;
  cfg.placement = placement;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

// ---------------------------------------------------------------------------
// End-to-end properties, swept over (eps, alpha, seed) with TEST_P.

struct EndToEndCase {
  double eps;
  double alpha;
  std::uint64_t seed;
  bool strict;
};

class RelaxedEndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(RelaxedEndToEnd, ThreeSpannerPropertiesHold) {
  const auto& c = GetParam();
  const auto inst = instance(c.seed, 160, c.alpha);
  const core::Params params = c.strict ? core::Params::strict_params(c.eps, c.alpha)
                                       : core::Params::practical_params(c.eps, c.alpha);
  const auto result = core::relaxed_greedy(inst, params);

  // Theorem 10: (1+eps)-stretch over every edge of G.
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9))
      << params.describe();

  // Output is a subgraph of G (all additions are G edges; Lemma 1 covers
  // the phase-0 clique edges).
  for (const gr::Edge& e : result.spanner.edges()) {
    EXPECT_TRUE(inst.g.has_edge(e.u, e.v));
  }

  // Theorem 11: bounded degree (generous constant; E2 tracks flatness in n).
  EXPECT_LE(result.spanner.max_degree(), 40) << params.describe();

  // Theorem 13: lightness bounded (generous constant; E3 tracks it in n).
  EXPECT_LE(gr::lightness(inst.g, result.spanner), 8.0) << params.describe();

  // Connectivity preserved (t-spanner of each component).
  EXPECT_EQ(gr::connected_components(inst.g).count,
            gr::connected_components(result.spanner).count);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelaxedEndToEnd,
    ::testing::Values(EndToEndCase{0.5, 0.75, 1, true}, EndToEndCase{0.5, 0.75, 2, true},
                      EndToEndCase{0.25, 0.75, 3, true}, EndToEndCase{1.0, 0.75, 4, true},
                      EndToEndCase{0.5, 0.5, 5, true}, EndToEndCase{0.5, 1.0, 6, true},
                      EndToEndCase{0.5, 0.75, 7, false}, EndToEndCase{0.25, 0.6, 8, false},
                      EndToEndCase{2.0, 0.75, 9, true}, EndToEndCase{1.0, 0.4, 10, false}));

// Scenario matrix: the shared (dim x placement x alpha x n x seed) grid from
// scenario_matrix.hpp. Every cell must satisfy the full spanner contract.
class RelaxedScenarioMatrix : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(RelaxedScenarioMatrix, SpannerContractHoldsAcrossTheMatrix) {
  const ti::Scenario& sc = GetParam();
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9))
      << sc.name();
  EXPECT_EQ(gr::connected_components(inst.g).count,
            gr::connected_components(result.spanner).count)
      << sc.name();
  for (const gr::Edge& e : result.spanner.edges()) {
    ASSERT_TRUE(inst.g.has_edge(e.u, e.v)) << sc.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, RelaxedScenarioMatrix,
                         ::testing::ValuesIn(ti::standard_matrix()), ti::ScenarioName{});

// Cross-product sweep: dimension x placement x gray-zone policy. Every cell
// must satisfy the exact stretch bound — the paper's guarantee is
// unconditional over the alpha-UBG model class.
struct ModelCase {
  int dim;
  ub::Placement placement;
  int policy;  // 0 always, 1 never, 2 probabilistic
};

class RelaxedModelSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(RelaxedModelSweep, StretchHoldsAcrossTheModelClass) {
  const ModelCase& c = GetParam();
  ub::UbgConfig cfg;
  cfg.n = 120;
  cfg.dim = c.dim;
  cfg.alpha = 0.7;
  cfg.placement = c.placement;
  cfg.seed = 99;
  std::unique_ptr<ub::GrayZonePolicy> policy;
  if (c.policy == 0) policy = ub::always_connect();
  if (c.policy == 1) policy = ub::never_connect();
  if (c.policy == 2) policy = ub::probabilistic(0.5, 7);
  const auto inst = ub::make_ubg(cfg, *policy);
  const core::Params params = core::Params::practical_params(0.5, 0.7);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  EXPECT_EQ(gr::connected_components(inst.g).count,
            gr::connected_components(result.spanner).count);
}

INSTANTIATE_TEST_SUITE_P(
    ModelCross, RelaxedModelSweep,
    ::testing::Values(ModelCase{2, ub::Placement::kUniform, 1},
                      ModelCase{2, ub::Placement::kClustered, 2},
                      ModelCase{2, ub::Placement::kCorridor, 0},
                      ModelCase{3, ub::Placement::kUniform, 2},
                      ModelCase{3, ub::Placement::kClustered, 0},
                      ModelCase{3, ub::Placement::kCorridor, 1},
                      ModelCase{4, ub::Placement::kUniform, 0},
                      ModelCase{4, ub::Placement::kClustered, 1},
                      ModelCase{4, ub::Placement::kCorridor, 2}));

TEST(RelaxedGreedy, WorksInThreeDimensions) {
  const auto inst = instance(21, 150, 0.7, 3);
  const core::Params params = core::Params::practical_params(0.5, 0.7);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  EXPECT_LE(result.spanner.max_degree(), 60);
}

TEST(RelaxedGreedy, WorksOnCorridorPlacement) {
  const auto inst = instance(22, 150, 0.75, 2, ub::Placement::kCorridor);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
}

TEST(RelaxedGreedy, WorksOnClusteredPlacement) {
  const auto inst = instance(23, 150, 0.75, 2, ub::Placement::kClustered);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
}

TEST(RelaxedGreedy, GrayZonePoliciesAllSatisfyStretch) {
  ub::UbgConfig cfg;
  cfg.n = 150;
  cfg.alpha = 0.6;
  cfg.seed = 31;
  const core::Params params = core::Params::practical_params(0.5, 0.6);
  for (int which = 0; which < 3; ++which) {
    std::unique_ptr<ub::GrayZonePolicy> policy;
    if (which == 0) policy = ub::never_connect();
    if (which == 1) policy = ub::probabilistic(0.5, 11);
    if (which == 2) policy = ub::threshold(0.8);
    const auto inst = ub::make_ubg(cfg, *policy);
    const auto result = core::relaxed_greedy(inst, params);
    EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9))
        << policy->name();
  }
}

TEST(RelaxedGreedy, DeterministicAcrossRuns) {
  const auto inst = instance(41);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto r1 = core::relaxed_greedy(inst, params);
  const auto r2 = core::relaxed_greedy(inst, params);
  EXPECT_EQ(r1.spanner, r2.spanner);
}

TEST(RelaxedGreedy, RejectsAlphaMismatch) {
  const auto inst = instance(42, 50, 0.75);
  const core::Params params = core::Params::practical_params(0.5, 0.6);
  EXPECT_THROW(static_cast<void>(core::relaxed_greedy(inst, params)), std::invalid_argument);
}

TEST(RelaxedGreedy, PhaseStatsAreConsistent) {
  const auto inst = instance(43);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  ASSERT_FALSE(result.phases.empty());
  EXPECT_EQ(result.phases.front().bin, 0);
  int added_total = 0;
  for (std::size_t i = 1; i < result.phases.size(); ++i) {
    const core::PhaseStats& st = result.phases[i];
    EXPECT_GT(st.edges_in_bin, 0);  // empty bins are skipped
    EXPECT_EQ(st.edges_in_bin, st.already_in_spanner + st.covered + st.candidates);
    EXPECT_LE(st.queries, st.candidates);
    EXPECT_LE(st.added, st.queries);
    EXPECT_LE(st.removed, st.added);
    EXPECT_GT(st.clusters, 0);
    EXPECT_GT(st.w_hi, st.w_lo);
    EXPECT_GT(result.phases[i].bin, result.phases[i - 1].bin);  // ascending
    added_total += st.added - st.removed;
  }
  EXPECT_EQ(result.spanner.m(), added_total + result.phases.front().added);
  EXPECT_EQ(result.nonempty_bins, static_cast<int>(result.phases.size()) - 1);
}

TEST(RelaxedGreedy, PhaseCountIsLogarithmic) {
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto small = core::relaxed_greedy(instance(44, 100), params);
  const auto large = core::relaxed_greedy(instance(44, 400), params);
  // total bins m = ceil(log_r(n/alpha)) grows logarithmically.
  const double expect_small = std::ceil(std::log(100 / 0.75) / std::log(params.r));
  const double expect_large = std::ceil(std::log(400 / 0.75) / std::log(params.r));
  EXPECT_EQ(small.total_bins, static_cast<int>(expect_small) + 1);
  EXPECT_EQ(large.total_bins, static_cast<int>(expect_large) + 1);
}

TEST(RelaxedGreedy, RedundancyRemovalAblationOnlyAddsEdges) {
  const auto inst = instance(45);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions with;
  core::RelaxedGreedyOptions without;
  without.redundancy_removal = false;
  const auto a = core::relaxed_greedy(inst, params, with);
  const auto b = core::relaxed_greedy(inst, params, without);
  EXPECT_GE(b.spanner.m(), a.spanner.m());
  // Both still t-spanners.
  EXPECT_LE(gr::max_edge_stretch(inst.g, b.spanner), params.t * (1.0 + 1e-9));
}

TEST(RelaxedGreedy, CoveredFilterAblationKeepsGuarantees) {
  const auto inst = instance(48);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions no_filter;
  no_filter.covered_edge_filter = false;
  const auto result = core::relaxed_greedy(inst, params, no_filter);
  // Stretch and degree still hold (the filter is a degree-proof device and a
  // work-saver, not a correctness requirement for not-adding decisions).
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  EXPECT_LE(result.spanner.max_degree(), 40);
  for (const core::PhaseStats& st : result.phases) EXPECT_EQ(st.covered, 0);
}

TEST(RelaxedGreedy, CoveredFilterReducesQueries) {
  const auto inst = instance(49);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions no_filter;
  no_filter.covered_edge_filter = false;
  const auto with = core::relaxed_greedy(inst, params);
  const auto without = core::relaxed_greedy(inst, params, no_filter);
  long long queries_with = 0;
  long long queries_without = 0;
  for (const auto& st : with.phases) queries_with += st.queries;
  for (const auto& st : without.phases) queries_without += st.queries;
  EXPECT_LT(queries_with, queries_without);
}

TEST(RelaxedGreedy, LeapfrogPropertySampledOnOutput) {
  // Theorem 13's engine: sampled leapfrog violations of the output should be
  // absent for t2 within the paper's range.
  const auto inst = instance(46);
  const core::Params params = core::Params::strict_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  const auto dist = [&](int u, int v) { return u == v ? 0.0 : inst.dist(u, v); };
  EXPECT_EQ(gr::leapfrog_violations(result.spanner, dist, 1.05, params.t, 500, 7), 0);
}

TEST(RelaxedGreedy, QualityTracksSeqGreedyAcrossSeeds) {
  // Regression guardrail for the §2 relaxations: with strict parameters the
  // relaxed output must stay within modest factors of classical SEQ-GREEDY
  // (the paper's whole point is that relaxation costs ~nothing in quality).
  const core::Params params = core::Params::strict_params(0.5, 0.75);
  for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
    const auto inst = instance(seed, 140);
    const auto relaxed = core::relaxed_greedy(inst, params);
    const gr::Graph greedy = core::seq_greedy(inst.g, params.t);
    EXPECT_LE(relaxed.spanner.m(), static_cast<int>(1.35 * greedy.m()) + 4) << seed;
    EXPECT_LE(gr::lightness(inst.g, relaxed.spanner),
              1.5 * gr::lightness(inst.g, greedy) + 0.2)
        << seed;
    EXPECT_LE(relaxed.spanner.max_degree(), greedy.max_degree() + 6) << seed;
  }
}

TEST(RelaxedGreedy, Phase0CliqueCapFallbackPath) {
  // A G_0 component bigger than the cap: the fallback spans it with greedy
  // over component-internal UBG edges and the guarantees must still hold.
  ub::UbgInstance inst;
  inst.config.n = 6;
  inst.config.dim = 2;
  inst.config.alpha = 0.75;  // w0 = alpha/n = 0.125
  inst.points = {{0.00, 0.0}, {0.05, 0.0}, {0.00, 0.05}, {0.05, 0.05},  // tiny clump
                 {0.60, 0.0}, {0.60, 0.6}};
  inst.g = gr::Graph(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      const double d = inst.dist(u, v);
      if (d <= 1.0) inst.g.add_edge(u, v, std::max(d, 1e-12));
    }
  }
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions opts;
  opts.phase0_clique_cap = 2;  // force the fallback for the 4-clump
  const auto result = core::relaxed_greedy(inst, params, opts);
  EXPECT_EQ(result.phase0_components, 1);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  // Fallback must not smuggle in edges that leave the clump in phase 0:
  // every spanner edge inside bin 0 has both endpoints in the clump.
  for (const gr::Edge& e : result.spanner.edges()) {
    if (e.w <= 0.125) {
      EXPECT_LT(e.u, 4);
      EXPECT_LT(e.v, 4);
    }
  }
}

// ---------------------------------------------------------------------------
// White-box tests of the §2.2 phase steps.

namespace {

bool covered(const ub::UbgInstance& inst, const gr::Graph& gp, const core::detail::PhaseEdge& e,
             double theta) {
  return core::detail::is_covered_edge(gr::SoaPoints(inst.points), inst.config.alpha,
                                       gr::CsrView(gp), e, theta);
}

}  // namespace

TEST(CoveredEdge, DetectsTextbookConfiguration) {
  // z in the θ-cone of u->v, {u,z} already in the spanner, |vz| <= alpha.
  ub::UbgInstance inst;
  inst.config.alpha = 0.75;
  inst.config.dim = 2;
  inst.config.n = 3;
  inst.points = {{0.0, 0.0}, {0.9, 0.0}, {0.45, 0.01}};  // u, v, z (z near uv segment)
  inst.g = gr::Graph(3);
  inst.g.add_edge(0, 1, inst.dist(0, 1));
  inst.g.add_edge(0, 2, inst.dist(0, 2));
  inst.g.add_edge(1, 2, inst.dist(1, 2));
  gr::Graph gp(3);
  gp.add_edge(0, 2, inst.dist(0, 2));  // {u,z} in G'_{i-1}
  const core::detail::PhaseEdge e{0, 1, inst.dist(0, 1), inst.dist(0, 1)};
  EXPECT_TRUE(covered(inst, gp, e, 0.1));
  // Without the prior edge {u,z} it is not covered.
  EXPECT_FALSE(covered(inst, gp, {0, 2, inst.dist(0, 2), inst.dist(0, 2)}, 0.1));
}

TEST(CoveredEdge, RespectsThetaAndAlphaLimits) {
  ub::UbgInstance inst;
  inst.config.alpha = 0.3;  // small alpha: |vz| too long
  inst.config.dim = 2;
  inst.config.n = 3;
  inst.points = {{0.0, 0.0}, {0.9, 0.0}, {0.45, 0.01}};
  inst.g = gr::Graph(3);
  gr::Graph gp(3);
  gp.add_edge(0, 2, inst.dist(0, 2));
  const core::detail::PhaseEdge e{0, 1, inst.dist(0, 1), inst.dist(0, 1)};
  EXPECT_FALSE(covered(inst, gp, e, 0.1));  // |vz| = .45 > alpha
  inst.config.alpha = 0.75;
  EXPECT_FALSE(covered(inst, gp, e, 0.001));  // cone too narrow
}

TEST(CoveredEdge, SymmetricSideWorks) {
  // The witness sits at v's side: {v,z} in G', |uz| <= alpha, angle uvz small.
  ub::UbgInstance inst;
  inst.config.alpha = 0.75;
  inst.config.dim = 2;
  inst.config.n = 3;
  inst.points = {{0.0, 0.0}, {0.9, 0.0}, {0.45, 0.01}};
  inst.g = gr::Graph(3);
  gr::Graph gp(3);
  gp.add_edge(1, 2, inst.dist(1, 2));  // edge at v
  const core::detail::PhaseEdge e{0, 1, inst.dist(0, 1), inst.dist(0, 1)};
  EXPECT_TRUE(covered(inst, gp, e, 0.1));
}

TEST(QuerySelection, OneEdgePerClusterPair) {
  // Two clusters of two vertices each, three candidate edges across.
  gr::Graph gp(4);
  gp.add_edge(0, 1, 0.05);  // cluster {0,1}
  gp.add_edge(2, 3, 0.05);  // cluster {2,3}
  gr::DijkstraWorkspace ws(gp.n());
  const auto cover = localspan::cluster::sequential_cover(gr::CsrView(gp), 0.1, ws);
  ASSERT_EQ(cover.centers.size(), 2u);
  std::vector<core::detail::PhaseEdge> cands{
      {0, 2, 0.5, 0.5}, {1, 3, 0.45, 0.45}, {0, 3, 0.55, 0.55}};
  int per_cluster = 0;
  const auto selected = core::detail::select_query_edges(cands, cover, 1.5, &per_cluster);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(per_cluster, 1);
  // Minimizer of t*w - sp(a,x) - sp(b,y): edge {1,3} has w=.45 and
  // sp-to-center .05 both sides => 0.575; {0,2}: .75; {0,3}: .775.
  EXPECT_EQ(selected[0].u, 1);
  EXPECT_EQ(selected[0].v, 3);
}

TEST(QuerySelection, DistinctPairsKeepDistinctEdges) {
  gr::Graph gp(6);  // three singleton-ish clusters at mutual distance
  gr::DijkstraWorkspace ws(gp.n());
  const auto cover = localspan::cluster::sequential_cover(gr::CsrView(gp), 0.0, ws);
  std::vector<core::detail::PhaseEdge> cands{{0, 1, 0.5, 0.5}, {2, 3, 0.5, 0.5}, {4, 5, 0.5, 0.5}};
  int per_cluster = 0;
  const auto selected = core::detail::select_query_edges(cands, cover, 1.5, &per_cluster);
  EXPECT_EQ(selected.size(), 3u);
  EXPECT_EQ(per_cluster, 1);
}

TEST(AnswerQueries, AddsExactlyTheUnreachable) {
  gr::Graph h(4);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  // Query {0,2}: H-path of 2.0 <= t*w for w=1.5, t=1.5 (2.25) -> not added.
  // Query {0,3}: no H-path -> added.
  std::vector<core::detail::PhaseEdge> queries{{0, 2, 1.5, 1.5}, {0, 3, 1.5, 1.5}};
  int hops = 0;
  gr::DijkstraWorkspace ws;
  const auto to_add = core::detail::answer_queries(ws, gr::CsrView(h), queries, 1.5, &hops);
  ASSERT_EQ(to_add.size(), 1u);
  EXPECT_EQ(to_add[0].v, 3);
  EXPECT_EQ(hops, 2);
}

TEST(Redundancy, ParallelCloseEdgesConflict) {
  // Two nearly-parallel edges whose endpoints are joined by tiny H-paths:
  // mutually redundant; exactly one must be removed.
  gr::Graph h(4);
  h.add_edge(0, 2, 0.01);  // u ~ u'
  h.add_edge(1, 3, 0.01);  // v ~ v'
  std::vector<core::detail::PhaseEdge> added{{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}};
  const double t1 = 1.25;
  gr::DijkstraWorkspace ws;
  const gr::Graph j = core::detail::redundancy_conflict_graph(ws, gr::CsrView(h), added, t1);
  EXPECT_EQ(j.m(), 1);
  const auto removal = core::detail::redundant_edge_removal(
      ws, gr::CsrView(h), added, t1,
      [](const gr::Graph& jj) { return localspan::mis::greedy_mis(jj); });
  EXPECT_EQ(removal.size(), 1u);
}

TEST(Redundancy, FarEdgesDoNotConflict) {
  gr::Graph h(4);  // no H connectivity between the pairs
  std::vector<core::detail::PhaseEdge> added{{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}};
  gr::DijkstraWorkspace ws;
  const gr::Graph j = core::detail::redundancy_conflict_graph(ws, gr::CsrView(h), added, 1.25);
  EXPECT_EQ(j.m(), 0);
  const auto removal = core::detail::redundant_edge_removal(
      ws, gr::CsrView(h), added, 1.25,
      [](const gr::Graph& jj) { return localspan::mis::greedy_mis(jj); });
  EXPECT_TRUE(removal.empty());
}

TEST(Redundancy, SwappedPairingIsDetected) {
  // u close to v', v close to u' (the crossed pairing).
  gr::Graph h(4);
  h.add_edge(0, 3, 0.01);  // u ~ v'
  h.add_edge(1, 2, 0.01);  // v ~ u'
  std::vector<core::detail::PhaseEdge> added{{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}};
  gr::DijkstraWorkspace ws;
  const gr::Graph j = core::detail::redundancy_conflict_graph(ws, gr::CsrView(h), added, 1.25);
  EXPECT_EQ(j.m(), 1);
}

TEST(Redundancy, RemovedEdgesAlwaysKeepACounterpart) {
  // Every removed conflict-graph node must have a kept neighbor (this is what
  // Theorem 10's proof leans on).
  const auto inst = instance(47);
  const core::Params params = core::Params::practical_params(0.25, 0.75);
  // Run and per phase verify via the exposed conflict graph: rebuild is
  // internal, so here we verify the global stretch consequence instead on a
  // low-eps run where removals actually trigger.
  const auto result = core::relaxed_greedy(inst, params);
  int removed = 0;
  for (const auto& st : result.phases) removed += st.removed;
  // The sweep instance is dense enough that some phases remove edges; the
  // spanner property must nevertheless hold (checked exactly).
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  SUCCEED() << "removed=" << removed;
}

// ---------------------------------------------------------------------------
// Exactness of the trimmed phase steps against their untrimmed references.

namespace {

using core::detail::PhaseEdge;

/// The pairing tests of §2.2.5 on unbounded dense Dijkstra rows: J's edge
/// set as the conditions define it, with no search radius at all.
std::vector<std::pair<int, int>> reference_conflicts(const gr::Graph& h,
                                                     const std::vector<PhaseEdge>& added,
                                                     double t1) {
  std::vector<std::vector<double>> dist(static_cast<std::size_t>(h.n()));
  for (const PhaseEdge& e : added) {
    for (int p : {e.u, e.v}) {
      auto& row = dist[static_cast<std::size_t>(p)];
      if (row.empty()) row = gr::dijkstra(h, p).dist;
    }
  }
  const auto d = [&](int x, int y) {
    return dist[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)];
  };
  std::vector<std::pair<int, int>> out;
  for (int a = 0; a < static_cast<int>(added.size()); ++a) {
    for (int b = a + 1; b < static_cast<int>(added.size()); ++b) {
      const PhaseEdge& e = added[static_cast<std::size_t>(a)];
      const PhaseEdge& f = added[static_cast<std::size_t>(b)];
      const double s1 = d(e.u, f.u) + d(e.v, f.v);
      const double s2 = d(e.u, f.v) + d(e.v, f.u);
      const bool pairing1 = s1 + f.w <= t1 * e.w && s1 + e.w <= t1 * f.w;
      const bool pairing2 = s2 + f.w <= t1 * e.w && s2 + e.w <= t1 * f.w;
      if (pairing1 || pairing2) out.emplace_back(a, b);
    }
  }
  return out;
}

std::vector<std::pair<int, int>> conflict_pairs(const gr::Graph& j) {
  std::vector<std::pair<int, int>> out;
  for (const gr::Edge& e : j.edges()) out.emplace_back(e.u, e.v);
  return out;
}

/// J with the reference edge set, built in the order full t1·max_w balls
/// give: for each a ascending, its partners b > a in the order the ball of
/// e.u first touches an endpoint of b. A distributed MIS on J sends its
/// messages in this adjacency order.
gr::Graph ordered_reference(gr::DijkstraWorkspace& ws, const gr::Graph& h,
                            const std::vector<PhaseEdge>& added, double t1,
                            const std::vector<std::pair<int, int>>& conflicts) {
  const int k = static_cast<int>(added.size());
  double max_w = 0.0;
  for (const PhaseEdge& e : added) max_w = std::max(max_w, e.w);
  gr::Graph j(k);
  for (int a = 0; a < k; ++a) {
    std::vector<char> seen(static_cast<std::size_t>(k), 0);
    const gr::SpView sp = ws.bounded(h, added[static_cast<std::size_t>(a)].u, t1 * max_w);
    for (int v : sp.touched()) {
      for (int b = a + 1; b < k; ++b) {
        const PhaseEdge& f = added[static_cast<std::size_t>(b)];
        if (seen[static_cast<std::size_t>(b)] || (f.u != v && f.v != v)) continue;
        seen[static_cast<std::size_t>(b)] = 1;
        if (std::binary_search(conflicts.begin(), conflicts.end(), std::pair(a, b))) {
          j.add_edge(a, b, 1.0);
        }
      }
    }
  }
  return j;
}

void expect_same_adjacency(const gr::Graph& got, const gr::Graph& want) {
  ASSERT_EQ(got.n(), want.n());
  for (int v = 0; v < got.n(); ++v) {
    std::vector<int> g, w;
    for (const gr::Neighbor& nb : got.neighbors(v)) g.push_back(nb.to);
    for (const gr::Neighbor& nb : want.neighbors(v)) w.push_back(nb.to);
    EXPECT_EQ(g, w) << "node " << v;
  }
}

}  // namespace

TEST(Redundancy, ConflictGraphMatchesAllPairsReference) {
  // Random geometric H with stretched weights and added edges of mixed
  // lengths within one bin ratio; the (t1 - 1)·max_w balls must find the
  // same conflicts as unbounded all-pairs distances, and list them in the
  // order the full t1·max_w balls do.
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::uniform_real_distribution<double> stretch(1.0, 1.3);
  gr::DijkstraWorkspace ws;
  int conflicts = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 70;
    std::vector<std::array<double, 2>> p(static_cast<std::size_t>(n));
    for (auto& q : p) q = {coord(rng), coord(rng)};
    const auto len = [&](int x, int y) {
      return std::hypot(p[static_cast<std::size_t>(x)][0] - p[static_cast<std::size_t>(y)][0],
                        p[static_cast<std::size_t>(x)][1] - p[static_cast<std::size_t>(y)][1]);
    };
    gr::Graph h(n);
    for (int x = 0; x < n; ++x) {
      for (int y = x + 1; y < n; ++y) {
        if (len(x, y) < 0.18) h.add_edge(x, y, std::max(len(x, y) * stretch(rng), 1e-15));
      }
    }
    std::vector<PhaseEdge> added;
    std::uniform_int_distribution<int> pick(0, n - 1);
    while (added.size() < 40) {
      const int x = pick(rng);
      const int y = pick(rng);
      if (x == y) continue;
      const double w = 0.3 + 0.3 * (trial % 3 == 0 ? 0.0 : coord(rng));  // equal weights too
      added.push_back({std::min(x, y), std::max(x, y), w, w});
    }
    for (const double t1 : {1.1, 1.25, 1.5, 2.0}) {
      const auto want = reference_conflicts(h, added, t1);
      const gr::Graph j = core::detail::redundancy_conflict_graph(ws, gr::CsrView(h), added, t1);
      EXPECT_EQ(conflict_pairs(j), want) << "trial " << trial << " t1=" << t1;
      expect_same_adjacency(j, ordered_reference(ws, h, added, t1, want));
      conflicts += static_cast<int>(want.size());
    }
  }
  EXPECT_GT(conflicts, 0);  // the sweep exercises real conflicts
}

TEST(Redundancy, ConflictAtTheRadiusAndAtCoincidentEndpoints) {
  // s = (t1 - 1)·max_w exactly, split over one or two distances, a few ulps
  // above it (the pairing tests round those back onto the bound), shared
  // endpoints (distance 0) and a near-zero H edge.
  const double t1 = 1.25;
  gr::DijkstraWorkspace ws;
  const auto check = [&](const gr::Graph& h, const std::vector<PhaseEdge>& added,
                         bool conflict) {
    const auto want = reference_conflicts(h, added, t1);
    EXPECT_EQ(!want.empty(), conflict);
    const gr::CsrView csr(h);
    EXPECT_EQ(conflict_pairs(core::detail::redundancy_conflict_graph(ws, csr, added, t1)), want);
  };
  // One distance of exactly 0.25 and a shared endpoint.
  double w = 0.25;
  for (int ulps = 0; ulps <= 4; ++ulps, w = std::nextafter(w, 1.0)) {
    gr::Graph h(3);
    h.add_edge(0, 2, w);
    // 1 + 0.25 + k·2^-54 rounds back to 1.25 for k <= 2 (ties to even).
    check(h, {{0, 1, 1.0, 1.0}, {1, 2, 1.0, 1.0}}, ulps <= 2);
  }
  {
    gr::Graph h(3);  // clearly past the radius
    h.add_edge(0, 2, 0.2500001);
    check(h, {{0, 1, 1.0, 1.0}, {1, 2, 1.0, 1.0}}, false);
  }
  {
    // The endpoint sits a 1e-17 hop past a vertex at exactly 0.25, while a
    // direct 0.3 edge offers a worse path: the ball must settle that vertex.
    gr::Graph h(4);
    h.add_edge(0, 3, 0.25);
    h.add_edge(3, 2, 1e-17);
    h.add_edge(0, 2, 0.3);
    check(h, {{0, 1, 1.0, 1.0}, {1, 2, 1.0, 1.0}}, true);
  }
  {
    gr::Graph h(4);  // two distances of 0.125 each
    h.add_edge(0, 2, 0.125);
    h.add_edge(1, 3, 0.125);
    check(h, {{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}}, true);
  }
  {
    gr::Graph h(4);  // coincident endpoints joined by a 1e-15 edge
    h.add_edge(0, 2, 1e-15);
    h.add_edge(1, 3, 1e-15);
    check(h, {{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}, {0, 3, 1.0, 1.0}}, true);
  }
  {
    gr::Graph h(3);  // shorter edge: max_w = 1 but w(f) = 0.9 narrows the test
    h.add_edge(0, 2, 0.2);
    check(h, {{0, 1, 1.0, 1.0}, {1, 2, 0.9, 0.9}}, false);
  }
}

TEST(Redundancy, PartnersKeepTheFullBallOrder) {
  // From e.u = 0 the full t1·max_w ball touches y1, the far endpoint of f1,
  // first (a direct 1.0 edge), then x2 and x1 (via m). A search that only
  // went to (t1 - 1)·max_w would meet f2 before f1 and fill J in another
  // order; the cut-short full search must not.
  enum { kU, kV, kM, kX1, kY1, kX2, kY2 };
  gr::Graph h(7);
  h.add_edge(kU, kY1, 1.0);
  h.add_edge(kU, kM, 0.05);
  h.add_edge(kM, kX2, 0.05);
  h.add_edge(kM, kX1, 0.06);
  h.add_edge(kV, kY1, 0.05);
  h.add_edge(kV, kY2, 0.05);
  const std::vector<PhaseEdge> added{
      {kU, kV, 1.0, 1.0}, {kX1, kY1, 1.0, 1.0}, {kX2, kY2, 1.0, 1.0}};
  gr::DijkstraWorkspace ws;
  const auto want = reference_conflicts(h, added, 1.25);
  ASSERT_EQ(want.size(), 3u);
  const gr::Graph j = core::detail::redundancy_conflict_graph(ws, gr::CsrView(h), added, 1.25);
  expect_same_adjacency(j, ordered_reference(ws, h, added, 1.25, want));
  EXPECT_EQ(j.neighbors(0)[0].to, 1);
}

namespace {

/// The covered test as it was: acos on every candidate witness.
bool reference_covered(const gr::SoaPoints& pts, double alpha, const gr::Graph& gp,
                       const PhaseEdge& e, double theta) {
  const auto side = [&](int u, int v) {
    for (const gr::Neighbor& nb : gp.neighbors(u)) {
      const int z = nb.to;
      if (z == v || pts.distance(v, z) > alpha) continue;
      const double duz = pts.distance(u, z);
      if (duz == 0.0 || duz > pts.distance(u, v)) continue;
      if (pts.angle_at(u, v, z) <= theta) return true;
    }
    return false;
  };
  return side(e.u, e.v) || side(e.v, e.u);
}

}  // namespace

TEST(CoveredEdge, CosineBandMatchesAcosReference) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  std::uniform_real_distribution<double> angle(0.0, std::numbers::pi);
  for (const int dim : {2, 3}) {
    const int n = 40;
    std::vector<localspan::geom::Point> points;
    for (int v = 0; v < n; ++v) {
      localspan::geom::Point q(dim);
      for (int k = 0; k < dim; ++k) q[k] = coord(rng);
      points.push_back(q);
    }
    points[1] = points[0];  // a coincident pair: degenerate rays must be skipped
    const gr::SoaPoints pts(points);
    gr::Graph gp(n);
    std::uniform_int_distribution<int> pick(0, n - 1);
    for (int k = 0; k < 3 * n; ++k) {
      const int u = pick(rng);
      const int z = pick(rng);
      if (u != z) gp.add_edge(u, z, 1.0);
    }
    const gr::CsrView csr(gp);
    // Random edges against random and boundary angles.
    int agree = 0;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        const PhaseEdge e{u, v, pts.distance(u, v), pts.distance(u, v)};
        for (const double theta : {angle(rng), angle(rng) / 4.0, 0.0, std::numbers::pi, 4.0, -0.5,
                                   std::numeric_limits<double>::quiet_NaN()}) {
          for (const double alpha : {0.8, 3.0}) {
            ASSERT_EQ(core::detail::is_covered_edge(pts, alpha, csr, e, theta),
                      reference_covered(pts, alpha, gp, e, theta))
                << "dim " << dim << " edge " << u << "-" << v << " theta " << theta;
            ++agree;
          }
        }
      }
    }
    // θ within a few ulps of each witness's own angle, where the band must
    // hand the decision to acos.
    for (int u = 0; u < n; ++u) {
      for (const gr::Neighbor& nb : gp.neighbors(u)) {
        for (int v = 0; v < n; ++v) {
          if (v == u || v == nb.to || pts.distance(u, nb.to) == 0.0 ||
              pts.distance(u, v) == 0.0) {
            continue;
          }
          const PhaseEdge e{u, v, pts.distance(u, v), pts.distance(u, v)};
          double theta = pts.angle_at(u, v, nb.to);
          for (int k = 0; k < 3; ++k) theta = std::nextafter(theta, 0.0);
          for (int k = -3; k <= 3; ++k, theta = std::nextafter(theta, 4.0)) {
            ASSERT_EQ(core::detail::is_covered_edge(pts, 3.0, csr, e, theta),
                      reference_covered(pts, 3.0, gp, e, theta))
                << "dim " << dim << " edge " << u << "-" << v << " ulps " << k;
          }
        }
      }
    }
    EXPECT_GT(agree, 0);
  }
}

TEST(CoveredEdge, WitnessAsLongAsTheEdgeAfterRounding) {
  // |uz| <= |uv| is tested on squares first; a witness whose square is
  // larger but whose length rounds to |uv| must still count.
  localspan::geom::Point u(2), v(2), z(2);
  v[0] = 1.0;
  bool found = false;
  for (int k = 1; k < 10000 && !found; ++k) {
    const double y = k * 1e-4;
    for (double x = std::sqrt(1.0 - y * y); x < 1.0 && !found; x = std::nextafter(x, 2.0)) {
      const double sq = x * x + y * y;
      if (sq > 1.0 && std::sqrt(sq) == 1.0) {
        z[0] = x;
        z[1] = y;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  const gr::SoaPoints pts(std::vector<localspan::geom::Point>{u, v, z});
  ASSERT_GT(pts.sq_distance(0, 2), pts.sq_distance(0, 1));
  ASSERT_EQ(pts.distance(0, 2), pts.distance(0, 1));
  gr::Graph gp(3);
  gp.add_edge(0, 2, 1.0);
  const PhaseEdge e{0, 1, 1.0, 1.0};
  EXPECT_TRUE(reference_covered(pts, 3.0, gp, e, 0.5));
  EXPECT_TRUE(core::detail::is_covered_edge(pts, 3.0, gr::CsrView(gp), e, 0.5));
}

namespace {

/// Query selection as it was: a std::map fold keeping, per cluster pair, the
/// first candidate minimal by (objective, (u, v)).
std::vector<PhaseEdge> reference_selection(const std::vector<PhaseEdge>& candidates,
                                           const localspan::cluster::ClusterCover& cover,
                                           double t, int* per_cluster_max) {
  std::map<std::pair<int, int>, std::pair<double, PhaseEdge>> best;
  for (const PhaseEdge& e : candidates) {
    const auto key = std::minmax(cover.center_of[static_cast<std::size_t>(e.u)],
                                 cover.center_of[static_cast<std::size_t>(e.v)]);
    const double objective = t * e.w - cover.dist_to_center[static_cast<std::size_t>(e.u)] -
                             cover.dist_to_center[static_cast<std::size_t>(e.v)];
    const auto it = best.find(key);
    if (it == best.end()) {
      best.emplace(key, std::pair(objective, e));
    } else if (objective < it->second.first ||
               (objective == it->second.first &&
                std::pair(e.u, e.v) < std::pair(it->second.second.u, it->second.second.v))) {
      it->second = {objective, e};
    }
  }
  std::vector<PhaseEdge> out;
  std::map<int, int> incident;
  for (const auto& [key, b] : best) {
    out.push_back(b.second);
    ++incident[key.first];
    if (key.second != key.first) ++incident[key.second];
  }
  *per_cluster_max = 0;
  for (const auto& [c, count] : incident) *per_cluster_max = std::max(*per_cluster_max, count);
  return out;
}

}  // namespace

TEST(QuerySelection, SortMatchesMapFoldWithDuplicateObjectives) {
  // A hand-made cover whose distances and weights come from tiny sets, so
  // many candidates of one pair tie on the objective; repeated (u, v) rows
  // with different lengths check that the earliest full tie wins.
  std::mt19937_64 rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 30;
    localspan::cluster::ClusterCover cover;
    cover.center_of.resize(static_cast<std::size_t>(n));
    cover.dist_to_center.resize(static_cast<std::size_t>(n));
    std::uniform_int_distribution<int> center(0, 4);
    std::uniform_int_distribution<int> level(0, 2);
    for (int v = 0; v < n; ++v) {
      cover.center_of[static_cast<std::size_t>(v)] = v < 5 ? v : center(rng);
      cover.dist_to_center[static_cast<std::size_t>(v)] = v < 5 ? 0.0 : 0.25 * level(rng);
    }
    std::vector<PhaseEdge> candidates;
    std::uniform_int_distribution<int> pick(0, n - 1);
    for (int k = 0; k < 60; ++k) {
      const int u = pick(rng);
      const int v = pick(rng);
      if (u == v) continue;
      const double w = 1.0 + 0.5 * level(rng);
      candidates.push_back({std::min(u, v), std::max(u, v), 0.01 * k, w});
    }
    int want_max = -1;
    int got_max = -1;
    const auto want = reference_selection(candidates, cover, 1.5, &want_max);
    const auto got = core::detail::select_query_edges(candidates, cover, 1.5, &got_max);
    EXPECT_EQ(got_max, want_max) << "trial " << trial;
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].u, want[k].u);
      EXPECT_EQ(got[k].v, want[k].v);
      EXPECT_EQ(got[k].len, want[k].len);  // the earliest of equal rows
      EXPECT_EQ(got[k].w, want[k].w);
    }
  }
  int none = -1;
  EXPECT_TRUE(core::detail::select_query_edges({}, {}, 1.5, &none).empty());
  EXPECT_EQ(none, 0);
}
