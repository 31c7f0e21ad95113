// Tests for the distributed relaxed greedy algorithm (§3): same three
// spanner properties as the sequential algorithm plus round accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "core/distributed.hpp"
#include "core/verify.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace gr = localspan::graph;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance instance(std::uint64_t seed, int n = 150, double alpha = 0.75) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

struct DistCase {
  double eps;
  double alpha;
  std::uint64_t seed;
};

class DistributedEndToEnd : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedEndToEnd, ThreePropertiesHold) {
  const auto& c = GetParam();
  const auto inst = instance(c.seed, 140, c.alpha);
  const core::Params params = core::Params::practical_params(c.eps, c.alpha);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, c.seed);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.base.spanner), params.t * (1.0 + 1e-9));
  EXPECT_LE(result.base.spanner.max_degree(), 48);
  EXPECT_LE(gr::lightness(inst.g, result.base.spanner), 8.0);
  for (const gr::Edge& e : result.base.spanner.edges()) {
    EXPECT_TRUE(inst.g.has_edge(e.u, e.v));
  }
  EXPECT_EQ(gr::connected_components(inst.g).count,
            gr::connected_components(result.base.spanner).count);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedEndToEnd,
                         ::testing::Values(DistCase{0.5, 0.75, 1}, DistCase{0.25, 0.75, 2},
                                           DistCase{1.0, 0.6, 3}, DistCase{0.5, 0.5, 4},
                                           DistCase{0.5, 1.0, 5}));

// Scenario matrix (trimmed grid): the distributed driver must pass the full
// verifier on every (dim, placement, n) cell of the shared matrix.
class DistributedScenarioMatrix : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(DistributedScenarioMatrix, VerifierPassesAcrossTheMatrix) {
  const ti::Scenario& sc = GetParam();
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, sc.seed);
  EXPECT_TRUE(core::verify_spanner(inst, result.base.spanner, params.t).ok()) << sc.name();
  EXPECT_GT(result.net.rounds_measured, 0) << sc.name();
}

INSTANTIATE_TEST_SUITE_P(Matrix, DistributedScenarioMatrix,
                         ::testing::ValuesIn(ti::smoke_matrix()), ti::ScenarioName{});

TEST(Distributed, StrictParamsAlsoWork) {
  const auto inst = instance(9, 100);
  const core::Params params = core::Params::strict_params(0.5, 0.75);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, 9);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.base.spanner), params.t * (1.0 + 1e-9));
}

TEST(Distributed, DeterministicPerSeed) {
  const auto inst = instance(11, 120);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto r1 = core::distributed_relaxed_greedy(inst, params, {}, 77);
  const auto r2 = core::distributed_relaxed_greedy(inst, params, {}, 77);
  EXPECT_EQ(r1.base.spanner, r2.base.spanner);
  EXPECT_EQ(r1.net.rounds_measured, r2.net.rounds_measured);
  EXPECT_EQ(r1.net.messages, r2.net.messages);
}

TEST(Distributed, RoundAccountingIsConsistent) {
  const auto inst = instance(13, 120);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, 5);
  EXPECT_GT(result.net.rounds_measured, 0);
  EXPECT_GT(result.net.messages, 0);
  EXPECT_EQ(result.net.per_phase.size(),
            result.base.phases.size() - 1);  // one entry per nonempty bin
  long long sum = 3;                         // phase 0
  for (const core::PhaseRounds& pr : result.net.per_phase) {
    EXPECT_GT(pr.cover, 0);
    EXPECT_GT(pr.select, 0);
    EXPECT_GT(pr.cluster_graph, 0);
    EXPECT_GT(pr.query, 0);
    EXPECT_GE(pr.redundancy, 0);
    sum += pr.total_measured();
  }
  EXPECT_EQ(sum, result.net.rounds_measured);
}

TEST(Distributed, KmwModelIsPolylog) {
  // The KMW-model rounds should be within a polylog factor of log n * log* n
  // times the number of phases; sanity-check the scale.
  const auto inst = instance(15, 200);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, 5);
  EXPECT_GT(result.net.rounds_kmw_model, 0);
  const double n = 200;
  const double budget =
      80.0 * std::log2(n) * core::log_star(n);  // generous constant
  EXPECT_LE(static_cast<double>(result.net.rounds_kmw_model), budget);
}

TEST(Distributed, MisInvocationsArePerPhaseBounded) {
  const auto inst = instance(17, 120);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, 3);
  // At most two MIS runs per nonempty phase (cover + redundancy).
  EXPECT_LE(result.net.mis_invocations, 2 * result.base.nonempty_bins);
  EXPECT_GE(result.net.mis_invocations, result.base.nonempty_bins);
  EXPECT_GT(result.net.max_luby_iterations, 0);
}

TEST(Distributed, DisabledRedundancySkipsThoseRounds) {
  const auto inst = instance(19, 120);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions opts;
  opts.redundancy_removal = false;
  const auto result = core::distributed_relaxed_greedy(inst, params, opts, 3);
  for (const core::PhaseRounds& pr : result.net.per_phase) EXPECT_EQ(pr.redundancy, 0);
  for (const core::PhaseStats& st : result.base.phases) EXPECT_EQ(st.removed, 0);
}

TEST(Distributed, RejectsAlphaMismatch) {
  const auto inst = instance(21, 60, 0.75);
  const core::Params params = core::Params::practical_params(0.5, 0.6);
  EXPECT_THROW(static_cast<void>(core::distributed_relaxed_greedy(inst, params)),
               std::invalid_argument);
}

TEST(Distributed, Phase0HonoursCliqueCap) {
  // relaxed-dist shares relaxed's phase 0, so phase0_clique_cap applies to
  // it too. The d2 clustered n=64 cell has a 7-member G_0 component, well
  // over a cap of 2, so phase 0 takes the capped SEQ-GREEDY path.
  const ti::Scenario sc{2, ub::Placement::kClustered, 0.75, 64, 1};
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  constexpr int kCap = 2;
  core::RelaxedGreedyOptions opts;
  opts.phase0_clique_cap = kCap;
  const core::RelaxedGreedyResult seq = core::relaxed_greedy(inst, params, opts);
  const core::DistributedResult dist = core::distributed_relaxed_greedy(inst, params, opts, 1);
  // A component of at most kCap members adds at most kCap(kCap-1)/2 edges,
  // so more phase-0 edges than that per component means one exceeds the cap.
  ASSERT_GT(seq.phases[0].added, seq.phase0_components * kCap * (kCap - 1) / 2)
      << "no G_0 component exceeds the cap";
  EXPECT_EQ(dist.base.phase0_components, seq.phase0_components);
  const core::PhaseStats& a = dist.base.phases[0];
  const core::PhaseStats& b = seq.phases[0];
  EXPECT_EQ(a.bin, b.bin);
  EXPECT_EQ(a.w_lo, b.w_lo);
  EXPECT_EQ(a.w_hi, b.w_hi);
  EXPECT_EQ(a.edges_in_bin, b.edges_in_bin);
  EXPECT_EQ(a.already_in_spanner, b.already_in_spanner);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.added, b.added);
  EXPECT_EQ(a.removed, b.removed);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.max_query_edges_per_cluster, b.max_query_edges_per_cluster);
  EXPECT_EQ(a.max_inter_degree, b.max_inter_degree);
  EXPECT_EQ(a.max_inter_weight, b.max_inter_weight);
  EXPECT_EQ(a.max_query_hops, b.max_query_hops);
  EXPECT_TRUE(core::verify_spanner(inst, dist.base.spanner, params.t).ok());
}

TEST(Distributed, SmallAndSparseInstances) {
  // n=2 with a single edge; phase 0 or a single bin, must not crash.
  ub::UbgConfig cfg;
  cfg.n = 2;
  cfg.alpha = 1.0;
  cfg.side = 0.5;
  cfg.seed = 1;
  const auto inst = ub::make_ubg(cfg);
  const core::Params params = core::Params::practical_params(0.5, 1.0);
  const auto result = core::distributed_relaxed_greedy(inst, params, {}, 1);
  EXPECT_EQ(result.base.spanner.m(), inst.g.m());  // nothing to prune at n=2
}

// ---------------------------------------------------------------------------
// Golden pin: a 64-bit digest of everything a relaxed-dist run reports, per
// cell of the standard scenario matrix, under the synchronous transport and
// under a lossy/duplicating/reordering async adversary. The digests were
// recorded from the original stand-alone distributed phase loop; the shared
// §2 phase driver must reproduce every bit of them.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t digest_of(const core::DistributedResult& r) {
  ti::Digest d;
  d.add(r.base.spanner.n());
  for (const gr::Edge& e : r.base.spanner.edges()) {
    d.add(e.u);
    d.add(e.v);
    d.add(e.w);
  }
  d.add(r.base.phase0_components);
  d.add(r.base.nonempty_bins);
  d.add(r.base.total_bins);
  for (const core::PhaseStats& st : r.base.phases) {
    for (int v : {st.bin, st.edges_in_bin, st.already_in_spanner, st.covered, st.candidates,
                  st.queries, st.added, st.removed, st.clusters, st.max_query_edges_per_cluster,
                  st.max_inter_degree, st.max_query_hops}) {
      d.add(v);
    }
    for (double v : {st.w_lo, st.w_hi, st.max_inter_weight}) d.add(v);
  }
  for (const core::PhaseRounds& pr : r.net.per_phase) {
    d.add(pr.bin);
    for (long long v : {pr.cover, pr.select, pr.cluster_graph, pr.query, pr.redundancy,
                        pr.mis_rounds_measured, pr.mis_rounds_kmw_model}) {
      d.add(v);
    }
  }
  for (long long v : {r.net.rounds_measured, r.net.rounds_kmw_model, r.net.messages}) d.add(v);
  d.add(r.net.mis_invocations);
  d.add(r.net.max_luby_iterations);
  const localspan::runtime::AsyncStats& ph = r.net.async.physical;
  for (long long v : {ph.posted, ph.delivered, ph.dropped, ph.partition_dropped, ph.duplicated,
                      ph.reordered, ph.straggled, ph.timers}) {
    d.add(v);
  }
  const localspan::runtime::ReliableStats& pc = r.net.async.protocol;
  for (long long v : {pc.data_sent, pc.retransmits, pc.timeouts, pc.acks_sent, pc.acks_received,
                      pc.stale_acks, pc.dup_suppressed}) {
    d.add(v);
  }
  d.add(r.net.async.convergence_time);
  d.add(r.net.async.invocations);
  // The totals and per-section rounds a round ledger held, in its
  // (name-sorted) section order, so the pinned digests stay comparable.
  d.add(r.net.rounds_measured);
  d.add(r.net.messages);
  std::map<std::string, long long> sections{{"phase0", 3}};
  for (const core::PhaseRounds& pr : r.net.per_phase) {
    sections["cover"] += pr.cover;
    sections["select"] += pr.select;
    sections["clustergraph"] += pr.cluster_graph;
    sections["query"] += pr.query;
    if (pr.redundancy > 0) sections["redundancy"] += pr.redundancy;
  }
  for (const auto& [section, rounds] : sections) {
    d.add(section);
    d.add(rounds);
  }
  return d.value();
}

struct GoldenDigest {
  const char* scenario;
  std::uint64_t sync;
  std::uint64_t async;
};

constexpr GoldenDigest kGolden[] = {
    {"d2_uniform_a060_n64_s1", 0x7330f491cbb4473fULL, 0x3b9ebd1cac373b42ULL},
    {"d2_uniform_a060_n128_s1", 0x6dada4c343c42227ULL, 0x58c4bad4c501bd47ULL},
    {"d2_uniform_a075_n64_s1", 0xddb34458e3cfaf98ULL, 0xdbca180a14237b48ULL},
    {"d2_uniform_a075_n128_s1", 0x348345b1feaa3072ULL, 0xb9c3343c1160b0daULL},
    {"d2_uniform_a100_n64_s1", 0x965a87517f8d0654ULL, 0xb332815ebc682faULL},
    {"d2_uniform_a100_n128_s1", 0xfeaeac08f57922e7ULL, 0x22203ac607b3863fULL},
    {"d2_clustered_a060_n64_s1", 0xf8586599b608d7aULL, 0xa862f46c94b6653aULL},
    {"d2_clustered_a060_n128_s1", 0xe0a762b4d645f1bdULL, 0x239821dee407bc35ULL},
    {"d2_clustered_a075_n64_s1", 0xf843ce1b1145fa43ULL, 0xd936afa3acf204bfULL},
    {"d2_clustered_a075_n128_s1", 0x7744cfa5ff0104efULL, 0x18b0404a150b0e60ULL},
    {"d2_clustered_a100_n64_s1", 0x111c702ccf216f40ULL, 0xb95c1c1661afb59ULL},
    {"d2_clustered_a100_n128_s1", 0x2d807129cc583e7ULL, 0x741348c67f39230eULL},
    {"d3_uniform_a060_n64_s1", 0xff2310c9c61c8b52ULL, 0x2b9cef6ac8142cb0ULL},
    {"d3_uniform_a060_n128_s1", 0xd927d88c25c115e0ULL, 0xa77b0d47b602ac58ULL},
    {"d3_uniform_a075_n64_s1", 0xefbee77afdf02e4fULL, 0xd4de9b86f9e334b7ULL},
    {"d3_uniform_a075_n128_s1", 0x62f05ad48632eacULL, 0x64eade08e5fce1a5ULL},
    {"d3_uniform_a100_n64_s1", 0x1e0550f6278ee900ULL, 0x3f1a8b959fa640fbULL},
    {"d3_uniform_a100_n128_s1", 0xc3bd32480de290cbULL, 0xf95c746a8412be56ULL},
    {"d3_clustered_a060_n64_s1", 0xaf5c12926e5c06c2ULL, 0x72dd19162793f29eULL},
    {"d3_clustered_a060_n128_s1", 0xca94dc844d23b54ULL, 0xfeaaf7fb002880e8ULL},
    {"d3_clustered_a075_n64_s1", 0xed03ca790a6a76aaULL, 0x3fdbe55e7e901352ULL},
    {"d3_clustered_a075_n128_s1", 0x3caf7fdf58e4af51ULL, 0x7a55349de12a8559ULL},
    {"d3_clustered_a100_n64_s1", 0x971d7294e3a3d1b4ULL, 0x846104de5f2dd5b2ULL},
    {"d3_clustered_a100_n128_s1", 0xdc66d478d43ee22cULL, 0xd93f2a3841fd73a6ULL},
};

const GoldenDigest* golden_for(const std::string& name) {
  for (const GoldenDigest& g : kGolden) {
    if (name == g.scenario) return &g;
  }
  return nullptr;
}

}  // namespace

class DistributedGolden : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(DistributedGolden, DigestMatchesPinnedRun) {
  const ti::Scenario& sc = GetParam();
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  const GoldenDigest* golden = golden_for(sc.name());
  ASSERT_NE(golden, nullptr) << sc.name();

  const auto sync_r = core::distributed_relaxed_greedy(inst, params, {}, sc.seed);
  EXPECT_EQ(digest_of(sync_r), golden->sync)
      << sc.name() << " sync digest 0x" << std::hex << digest_of(sync_r);

  core::NetOptions net;
  net.mode = core::NetMode::kAsync;
  net.adversary.drop_prob = 0.1;
  net.adversary.dup_prob = 0.05;
  net.adversary.reorder_prob = 0.1;
  const auto async_r = core::distributed_relaxed_greedy(inst, params, {}, sc.seed, net);
  EXPECT_GT(async_r.net.async.invocations, 0) << sc.name();
  EXPECT_EQ(digest_of(async_r), golden->async)
      << sc.name() << " async digest 0x" << std::hex << digest_of(async_r);
}

INSTANTIATE_TEST_SUITE_P(Matrix, DistributedGolden, ::testing::ValuesIn(ti::standard_matrix()),
                         ti::ScenarioName{});
