// Tests for the MIS algorithms (greedy + Luby-on-simulator) and the
// synchronous network runtime (§1.1 model, §3 substrate).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <random>
#include <string>

#include "mis/luby.hpp"
#include "mis_reference.hpp"
#include "network_reference.hpp"
#include "obs/obs.hpp"
#include "ledger_reference.hpp"
#include "runtime/parallel.hpp"

namespace gr = localspan::graph;
namespace ms = localspan::mis;
namespace obs = localspan::obs;
namespace rt = localspan::runtime;

namespace {

gr::Graph random_graph(int n, double p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  gr::Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (unit(rng) < p) g.add_edge(u, v, 1.0);
    }
  }
  return g;
}

}  // namespace

TEST(GreedyMis, ValidOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const gr::Graph g = random_graph(120, 0.08, seed);
    const auto set = ms::greedy_mis(g);
    EXPECT_TRUE(ms::is_maximal_independent_set(g, set));
  }
}

TEST(GreedyMis, EdgeCases) {
  const gr::Graph empty(0);
  EXPECT_TRUE(ms::greedy_mis(empty).empty());
  const gr::Graph isolated(5);
  EXPECT_EQ(ms::greedy_mis(isolated).size(), 5u);  // all isolated vertices
  gr::Graph k2(2);
  k2.add_edge(0, 1, 1.0);
  EXPECT_EQ(ms::greedy_mis(k2).size(), 1u);
}

TEST(MisVerifier, RejectsBadSets) {
  gr::Graph path(3);
  path.add_edge(0, 1, 1.0);
  path.add_edge(1, 2, 1.0);
  EXPECT_TRUE(ms::is_maximal_independent_set(path, {0, 2}));
  EXPECT_TRUE(ms::is_maximal_independent_set(path, {1}));
  EXPECT_FALSE(ms::is_maximal_independent_set(path, {0, 1}));  // not independent
  EXPECT_FALSE(ms::is_maximal_independent_set(path, {0}));     // not maximal
  EXPECT_FALSE(ms::is_maximal_independent_set(path, {7}));     // out of range
}

class LubySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LubySeeds, ProducesAValidMis) {
  const gr::Graph g = random_graph(150, 0.06, GetParam());
  ms::LubyStats stats;
  const auto set = ms::luby_mis(g, GetParam(), &stats);
  EXPECT_TRUE(ms::is_maximal_independent_set(g, set));
  EXPECT_GT(stats.iterations, 0);
  EXPECT_EQ(stats.network_rounds, 2ll * stats.iterations);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, LubySeeds, ::testing::Values(1, 7, 42, 1337, 99999));

TEST(Luby, DeterministicPerSeed) {
  const gr::Graph g = random_graph(100, 0.1, 5);
  EXPECT_EQ(ms::luby_mis(g, 11), ms::luby_mis(g, 11));
  // Different seeds usually give different sets on a dense enough graph.
  EXPECT_NE(ms::luby_mis(g, 11), ms::luby_mis(g, 12));
}

TEST(Luby, IterationsGrowSlowly) {
  // O(log n) w.h.p.: even at n=800 the iteration count stays tiny.
  const gr::Graph g = random_graph(800, 0.01, 9);
  ms::LubyStats stats;
  const auto set = ms::luby_mis(g, 3, &stats);
  EXPECT_TRUE(ms::is_maximal_independent_set(g, set));
  EXPECT_LE(stats.iterations, 6 * static_cast<int>(std::log2(800)));
}

TEST(Luby, HandlesEdgelessAndEmptyGraphs) {
  ms::LubyStats stats;
  EXPECT_EQ(ms::luby_mis(gr::Graph(6), 1, &stats).size(), 6u);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_TRUE(ms::luby_mis(gr::Graph(0), 1).empty());
}

TEST(Luby, ChargesLedger) {
  const gr::Graph g = random_graph(60, 0.1, 2);
  rt::RoundLedger ledger;
  static_cast<void>(ms::luby_mis(g, 5, nullptr, &ledger, "test-mis"));
  EXPECT_GT(ledger.rounds(), 0);
  EXPECT_GT(ledger.messages(), 0);
  EXPECT_EQ(ledger.rounds_by_section().at("test-mis"), ledger.rounds());
}

// ---------------------------------------------------------------------------
// Pool-parallel Luby: the harvest/commit variant must reproduce the
// simulator-driven run exactly — set and stats — at every thread count,
// because both consume mis::luby_priority and the parallel passes read only
// frozen previous-iteration state.
// ---------------------------------------------------------------------------

TEST(LubyParallel, MatchesSimulatorSetAndStats) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const gr::Graph g = random_graph(150, 0.06, seed);
    ms::LubyStats net_stats;
    const auto expected = ms::luby_mis(g, seed, &net_stats);
    for (int threads : {0, 2, 4}) {  // 0 = serial fallback, no pool
      std::optional<rt::WorkerPool> pool;
      if (threads > 0) pool.emplace(threads);
      ms::LubyStats stats;
      const auto got = ms::luby_mis_parallel(g, seed, &stats, pool ? &*pool : nullptr);
      EXPECT_EQ(expected, got) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(net_stats.iterations, stats.iterations);
      EXPECT_EQ(net_stats.network_rounds, stats.network_rounds);
      EXPECT_EQ(net_stats.messages, stats.messages);
    }
  }
}

TEST(LubyParallel, NetProbeMatchesStats) {
  // The analytic round accounting is the library's only net.* round probe:
  // with obs on, its counters and per-round histogram agree with LubyStats.
  const gr::Graph g = random_graph(150, 0.06, 7);
  for (int threads : {0, 4}) {
    std::optional<rt::WorkerPool> pool;
    if (threads > 0) pool.emplace(threads);
    obs::reset();
    obs::set_enabled(true);
    ms::LubyStats stats;
    static_cast<void>(ms::luby_mis_parallel(g, 7, &stats, pool ? &*pool : nullptr));
    const obs::Snapshot snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    std::map<std::string, std::int64_t> counters(snap.counters.begin(), snap.counters.end());
    std::map<std::string, obs::HistogramSummary> hists(snap.histograms.begin(),
                                                       snap.histograms.end());
    ASSERT_GT(stats.messages, 0);
    EXPECT_EQ(counters["net.rounds"], stats.network_rounds) << "threads " << threads;
    EXPECT_EQ(counters["net.messages"], stats.messages);
    EXPECT_EQ(counters["net.bytes"],
              stats.messages * static_cast<std::int64_t>(sizeof(rt::Packet)));
    EXPECT_EQ(hists["net.round_messages"].count, stats.network_rounds);
    EXPECT_EQ(hists["net.round_messages"].sum, stats.messages);
  }
}

TEST(LubyParallel, SharesThePriorityDrawWithTheSimulator) {
  // The symmetry-breaking draw is one shared helper; spot-check determinism
  // and range so a drive-by refactor of either consumer cannot fork it.
  for (int it : {1, 2, 9}) {
    for (int node : {0, 3, 149}) {
      const double p = ms::luby_priority(77, it, node);
      EXPECT_EQ(p, ms::luby_priority(77, it, node));
      EXPECT_GE(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
  }
  EXPECT_NE(ms::luby_priority(77, 1, 0), ms::luby_priority(78, 1, 0));
  EXPECT_NE(ms::luby_priority(77, 1, 0), ms::luby_priority(77, 2, 0));
  EXPECT_NE(ms::luby_priority(77, 1, 0), ms::luby_priority(77, 1, 1));
}

TEST(LubyParallel, HandlesEdgelessAndEmptyGraphs) {
  ms::LubyStats stats;
  EXPECT_EQ(ms::luby_mis_parallel(gr::Graph(6), 1, &stats).size(), 6u);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_EQ(stats.messages, 0);
  EXPECT_TRUE(ms::luby_mis_parallel(gr::Graph(0), 1).empty());
}

TEST(Ledger, AccumulatesPerSection) {
  rt::RoundLedger ledger;
  ledger.charge("a", 3, 10);
  ledger.charge("b", 2, 5);
  ledger.charge("a", 1, 1);
  EXPECT_EQ(ledger.rounds(), 6);
  EXPECT_EQ(ledger.messages(), 16);
  EXPECT_EQ(ledger.rounds_by_section().at("a"), 4);
  EXPECT_EQ(ledger.rounds_by_section().at("b"), 2);
  EXPECT_THROW(ledger.charge("c", -1, 0), std::invalid_argument);
}

TEST(SyncNetwork, DeliversAtRoundBoundary) {
  gr::Graph topo(3);
  topo.add_edge(0, 1, 1.0);
  topo.add_edge(1, 2, 1.0);
  rt::RoundLedger ledger;
  rt::SyncNetwork net(topo, &ledger, "test");
  net.send(0, 1, {42, 3.14, 0});
  EXPECT_TRUE(net.inbox(1).empty());  // nothing before the round ends
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].first, 0);
  EXPECT_EQ(net.inbox(1)[0].second.kind, 42);
  EXPECT_EQ(ledger.rounds(), 1);
  EXPECT_EQ(ledger.messages(), 1);
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());  // inboxes are per-round
}

TEST(SyncNetwork, BroadcastReachesAllNeighbors) {
  gr::Graph topo(4);
  topo.add_edge(0, 1, 1.0);
  topo.add_edge(0, 2, 1.0);
  topo.add_edge(0, 3, 1.0);
  rt::SyncNetwork net(topo, nullptr, "test");
  net.broadcast(0, {1, 0.0, 0});
  net.end_round();
  for (int v = 1; v <= 3; ++v) EXPECT_EQ(net.inbox(v).size(), 1u);
  EXPECT_EQ(net.messages(), 3);
}

TEST(SyncNetwork, EnforcesTopology) {
  gr::Graph topo(3);
  topo.add_edge(0, 1, 1.0);
  rt::SyncNetwork net(topo, nullptr, "test");
  EXPECT_THROW(net.send(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(net.inbox(9)), std::invalid_argument);
}
