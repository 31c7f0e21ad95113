// Tests for the adversarial asynchronous runtime (runtime/async_network.hpp)
// and the reliable-delivery layer (runtime/reliable.hpp): config validation,
// deterministic replay, round-semantics reconstruction, the fault-matrix
// bit-identity claim for the distributed construction, and the
// retry-budget-exhaustion error path.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "core/distributed.hpp"
#include "graph/graph.hpp"
#include "mis/luby.hpp"
#include "mis_reference.hpp"
#include "network_reference.hpp"
#include "obs/obs.hpp"
#include "runtime/async_network.hpp"
#include "runtime/reliable.hpp"
#include "scenario_matrix.hpp"

namespace core = localspan::core;
namespace gr = localspan::graph;
namespace mis = localspan::mis;
namespace obs = localspan::obs;
namespace rt = localspan::runtime;
namespace ti = localspan::testinfra;

namespace {

gr::Graph path4() {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  return g;
}

/// The fault matrix: every adversary shape the robustness claim covers.
/// Latency/jitter stay at defaults so virtual time is always meaningful.
struct FaultPreset {
  const char* name;
  rt::AdversaryConfig cfg;
};

std::vector<FaultPreset> fault_presets() {
  std::vector<FaultPreset> out;
  {
    rt::AdversaryConfig c;  // pure asynchrony: latency + jitter only.
    out.push_back({"jitter", c});
  }
  {
    rt::AdversaryConfig c;
    c.drop_prob = 0.2;
    out.push_back({"loss02", c});
  }
  {
    rt::AdversaryConfig c;
    c.dup_prob = 0.3;
    c.reorder_prob = 0.5;
    out.push_back({"dupreorder", c});
  }
  {
    rt::AdversaryConfig c;
    c.straggler_fraction = 0.2;
    c.straggler_factor = 8.0;
    out.push_back({"straggler", c});
  }
  {
    rt::AdversaryConfig c;
    c.partitions.push_back({2.0, 12.0, 7});  // heals within the rto schedule.
    out.push_back({"healpartition", c});
  }
  {
    rt::AdversaryConfig c;
    c.drop_prob = 0.1;
    c.dup_prob = 0.1;
    c.reorder_prob = 0.2;
    c.straggler_fraction = 0.1;
    c.partitions.push_back({3.0, 20.0, 11});
    out.push_back({"combined", c});
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(AdversaryConfig, RejectsOutOfDomainKnobs) {
  rt::AdversaryConfig c;
  c.drop_prob = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.dup_prob = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.base_latency = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.base_latency = 0.0;
  c.jitter = 0.0;  // zero-latency delivery collapses virtual time.
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.straggler_factor = 0.5;  // a "straggler" that speeds links up is a typo.
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.reorder_spread = std::numeric_limits<double>::infinity();
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  EXPECT_NO_THROW(c.validate());
}

TEST(ReliableConfig, RejectsOutOfDomainKnobs) {
  rt::ReliableConfig c;
  c.rto = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.backoff = 0.5;  // backoff < 1 would retransmit faster and faster.
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.rto_max = 1.0;  // below rto.
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.max_attempts = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  EXPECT_NO_THROW(c.validate());
}

// ---------------------------------------------------------------------------
// AsyncNetwork transport semantics.
// ---------------------------------------------------------------------------

TEST(AsyncNetwork, PostValidatesLikeTheSyncTransport) {
  const gr::Graph g = path4();
  rt::AsyncNetwork net(g, {});
  EXPECT_THROW(net.post(0, 2, {}), std::invalid_argument);   // not an edge
  EXPECT_THROW(net.post(-1, 1, {}), std::invalid_argument);  // out of range
  EXPECT_THROW(net.post(0, 4, {}), std::invalid_argument);
  rt::Frame bad;
  bad.payload.value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(net.post(0, 1, bad), std::domain_error);
  EXPECT_EQ(net.stats().posted, 0);
  EXPECT_TRUE(net.idle());
}

TEST(AsyncNetwork, EventsPopInVirtualTimeOrder) {
  const gr::Graph g = path4();
  rt::AdversaryConfig cfg;
  cfg.reorder_prob = 1.0;  // heavy-tail delays guarantee out-of-post-order.
  cfg.reorder_spread = 16.0;
  rt::AsyncNetwork net(g, cfg);
  for (int i = 0; i < 32; ++i) net.post(1, 2, rt::Frame{1, static_cast<std::uint64_t>(i), {}});
  double last = -1.0;
  rt::AsyncEvent ev;
  int delivered = 0;
  while (net.next(ev)) {
    EXPECT_GE(ev.time, last);
    EXPECT_DOUBLE_EQ(ev.time, net.now());
    last = ev.time;
    ++delivered;
  }
  EXPECT_EQ(delivered, 32);
  EXPECT_EQ(net.stats().delivered, 32);
}

TEST(AsyncNetwork, DropAndDuplicateAccounting) {
  const gr::Graph g = path4();
  {
    rt::AdversaryConfig cfg;
    cfg.drop_prob = 1.0;
    rt::AsyncNetwork net(g, cfg);
    for (int i = 0; i < 16; ++i) net.post(0, 1, {});
    EXPECT_EQ(net.stats().dropped, 16);
    EXPECT_TRUE(net.idle());  // everything lost, nothing in flight.
  }
  {
    rt::AdversaryConfig cfg;
    cfg.dup_prob = 1.0;
    rt::AsyncNetwork net(g, cfg);
    for (int i = 0; i < 16; ++i) net.post(0, 1, {});
    EXPECT_EQ(net.stats().duplicated, 16);
    rt::AsyncEvent ev;
    int seen = 0;
    while (net.next(ev)) ++seen;
    EXPECT_EQ(seen, 32);  // every frame delivered twice.
  }
}

TEST(AsyncNetwork, PermanentPartitionDropsCrossTraffic) {
  const gr::Graph g = path4();
  rt::AdversaryConfig cfg;
  cfg.partitions.push_back({0.0, 0.0, 3});  // heal <= start: never heals.
  rt::AsyncNetwork net(g, cfg);
  int cross = 0;
  for (const gr::Edge& e : g.edges()) {
    if (net.partitioned(e.u, e.v, 0.0)) ++cross;
    EXPECT_EQ(net.partitioned(e.u, e.v, 0.0), net.partitioned(e.v, e.u, 0.0));
    net.post(e.u, e.v, {});
  }
  EXPECT_EQ(net.stats().partition_dropped, cross);
  EXPECT_EQ(net.stats().posted, g.m());
}

TEST(AsyncNetwork, SameSeedReplaysTheExactTranscript) {
  const gr::Graph g = path4();
  rt::AdversaryConfig cfg;
  cfg.seed = 42;
  cfg.drop_prob = 0.2;
  cfg.dup_prob = 0.3;
  cfg.reorder_prob = 0.4;
  cfg.straggler_fraction = 0.3;

  const auto run = [&](std::uint64_t seed) {
    rt::AdversaryConfig c = cfg;
    c.seed = seed;
    rt::AsyncNetwork net(g, c);
    net.set_record_transcript(true);
    for (int i = 0; i < 64; ++i) {
      net.post(i % 3, i % 3 + 1, rt::Frame{1, static_cast<std::uint64_t>(i), {1, 0.5, i}});
    }
    rt::AsyncEvent ev;
    while (net.next(ev)) {
    }
    return net.transcript();
  };

  const auto a = run(42);
  const auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);  // record-for-record identical replay.
  // A different seed draws a different fault pattern (on 64 transmissions a
  // collision of every drop/dup/latency draw is astronomically unlikely).
  const auto c = run(43);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------------------------
// ReliableNetwork: round semantics over the adversarial transport.
// ---------------------------------------------------------------------------

TEST(ReliableNetwork, ValidatesLikeTheSyncTransport) {
  const gr::Graph g = path4();
  rt::AsyncNetwork anet(g, {});
  rt::ReliableNetwork net(anet, {});
  EXPECT_THROW(net.send(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(net.send(0, 9, {}), std::invalid_argument);
  EXPECT_THROW(net.broadcast(-1, {}), std::invalid_argument);
  EXPECT_THROW(net.send(0, 1, {1, std::numeric_limits<double>::quiet_NaN(), 0}),
               std::domain_error);
  EXPECT_THROW(static_cast<void>(net.inbox(4)), std::invalid_argument);
  net.end_round();
  EXPECT_EQ(net.messages(), 0);
}

TEST(ReliableNetwork, InboxMatchesSyncNetworkUnderFaults) {
  const gr::Graph g = path4();
  rt::AdversaryConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.dup_prob = 0.3;
  cfg.reorder_prob = 0.5;
  rt::AsyncNetwork anet(g, cfg);
  rt::ReliableNetwork rel(anet, {});
  rt::SyncNetwork sync(g, nullptr, "test");

  for (int round = 0; round < 8; ++round) {
    // Ascending-sender staging, like every protocol in the repo.
    for (int v = 0; v < g.n(); ++v) {
      sync.broadcast(v, {round, 0.25 * v, v});
      rel.broadcast(v, {round, 0.25 * v, v});
    }
    sync.end_round();
    rel.end_round();
    for (int v = 0; v < g.n(); ++v) {
      const auto& sin = sync.inbox(v);
      const auto& rin = rel.inbox(v);
      ASSERT_EQ(sin.size(), rin.size()) << "round " << round << " node " << v;
      for (std::size_t i = 0; i < sin.size(); ++i) {
        EXPECT_EQ(sin[i].first, rin[i].first);
        EXPECT_EQ(sin[i].second.kind, rin[i].second.kind);
        EXPECT_DOUBLE_EQ(sin[i].second.value, rin[i].second.value);
        EXPECT_EQ(sin[i].second.from_payload, rin[i].second.from_payload);
      }
    }
    EXPECT_EQ(sync.rounds(), rel.rounds());
    EXPECT_EQ(sync.messages(), rel.messages());
  }
  // The adversary actually fired: retransmissions and suppressed dups exist.
  EXPECT_GT(anet.stats().dropped + anet.stats().duplicated, 0);
  EXPECT_GT(rel.stats().acks_received, 0);
}

TEST(ReliableNetwork, RoundsAndMessagesCountedLikeSync) {
  // Application-level rounds and messages, not physical frames: the lossy
  // run retransmits, yet counts exactly what the lockstep reference counts.
  const gr::Graph g = path4();
  rt::SyncNetwork sync(g, nullptr, "mis");
  rt::AdversaryConfig cfg;
  cfg.drop_prob = 0.3;
  rt::AsyncNetwork anet(g, cfg);
  rt::ReliableNetwork rel(anet, {});
  for (rt::Network* net : {static_cast<rt::Network*>(&sync), static_cast<rt::Network*>(&rel)}) {
    net->broadcast(0, {});
    net->end_round();
    net->send(2, 3, {});
    net->broadcast(1, {});
    net->end_round();
    net->end_round();
  }
  EXPECT_EQ(sync.rounds(), 3);
  EXPECT_EQ(sync.messages(), 4);
  EXPECT_EQ(sync.rounds(), rel.rounds());
  EXPECT_EQ(sync.messages(), rel.messages());
}

TEST(ReliableNetwork, RetryBudgetExhaustedOnPermanentPartition) {
  const gr::Graph g = path4();
  // Find a side seed that actually cuts an edge of the path (the bisection
  // sides are hashed, so scan deterministically).
  for (std::uint64_t side_seed = 1; side_seed < 64; ++side_seed) {
    rt::AdversaryConfig cfg;
    cfg.partitions.push_back({0.0, 0.0, side_seed});  // never heals.
    rt::AsyncNetwork probe(g, cfg);
    const gr::Edge* cut = nullptr;
    const auto edges = g.edges();
    for (const gr::Edge& e : edges) {
      if (probe.partitioned(e.u, e.v, 0.0)) {
        cut = &e;
        break;
      }
    }
    if (cut == nullptr) continue;

    rt::AsyncNetwork anet(g, cfg);
    rt::ReliableConfig rel_cfg;
    rel_cfg.max_attempts = 4;  // small budget: fail fast.
    rt::ReliableNetwork net(anet, rel_cfg);
    net.send(cut->u, cut->v, {1, 0.0, 0});
    try {
      net.end_round();
      FAIL() << "expected RetryBudgetExhausted";
    } catch (const rt::RetryBudgetExhausted& e) {
      EXPECT_EQ(e.from(), cut->u);
      EXPECT_EQ(e.to(), cut->v);
      EXPECT_EQ(e.attempts(), 4);
      EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
    }
    // Every transmission died at the cut, none randomly.
    EXPECT_EQ(anet.stats().partition_dropped, 4);
    EXPECT_EQ(anet.stats().dropped, 0);
    return;
  }
  FAIL() << "no side seed in [1, 64) cut the 4-path; hash bisection broken?";
}

// ---------------------------------------------------------------------------
// Transport-generic Luby MIS: bit-identity across the fault matrix on the
// full standard scenario matrix (cheap: one MIS per cell x preset).
// ---------------------------------------------------------------------------

using MisCell = std::tuple<ti::Scenario, int>;

class AsyncMisFaultMatrix : public ::testing::TestWithParam<MisCell> {};

TEST_P(AsyncMisFaultMatrix, MisBitIdenticalToSync) {
  const auto& [sc, preset_idx] = GetParam();
  const FaultPreset preset = fault_presets()[static_cast<std::size_t>(preset_idx)];
  const auto inst = sc.make();

  mis::LubyStats sync_stats;
  const std::vector<int> sync_mis = mis::luby_mis(inst.g, sc.seed + 77, &sync_stats);

  rt::AdversaryConfig adv = preset.cfg;
  adv.seed = sc.seed * 1000003ULL + static_cast<std::uint64_t>(preset_idx);
  rt::AsyncNetwork anet(inst.g, adv);
  rt::ReliableNetwork rel(anet, {});
  mis::LubyStats async_stats;
  const std::vector<int> async_mis = mis::luby_mis_on(rel, inst.g, sc.seed + 77, &async_stats);

  EXPECT_EQ(sync_mis, async_mis) << sc.name() << " " << preset.name;
  EXPECT_EQ(sync_stats.iterations, async_stats.iterations);
  EXPECT_EQ(sync_stats.network_rounds, async_stats.network_rounds);
  EXPECT_EQ(sync_stats.messages, async_stats.messages);
}

struct MisCellName {
  std::string operator()(const ::testing::TestParamInfo<MisCell>& info) const {
    const auto& [sc, preset_idx] = info.param;
    return sc.name() + "_" + fault_presets()[static_cast<std::size_t>(preset_idx)].name;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Matrix, AsyncMisFaultMatrix,
    ::testing::Combine(::testing::ValuesIn(ti::standard_matrix()),
                       ::testing::Range(0, static_cast<int>(fault_presets().size()))),
    MisCellName{});

// ---------------------------------------------------------------------------
// End-to-end: relaxed-dist on the async runtime terminates and emits a
// spanner bit-identical to the synchronous build, for every fault preset.
// ---------------------------------------------------------------------------

namespace {

/// Sync reference per scenario, built once (the fault presets all compare
/// against the same synchronous construction).
const core::DistributedResult& sync_reference(const ti::Scenario& sc) {
  static std::map<std::string, core::DistributedResult> cache;
  auto it = cache.find(sc.name());
  if (it == cache.end()) {
    const auto inst = sc.make();
    const core::Params params = core::Params::practical_params(0.5, sc.alpha);
    it = cache.emplace(sc.name(), core::distributed_relaxed_greedy(inst, params, {}, sc.seed))
             .first;
  }
  return it->second;
}

}  // namespace

class AsyncDistFaultMatrix : public ::testing::TestWithParam<MisCell> {};

TEST_P(AsyncDistFaultMatrix, SpannerBitIdenticalToSync) {
  const auto& [sc, preset_idx] = GetParam();
  const FaultPreset preset = fault_presets()[static_cast<std::size_t>(preset_idx)];
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);

  core::NetOptions net;
  net.mode = core::NetMode::kAsync;
  net.adversary = preset.cfg;
  net.adversary.seed = sc.seed * 7919ULL + static_cast<std::uint64_t>(preset_idx);

  const core::DistributedResult async_r =
      core::distributed_relaxed_greedy(inst, params, {}, sc.seed, net);
  const core::DistributedResult& sync_r = sync_reference(sc);

  // Terminated (or we would not be here) and bit-identical: same edges, same
  // round/message accounting, same per-phase charges.
  EXPECT_TRUE(sync_r.base.spanner == async_r.base.spanner) << sc.name() << " " << preset.name;
  EXPECT_EQ(sync_r.net.rounds_measured, async_r.net.rounds_measured);
  EXPECT_EQ(sync_r.net.rounds_kmw_model, async_r.net.rounds_kmw_model);
  EXPECT_EQ(sync_r.net.messages, async_r.net.messages);
  EXPECT_EQ(sync_r.net.mis_invocations, async_r.net.mis_invocations);
  // The async transport really ran: physical traffic at least the app DATA.
  EXPECT_GT(async_r.net.async.invocations, 0);
  EXPECT_GE(async_r.net.async.physical.posted, async_r.net.async.protocol.data_sent);
  EXPECT_GT(async_r.net.async.convergence_time, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AsyncDistFaultMatrix,
    ::testing::Combine(::testing::ValuesIn(ti::smoke_matrix()),
                       ::testing::Range(0, static_cast<int>(fault_presets().size()))),
    MisCellName{});

// ---------------------------------------------------------------------------
// Deterministic replay: same seed => identical delivery transcript and
// identical net.async.* observability snapshot.
// ---------------------------------------------------------------------------

namespace {

struct AsyncRun {
  std::vector<rt::DeliveryRecord> transcript;
  std::vector<std::pair<std::string, std::int64_t>> net_counters;
  gr::Graph spanner{0};
};

AsyncRun run_async_once(const ti::Scenario& sc, const rt::AdversaryConfig& adv) {
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  core::NetOptions net;
  net.mode = core::NetMode::kAsync;
  net.adversary = adv;
  net.record_transcript = true;

  obs::reset();
  obs::set_enabled(true);
  core::DistributedResult r = core::distributed_relaxed_greedy(inst, params, {}, sc.seed, net);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  AsyncRun out;
  out.transcript = std::move(r.net.async.transcript);
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("net.async.", 0) == 0) out.net_counters.emplace_back(name, value);
  }
  out.spanner = std::move(r.base.spanner);
  return out;
}

}  // namespace

TEST(AsyncReplay, SameSeedSameTranscriptAndObsSnapshot) {
  ti::Scenario sc;
  sc.n = 96;
  rt::AdversaryConfig adv;
  adv.seed = 5;
  adv.drop_prob = 0.15;
  adv.dup_prob = 0.1;
  adv.reorder_prob = 0.25;
  adv.straggler_fraction = 0.1;

  const AsyncRun a = run_async_once(sc, adv);
  const AsyncRun b = run_async_once(sc, adv);
  ASSERT_FALSE(a.transcript.empty());
  EXPECT_TRUE(a.transcript == b.transcript);
  EXPECT_EQ(a.net_counters, b.net_counters);
  EXPECT_TRUE(a.spanner == b.spanner);

  // A different adversary seed produces different traffic but — the
  // robustness claim — the identical spanner.
  rt::AdversaryConfig adv2 = adv;
  adv2.seed = 6;
  const AsyncRun c = run_async_once(sc, adv2);
  EXPECT_FALSE(a.transcript == c.transcript);
  EXPECT_TRUE(a.spanner == c.spanner);
}
