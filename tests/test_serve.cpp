/// Tests for the query-serving subsystem (src/serve/): the epoch-published
/// snapshot store's lifecycle and shared-ownership reclamation, concurrent
/// readers against live publishes (the TSan-audited leg), routing-oracle
/// stretch equivalence against exact Dijkstra across the scenario matrix,
/// bit-identity of oracle labels at every thread count, the dynamic-engine
/// commit hook, and route-path validity.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"
#include "scenario_matrix.hpp"
#include "serve/oracle.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"

namespace gr = localspan::graph;
namespace sv = localspan::serve;
namespace dyn = localspan::dynamic;
using localspan::core::Params;
using localspan::runtime::WorkerPool;
using localspan::testinfra::Scenario;
using localspan::testinfra::ScenarioName;
using localspan::ubg::UbgInstance;

namespace {

std::unique_ptr<sv::TopologySnapshot> make_snapshot(const gr::Graph& g, double stretch_t = 1.5) {
  auto snap = std::make_unique<sv::TopologySnapshot>();
  snap->csr.assign(g);
  snap->n = g.n();
  snap->active.assign(static_cast<std::size_t>(g.n()), 1);
  snap->stretch_t = stretch_t;
  gr::DijkstraWorkspace ws(g.n());
  snap->oracle.build(snap->csr, sv::OracleConfig{}, ws);
  return snap;
}

/// A path graph 0-1-2-...-(n-1) with unit weights; distances are |u - v|.
gr::Graph path_graph(int n) {
  gr::Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, 1.0);
  return g;
}

// ---------------------------------------------------------------------------
// Snapshot store lifecycle.
// ---------------------------------------------------------------------------

TEST(SnapshotStore, AcquireBeforePublishThrows) {
  const sv::SnapshotStore store;
  EXPECT_EQ(store.current_epoch(), 0u);
  EXPECT_THROW(static_cast<void>(store.acquire()), std::logic_error);
}

TEST(SnapshotStore, EpochsAreMonotoneAndGuardSeesSealedSnapshot) {
  sv::SnapshotStore store;
  const gr::Graph g = path_graph(8);
  const std::uint64_t e1 = store.publish(make_snapshot(g));
  const std::uint64_t e2 = store.publish(make_snapshot(g));
  EXPECT_LT(e1, e2);
  EXPECT_EQ(store.current_epoch(), e2);

  const sv::SnapshotStore::ReadGuard guard = store.acquire();
  EXPECT_EQ(guard->epoch, e2);
  EXPECT_EQ(guard->checksum, guard->compute_checksum());
  // One thread may hold several guards; they share the current snapshot.
  const sv::SnapshotStore::ReadGuard again = store.acquire();
  EXPECT_EQ(again.get(), guard.get());
}

TEST(SnapshotStore, HeldSnapshotOutlivesNewerPublishesUntilReleased) {
  sv::SnapshotStore store;
  const gr::Graph g = path_graph(8);
  store.publish(make_snapshot(g));

  sv::SnapshotStore::ReadGuard guard = store.acquire();
  const std::weak_ptr<const sv::TopologySnapshot> watch = guard;
  const std::uint64_t held_epoch = guard->epoch;

  // Two newer publishes replace epoch 1 and then epoch 2. The guard keeps
  // epoch 1 alive; epoch 2 has no holder left and is freed at once.
  store.publish(make_snapshot(g));
  const std::weak_ptr<const sv::TopologySnapshot> second = store.acquire();
  store.publish(make_snapshot(g));
  EXPECT_TRUE(second.expired());
  EXPECT_EQ(store.current_epoch(), held_epoch + 2);

  // The held snapshot is still fully valid while newer epochs exist.
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(guard->epoch, held_epoch);
  EXPECT_EQ(guard->checksum, guard->compute_checksum());
  gr::DijkstraWorkspace ws(guard->n);
  EXPECT_DOUBLE_EQ(ws.distance(guard->csr, 0, 7), 7.0);

  // Its last holder lets go: freed.
  guard.reset();
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------------
// Concurrent readers during live publishes. Run under TSan in CI: the
// checksum recomputation would catch a half-built snapshot, ASan a
// snapshot freed under a reader, and TSan any missing happens-before edge.
// ---------------------------------------------------------------------------

TEST(SnapshotStoreConcurrency, ReadersSurviveLivePublishAndReclaim) {
  const Scenario sc{2, localspan::ubg::Placement::kUniform, 0.75, 96, 3};
  const UbgInstance inst = sc.make();
  sv::QueryEngine qe;
  qe.publish(inst.g, 1.5);

  constexpr int kReaders = 4;
  constexpr int kPublishes = 24;
  constexpr int kQueriesPerReader = 400;
  std::atomic<long long> checked{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int k = 0; k < kReaders; ++k) {
    readers.emplace_back([&, k] {
      sv::QueryEngine::Reader reader = qe.reader();
      std::mt19937_64 rng(1234u + static_cast<unsigned>(k));
      std::uniform_int_distribution<int> pick(0, inst.g.n() - 1);
      for (int q = 0; q < kQueriesPerReader; ++q) {
        {
          const sv::SnapshotStore::ReadGuard guard = reader.pin();
          ASSERT_EQ(guard->checksum, guard->compute_checksum());
          ASSERT_GE(guard->epoch, 1u);
        }
        const int s = pick(rng);
        const int d = pick(rng);
        const sv::QueryEngine::DistanceAnswer a = reader.distance(s, d == s ? (s + 1) % inst.g.n() : d);
        ASSERT_GE(a.distance, 0.0);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The writer republishes the same topology over and over; every publish
  // drops the store's hold on the predecessor.
  for (int p = 0; p < kPublishes; ++p) {
    qe.publish(inst.g, 1.5);
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(checked.load(), static_cast<long long>(kReaders) * kQueriesPerReader);
  // The readers let go of every snapshot: the store holds the last one
  // alone.
  EXPECT_EQ(qe.store().current_epoch(), static_cast<std::uint64_t>(kPublishes) + 1);
  EXPECT_EQ(qe.store().acquire().use_count(), 2);  // the store's + this copy
}

// ---------------------------------------------------------------------------
// Oracle correctness: served distances vs exact Dijkstra across the matrix.
// ---------------------------------------------------------------------------

class ServeScenarioTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ServeScenarioTest, ServedDistancesMatchExactWithinDeclaredStretch) {
  const UbgInstance inst = GetParam().make();
  sv::QueryEngine qe;
  qe.publish(inst.g, 1.5);
  sv::QueryEngine::Reader reader = qe.reader();

  double bound = 0.0;
  bool bound_holds = false;
  {
    const sv::SnapshotStore::ReadGuard snap = reader.pin();
    bound = snap->oracle.stretch_bound();
    bound_holds = !snap->oracle.truncated();
    EXPECT_GT(bound, 1.0);
  }
  EXPECT_TRUE(bound_holds);  // 24 levels is ample for these diameters

  const gr::CsrView csr(inst.g);
  gr::DijkstraWorkspace exact_ws(inst.g.n());
  std::mt19937_64 rng(GetParam().seed * 77u + 5u);
  std::uniform_int_distribution<int> pick(0, inst.g.n() - 1);
  for (int i = 0; i < 200; ++i) {
    const int s = pick(rng);
    int d = pick(rng);
    if (s == d) d = (d + 1) % inst.g.n();
    const double exact = exact_ws.distance(csr, s, d);
    const sv::QueryEngine::DistanceAnswer served = reader.distance(s, d);
    if (exact == gr::kInf) {
      EXPECT_EQ(served.distance, gr::kInf) << "pair " << s << "," << d;
      continue;
    }
    const double tol = 1e-9 * std::max(1.0, exact);
    EXPECT_GE(served.distance, exact - tol) << "pair " << s << "," << d;
    if (bound_holds) {
      EXPECT_LE(served.distance, bound * exact + tol) << "pair " << s << "," << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ServeScenarioTest,
                         ::testing::ValuesIn(localspan::testinfra::standard_matrix()),
                         ScenarioName());

TEST(RoutingOracle, EstimateIsExactOnAPath) {
  // On a unit path the oracle's candidate d(u,c)+d(c,v) is exact whenever c
  // lies between u and v, which a complete hierarchy guarantees for some
  // level; the near-pair fallback covers the rest. So every served distance
  // is exact, not just bounded.
  const int n = 64;
  const gr::Graph g = path_graph(n);
  sv::QueryEngine qe;
  qe.publish(g, 1.5);
  sv::QueryEngine::Reader reader = qe.reader();
  for (int u = 0; u < n; u += 7) {
    for (int v = u + 1; v < n; v += 5) {
      const sv::QueryEngine::DistanceAnswer a = reader.distance(u, v);
      EXPECT_GE(a.distance, static_cast<double>(v - u) - 1e-9);
      EXPECT_LE(a.distance, 5.0 * (v - u) + 1e-9);
    }
  }
}

TEST(RoutingOracle, DisconnectedPairsReportInf) {
  gr::Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);  // second component; 5 isolated
  sv::QueryEngine qe;
  qe.publish(g, 1.5);
  sv::QueryEngine::Reader reader = qe.reader();
  EXPECT_EQ(reader.distance(0, 3).distance, gr::kInf);
  EXPECT_EQ(reader.distance(2, 5).distance, gr::kInf);
  EXPECT_DOUBLE_EQ(reader.distance(0, 2).distance, 2.0);
  EXPECT_FALSE(reader.route(0, 3).reachable);
}

TEST(RoutingOracle, ConfigValidation) {
  const gr::Graph g = path_graph(4);
  const gr::CsrView csr(g);
  gr::DijkstraWorkspace ws(4);
  sv::RoutingOracle oracle;
  sv::OracleConfig bad;
  bad.level_ratio = 1.0;
  EXPECT_THROW(oracle.build(csr, bad, ws), std::invalid_argument);
  bad = {};
  bad.label_reach = 1.5;
  EXPECT_THROW(oracle.build(csr, bad, ws), std::invalid_argument);
  bad = {};
  bad.max_levels = 0;
  EXPECT_THROW(oracle.build(csr, bad, ws), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism: oracle labels are bit-identical at every thread count.
// ---------------------------------------------------------------------------

TEST(RoutingOracleDeterminism, LabelsBitIdenticalAcrossThreadCounts) {
  const Scenario sc{2, localspan::ubg::Placement::kClustered, 0.75, 128, 9};
  const UbgInstance inst = sc.make();
  const gr::CsrView csr(inst.g);

  gr::DijkstraWorkspace ws(inst.g.n());
  sv::RoutingOracle serial;
  serial.build(csr, sv::OracleConfig{}, ws);
  ASSERT_GT(serial.levels(), 0);
  ASSERT_GT(serial.total_label_entries(), 0);

  for (int threads : {2, 4}) {
    WorkerPool pool(threads);
    sv::RoutingOracle parallel;
    parallel.build(csr, sv::OracleConfig{}, ws, &pool);
    EXPECT_EQ(serial, parallel) << "thread count " << threads;
  }
}

// ---------------------------------------------------------------------------
// Dynamic-engine integration: the commit hook republishes per window.
// ---------------------------------------------------------------------------

TEST(QueryEngineDynamic, CommitHookPublishesOncePerWindow) {
  const Scenario sc{2, localspan::ubg::Placement::kUniform, 0.75, 96, 1};
  UbgInstance inst = sc.make();
  dyn::PoissonChurnConfig pc;
  pc.events = 48;
  pc.seed = 1;
  const dyn::ChurnTrace trace = dyn::poisson_churn(inst, pc);
  const Params params = Params::practical_params(0.5, inst.config.alpha);

  dyn::DynamicSpanner engine(std::move(inst), params, {});
  sv::QueryEngine qe;
  qe.attach(engine);
  const std::uint64_t e0 = qe.publish(engine);
  EXPECT_EQ(e0, 1u);

  // An empty window commits nothing, so nothing is published.
  engine.apply_batch(std::span<const dyn::ChurnEvent>{});
  EXPECT_EQ(qe.store().current_epoch(), e0);

  std::uint64_t prev = e0;
  int windows = 0;
  for (std::size_t i = 0; i < trace.events.size(); i += 16) {
    const std::size_t len = std::min<std::size_t>(16, trace.events.size() - i);
    engine.apply_batch(std::span<const dyn::ChurnEvent>(trace.events.data() + i, len));
    ++windows;
    EXPECT_EQ(qe.store().current_epoch(), prev + 1) << "window " << windows;
    prev = qe.store().current_epoch();
  }
  EXPECT_GT(windows, 1);

  // Served answers on the final snapshot agree with exact Dijkstra on the
  // engine's final spanner.
  sv::QueryEngine::Reader reader = qe.reader();
  const gr::CsrView csr(engine.spanner());
  gr::DijkstraWorkspace exact_ws(engine.spanner().n());
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> pick(0, engine.spanner().n() - 1);
  for (int i = 0; i < 100; ++i) {
    const int s = pick(rng);
    int d = pick(rng);
    if (s == d) d = (d + 1) % engine.spanner().n();
    if (!engine.is_active(s) || !engine.is_active(d)) {
      EXPECT_EQ(reader.distance(s, d).distance, gr::kInf);
      continue;
    }
    const double exact = exact_ws.distance(csr, s, d);
    const sv::QueryEngine::DistanceAnswer served = reader.distance(s, d);
    if (exact == gr::kInf) {
      EXPECT_EQ(served.distance, gr::kInf);
    } else {
      const double tol = 1e-9 * std::max(1.0, exact);
      EXPECT_GE(served.distance, exact - tol);
      EXPECT_LE(served.distance, 5.0 * exact + tol);
    }
  }
}

// ---------------------------------------------------------------------------
// Route answers: exact on the snapshot, with a valid vertex path.
// ---------------------------------------------------------------------------

TEST(QueryEngineRoute, RoutePathsAreValidAndExact) {
  const Scenario sc{2, localspan::ubg::Placement::kUniform, 0.75, 96, 2};
  const UbgInstance inst = sc.make();
  sv::QueryEngine qe;
  qe.publish(inst.g, 1.5);
  sv::QueryEngine::Reader reader = qe.reader();

  const gr::CsrView csr(inst.g);
  gr::DijkstraWorkspace exact_ws(inst.g.n());
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> pick(0, inst.g.n() - 1);
  std::vector<int> path;
  int reachable = 0;
  for (int i = 0; i < 100; ++i) {
    const int s = pick(rng);
    int d = pick(rng);
    if (s == d) d = (d + 1) % inst.g.n();
    const double exact = exact_ws.distance(csr, s, d);
    const sv::QueryEngine::RouteAnswer a = reader.route(s, d, &path);
    if (exact == gr::kInf) {
      EXPECT_FALSE(a.reachable);
      EXPECT_TRUE(path.empty());
      continue;
    }
    ++reachable;
    ASSERT_TRUE(a.reachable) << "pair " << s << "," << d;
    EXPECT_NEAR(a.distance, exact, 1e-9 * std::max(1.0, exact));
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), d);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, a.hops);
    double walked = 0.0;
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      ASSERT_TRUE(inst.g.has_edge(path[j], path[j + 1]))
          << "path hop " << path[j] << "->" << path[j + 1] << " is not an edge";
      walked += inst.g.edge_weight(path[j], path[j + 1]);
    }
    EXPECT_NEAR(walked, exact, 1e-9 * std::max(1.0, exact));
  }
  EXPECT_GT(reachable, 0);
}

}  // namespace
