/// Tests for the deterministic parallel runtime (runtime/parallel.hpp) and
/// the bit-identical-at-every-thread-count contract of the retrofitted hot
/// loops: WorkerPool semantics, unit-level equivalence of the
/// parallelized passes (covers, cluster graphs, metrics, fault-tolerant
/// greedy), the registry-level determinism sweep for every algorithm that
/// declares a `threads` option, dynamic-engine determinism under churn, and
/// the counting-allocator steady-state proof re-run at threads=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "api/spanner_algorithm.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/cover.hpp"
#include "cluster_reference.hpp"
#include "core/bins.hpp"
#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "counting_allocator.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "ext/energy.hpp"
#include "ext/fault_tolerant.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "graph/sp_workspace.hpp"
#include "mis/luby.hpp"
#include "mis_reference.hpp"
#include "runtime/parallel.hpp"
#include "scenario_matrix.hpp"
#include "stretch_reference.hpp"

namespace rt = localspan::runtime;
namespace gr = localspan::graph;
namespace cl = localspan::cluster;
using localspan::testinfra::Scenario;
using localspan::testinfra::ScenarioName;

namespace {

/// The thread counts the determinism suite sweeps: serial, two workers, and
/// whatever the hardware reports (deduplicated; on a 1-core machine this
/// still exercises the pool dispatch path at 2).
std::vector<int> determinism_thread_counts() {
  std::vector<int> counts{1, 2, rt::hardware_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// Caller-owned pools for the unit-level equivalence cases: one per
/// determinism thread count, the team of one included, so both branches of
/// the runtime helpers (streaming serial and worker dispatch) are compared
/// against the pool-free serial run.
std::vector<std::unique_ptr<rt::WorkerPool>> determinism_pools() {
  std::vector<std::unique_ptr<rt::WorkerPool>> pools;
  for (int threads : determinism_thread_counts()) {
    pools.push_back(std::make_unique<rt::WorkerPool>(threads));
  }
  return pools;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerPool semantics
// ---------------------------------------------------------------------------

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 7}) {
    rt::WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.for_each(0, 257, [&](int worker, int i) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, StaticChunkingIsContiguousPerWorker) {
  rt::WorkerPool pool(4);
  std::vector<int> owner(100, -1);
  pool.for_each(0, 100, [&](int worker, int i) { owner[static_cast<std::size_t>(i)] = worker; });
  // Worker ids must be non-decreasing over the index range (contiguous
  // chunks in worker order) and all four workers must own a chunk.
  EXPECT_TRUE(std::is_sorted(owner.begin(), owner.end()));
  EXPECT_EQ(owner.front(), 0);
  EXPECT_EQ(owner.back(), 3);
}

TEST(WorkerPool, EmptyAndSingletonRanges) {
  rt::WorkerPool pool(3);
  int calls = 0;
  pool.for_each(5, 5, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> acalls{0};
  pool.for_each(7, 8, [&](int, int i) {
    EXPECT_EQ(i, 7);
    acalls.fetch_add(1);
  });
  EXPECT_EQ(acalls.load(), 1);
}

TEST(WorkerPool, ExceptionsPropagateToCaller) {
  rt::WorkerPool pool(3);
  EXPECT_THROW(pool.for_each(0, 64,
                             [&](int, int i) {
                               if (i == 17) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // The pool survives a throwing dispatch.
  std::atomic<int> count{0};
  pool.for_each(0, 8, [&](int, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(WorkerPool, RejectsNonPositiveThreadCounts) {
  EXPECT_THROW(rt::WorkerPool(0), std::invalid_argument);
  EXPECT_THROW(rt::WorkerPool(-3), std::invalid_argument);
}

TEST(WorkerPool, ResolveThreadsHonorsRequestAndDefault) {
  EXPECT_EQ(rt::resolve_threads(5), 5);
  EXPECT_EQ(rt::resolve_threads(1), 1);
  // 0 and negatives defer to the env default (1 in the test environment
  // unless LOCALSPAN_THREADS is exported, which the suite does not do).
  EXPECT_EQ(rt::resolve_threads(0), rt::default_threads());
  EXPECT_EQ(rt::resolve_threads(-4), rt::default_threads());
  EXPECT_GE(rt::hardware_threads(), 1);
}

TEST(WorkerPool, HandsEachWorkerItsOwnWorkspace) {
  rt::WorkerPool pool(3);
  // Distinct objects per worker slot.
  EXPECT_NE(&pool.workspace(0), &pool.workspace(1));
  EXPECT_NE(&pool.workspace(1), &pool.workspace(2));
  const gr::Graph g = [] {
    gr::Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    return g;
  }();
  std::vector<double> dist(4, -1.0);
  pool.for_each(0, 4, [&](int worker, int i) {
    dist[static_cast<std::size_t>(i)] = pool.workspace(worker).distance(g, 0, i);
  });
  EXPECT_EQ(dist, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
}

TEST(WorkerPool, WarmForEachAllocatesNothing) {
  rt::WorkerPool pool(4);
  std::atomic<long long> sink{0};
  const auto body = [&](int, int i) { sink.fetch_add(i, std::memory_order_relaxed); };
  pool.for_each(0, 1024, body);  // warm-up
  const long long before = g_allocs.load();
  pool.for_each(0, 1024, body);
  EXPECT_EQ(g_allocs.load() - before, 0) << "warmed parallel_for dispatch allocated";
}

// ---------------------------------------------------------------------------
// Unit-level equivalence of the retrofitted passes
// ---------------------------------------------------------------------------

class ParallelMatrixTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ParallelMatrixTest, ClusterGraphMatchesSerialBitForBit) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::CsrView csr(inst.g);
  gr::DijkstraWorkspace ws;
  const double radius = 0.3;
  const double w_prev = 0.25;
  const cl::ClusterCover cover = cl::sequential_cover(csr, radius, ws);
  const cl::ClusterGraph serial = cl::build_cluster_graph(csr, cover, w_prev, ws);
  const cl::ReferenceClusterGraph ref = cl::reference_cluster_graph(csr, cover, w_prev);
  EXPECT_EQ(cl::row_mismatch(serial.h, ref.h), "");
  for (const auto& pool : determinism_pools()) {
    const cl::ClusterGraph parallel = cl::build_cluster_graph(csr, cover, w_prev, ws, pool.get());
    EXPECT_EQ(cl::row_mismatch(parallel.h, ref.h), "");
    EXPECT_EQ(serial.intra_edges, parallel.intra_edges);
    EXPECT_EQ(serial.inter_edges, parallel.inter_edges);
    EXPECT_EQ(serial.max_inter_degree, parallel.max_inter_degree);
    EXPECT_EQ(serial.max_inter_weight, parallel.max_inter_weight);  // bitwise
  }
}

TEST_P(ParallelMatrixTest, StretchMetricsMatchSerialBitForBit) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::Graph mst = localspan::graph::minimum_spanning_forest(inst.g);
  const double serial_edge = gr::max_edge_stretch(inst.g, mst);
  const double serial_pair = gr::sampled_pair_stretch(inst.g, mst, 200, 11);
  for (const auto& pool : determinism_pools()) {
    EXPECT_EQ(serial_edge, gr::max_edge_stretch(inst.g, mst, 64.0, pool.get()));
    EXPECT_EQ(serial_pair, gr::sampled_pair_stretch(inst.g, mst, 200, 11, pool.get()));
  }
}

TEST_P(ParallelMatrixTest, LubyMisMatchesSyncSimulatorAtEveryThreadCount) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const std::uint64_t seed = 41;
  localspan::mis::LubyStats serial_stats;
  const std::vector<int> serial = localspan::mis::luby_mis(inst.g, seed, &serial_stats);
  // The pool-parallel harvester must reproduce both the set and the
  // simulator's analytic round/message accounting, at every thread count
  // including the pool-free serial fallback.
  localspan::mis::LubyStats fallback_stats;
  EXPECT_EQ(serial, localspan::mis::luby_mis_parallel(inst.g, seed, &fallback_stats));
  EXPECT_EQ(serial_stats.iterations, fallback_stats.iterations);
  EXPECT_EQ(serial_stats.network_rounds, fallback_stats.network_rounds);
  EXPECT_EQ(serial_stats.messages, fallback_stats.messages);
  for (int threads : {2, 4}) {
    rt::WorkerPool pool(threads);
    localspan::mis::LubyStats stats;
    EXPECT_EQ(serial, localspan::mis::luby_mis_parallel(inst.g, seed, &stats, &pool))
        << threads << " threads";
    EXPECT_EQ(serial_stats.iterations, stats.iterations);
    EXPECT_EQ(serial_stats.network_rounds, stats.network_rounds);
    EXPECT_EQ(serial_stats.messages, stats.messages);
  }
}

TEST_P(ParallelMatrixTest, BinGroupingMatchesSerialBitForBit) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const std::vector<gr::Edge> edges = inst.g.edges();
  std::vector<double> lens;
  lens.reserve(edges.size());
  for (const gr::Edge& e : edges) lens.push_back(e.w);
  const localspan::core::BinSchema schema(inst.config.alpha, 2.0, inst.g.n());
  const auto serial = localspan::core::group_edges_by_bin(edges, schema, lens);
  for (const auto& pool : determinism_pools()) {
    const auto parallel = localspan::core::group_edges_by_bin(edges, schema, lens, pool.get());
    ASSERT_EQ(serial.size(), parallel.size()) << pool->threads() << " threads";
    for (std::size_t b = 0; b < serial.size(); ++b) {
      ASSERT_EQ(serial[b].size(), parallel[b].size()) << "bin " << b;
      for (std::size_t k = 0; k < serial[b].size(); ++k) {
        EXPECT_EQ(serial[b][k].u, parallel[b][k].u);
        EXPECT_EQ(serial[b][k].v, parallel[b][k].v);
        EXPECT_EQ(serial[b][k].w, parallel[b][k].w);  // bitwise
      }
    }
  }
}

// Query selection runs serially at every thread count. Its winner per
// cluster pair is the minimum of a total order, so no reordering of the
// candidates (a chunking, a merge order) can change the selection.
TEST_P(ParallelMatrixTest, QuerySelectionIgnoresCandidateOrder) {
  namespace cd = localspan::core::detail;
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::CsrView csr(inst.g);
  gr::DijkstraWorkspace ws;
  const cl::ClusterCover cover = cl::sequential_cover(csr, 0.3, ws);
  std::vector<cd::PhaseEdge> candidates;
  for (const gr::Edge& e : inst.g.edges()) candidates.push_back({e.u, e.v, e.w, e.w});
  int want_max = 0;
  const std::vector<cd::PhaseEdge> want = cd::select_query_edges(candidates, cover, 1.5, &want_max);
  for (int shift : {1, 7, 64}) {
    std::vector<cd::PhaseEdge> shuffled = candidates;
    std::reverse(shuffled.begin(), shuffled.end());
    if (!shuffled.empty()) {
      std::rotate(shuffled.begin(),
                  shuffled.begin() + static_cast<std::ptrdiff_t>(
                                         static_cast<std::size_t>(shift) % shuffled.size()),
                  shuffled.end());
    }
    int got_max = 0;
    const std::vector<cd::PhaseEdge> got = cd::select_query_edges(shuffled, cover, 1.5, &got_max);
    EXPECT_EQ(want_max, got_max) << "shift " << shift;
    ASSERT_EQ(want.size(), got.size()) << "shift " << shift;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(want[k].u, got[k].u);
      EXPECT_EQ(want[k].v, got[k].v);
      EXPECT_EQ(want[k].len, got[k].len);  // bitwise
      EXPECT_EQ(want[k].w, got[k].w);      // bitwise
    }
  }
}

// relaxed_greedy on a borrowed pool builds the serial spanner and phase
// trace, and verify_spanner on one reports the serial certificate.
TEST_P(ParallelMatrixTest, RelaxedGreedyAndVerifyMatchSerialBitForBit) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const localspan::core::Params params =
      localspan::core::Params::practical_params(0.5, inst.config.alpha);
  const localspan::core::RelaxedGreedyResult serial = localspan::core::relaxed_greedy(inst, params);
  const localspan::core::VerificationReport serial_rep =
      localspan::core::verify_spanner(inst, serial.spanner, params.t);
  for (const auto& pool : determinism_pools()) {
    localspan::core::RelaxedGreedyOptions opts;
    opts.worker_pool = pool.get();
    const localspan::core::RelaxedGreedyResult parallel =
        localspan::core::relaxed_greedy(inst, params, opts);
    EXPECT_EQ(serial.spanner, parallel.spanner) << pool->threads() << " threads";
    ASSERT_EQ(serial.phases.size(), parallel.phases.size());
    for (std::size_t i = 0; i < serial.phases.size(); ++i) {
      const localspan::core::PhaseStats& a = serial.phases[i];
      const localspan::core::PhaseStats& b = parallel.phases[i];
      EXPECT_EQ(std::tie(a.bin, a.edges_in_bin, a.already_in_spanner, a.covered, a.candidates,
                         a.queries, a.added, a.removed, a.clusters, a.max_query_edges_per_cluster,
                         a.max_inter_degree, a.max_query_hops),
                std::tie(b.bin, b.edges_in_bin, b.already_in_spanner, b.covered, b.candidates,
                         b.queries, b.added, b.removed, b.clusters, b.max_query_edges_per_cluster,
                         b.max_inter_degree, b.max_query_hops))
          << "phase " << i;
      EXPECT_EQ(a.max_inter_weight, b.max_inter_weight);  // bitwise
    }
    const localspan::core::VerificationReport rep =
        localspan::core::verify_spanner(inst, serial.spanner, params.t, {}, pool.get());
    EXPECT_EQ(serial_rep.measured_stretch, rep.measured_stretch);  // bitwise
    EXPECT_EQ(serial_rep.summary(), rep.summary());
  }
}

namespace {

/// Runs the phase loop and answers each phase's §2.2.4 queries a second
/// time with the plain search (`bounded_to` with no potential). The loop's
/// goal-directed answers must match it: per query the distance bits and the
/// hop count, per phase the added count and the Lemma 8 hop statistic. The
/// queries are rebuilt from the phase's inputs: the cover step hands out
/// G'_{i-1}, and after_phase names the bin.
void expect_goal_directed_queries_match_plain(const localspan::ubg::UbgInstance& inst,
                                              const localspan::core::Params& params,
                                              const localspan::core::RelaxedGreedyOptions& opts) {
  namespace cd = localspan::core::detail;
  const std::function<double(double)> transform =
      opts.weight_transform ? opts.weight_transform : [](double len) { return len; };
  std::vector<gr::Edge> weighted;
  std::vector<double> lens;
  for (const gr::Edge& e : inst.g.edges()) {
    weighted.push_back({e.u, e.v, transform(e.w)});
    lens.push_back(e.w);
  }
  const auto bins = localspan::core::group_edges_by_bin(
      weighted, localspan::core::BinSchema(params.alpha, params.r, inst.g.n()), lens);
  gr::CsrView gp;  // G'_{i-1} of the running phase
  cl::ClusterCover cover;
  gr::DijkstraWorkspace ws;
  int checked = 0;
  static_cast<void>(cd::run_relaxed_phases(
      inst, params, opts,
      {.cover = [&](const gr::CsrView& csr, double radius, gr::DijkstraWorkspace& cws) {
         gp = csr;
         cover = cl::sequential_cover(csr, radius, cws);
         return cover;
       },
       .mis = [&](const gr::Graph& j) {
         return localspan::mis::luby_mis_parallel(j, 7, nullptr, opts.worker_pool);
       },
       .after_phase = [&](const localspan::core::PhaseStats& st) {
         const cl::ClusterGraph cg =
             cl::build_cluster_graph(gp, cover, transform(st.w_lo), ws);
         std::vector<cd::PhaseEdge> candidates;
         for (const gr::Edge& e : bins[static_cast<std::size_t>(st.bin)]) {
           if (std::ranges::any_of(gp.neighbors(e.u),
                                   [&](const gr::Neighbor& nb) { return nb.to == e.v; })) {
             continue;
           }
           const cd::PhaseEdge pe{e.u, e.v, inst.points.distance(e.u, e.v), e.w};
           if (!cd::is_covered_edge(inst.points, inst.config.alpha, gp, pe, params.theta)) {
             candidates.push_back(pe);
           }
         }
         const auto queries = cd::select_query_edges(candidates, cover, params.t, nullptr);
         ASSERT_EQ(static_cast<int>(queries.size()), st.queries) << "bin " << st.bin;
         const gr::EuclideanPotential potential = gr::euclidean_potential(cg.h, inst.points);
         int added = 0;
         int worst_hops = 0;
         for (const cd::PhaseEdge& q : queries) {
           const double bound = params.t * q.w;
           int goal_hops = -1;
           const double goal = cl::query_on_h(ws, cg.h, potential, q.u, q.v, bound, &goal_hops);
           const gr::SpView plain = ws.bounded_to(cg.h, q.u, q.v, bound);
           EXPECT_EQ(std::bit_cast<std::uint64_t>(goal),
                     std::bit_cast<std::uint64_t>(plain.dist(q.v)))
               << "bin " << st.bin << " query {" << q.u << ", " << q.v << "}";
           EXPECT_EQ(goal_hops, plain.path_hops(q.v))
               << "bin " << st.bin << " query {" << q.u << ", " << q.v << "}";
           if (plain.dist(q.v) <= bound) {
             worst_hops = std::max(worst_hops, plain.path_hops(q.v));
           } else {
             ++added;
           }
           ++checked;
         }
         EXPECT_EQ(st.added, added) << "bin " << st.bin;
         EXPECT_EQ(st.max_query_hops, worst_hops) << "bin " << st.bin;
       }}));
  EXPECT_GT(checked, 0) << "no phase asked a query";
}

}  // namespace

TEST_P(ParallelMatrixTest, GoalDirectedQueriesMatchThePlainSearch) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const auto params = localspan::core::Params::practical_params(0.5, inst.config.alpha);
  rt::WorkerPool pool(4);
  for (rt::WorkerPool* p : {static_cast<rt::WorkerPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    localspan::core::RelaxedGreedyOptions opts;
    opts.worker_pool = p;
    expect_goal_directed_queries_match_plain(inst, params, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ParallelMatrixTest,
                         ::testing::ValuesIn(localspan::testinfra::standard_matrix()),
                         ScenarioName());

TEST(ParallelGoalDirectedQueries, MatchThePlainSearchUnderTheEnergyTransform) {
  const localspan::ubg::UbgInstance inst = Scenario{2, localspan::ubg::Placement::kClustered,
                                                    0.75, 256, 3}.make();
  const auto params = localspan::core::Params::practical_params(0.5, inst.config.alpha);
  rt::WorkerPool pool(4);
  for (rt::WorkerPool* p : {static_cast<rt::WorkerPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "1 thread" : "4 threads");
    localspan::core::RelaxedGreedyOptions opts;
    opts.weight_transform = localspan::ext::energy_transform(1.0, 2.0);
    opts.worker_pool = p;
    expect_goal_directed_queries_match_plain(inst, params, opts);
  }
}

TEST(ParallelFaultTolerant, MatchesSerialAcrossVariantsAndThreadCounts) {
  const localspan::ubg::UbgInstance inst =
      Scenario{2, localspan::ubg::Placement::kUniform, 0.75, 96, 5}.make();
  std::vector<std::unique_ptr<rt::WorkerPool>> pools;
  for (int threads : {1, 2, 3, 5}) pools.push_back(std::make_unique<rt::WorkerPool>(threads));
  for (int k : {0, 1, 2}) {
    const gr::Graph edge_serial = localspan::ext::fault_tolerant_greedy(inst.g, 1.5, k);
    const gr::Graph vert_serial = localspan::ext::fault_tolerant_greedy_vertex(inst.g, 1.5, k);
    for (const auto& pool : pools) {
      EXPECT_EQ(edge_serial, localspan::ext::fault_tolerant_greedy(inst.g, 1.5, k, pool.get()));
      EXPECT_EQ(vert_serial,
                localspan::ext::fault_tolerant_greedy_vertex(inst.g, 1.5, k, pool.get()));
    }
  }
}

// ---------------------------------------------------------------------------
// Registry-level determinism: every algorithm that declares a `threads`
// option must build a bit-identical topology (and metrics) at threads
// 1 / 2 / hardware across the standard scenario matrix.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> threaded_algorithms() {
  std::vector<std::string> out;
  for (const std::string& name : localspan::api::registry().names()) {
    const localspan::api::AlgorithmInfo& info = localspan::api::registry().at(name).info();
    for (const localspan::api::OptionSpec& spec : info.options) {
      if (spec.key == "threads") {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

}  // namespace

TEST(ParallelRegistry, ThreadsOptionIsDeclaredByParallelAlgorithms) {
  const std::vector<std::string> names = threaded_algorithms();
  // The adapters with parallel construction paths; update when one gains one.
  EXPECT_EQ(names, (std::vector<std::string>{"energy", "ft-edge", "ft-vertex", "relaxed",
                                             "relaxed-dist"}));
}

class ParallelRegistryMatrixTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ParallelRegistryMatrixTest, BuildsAreBitIdenticalAcrossThreadCounts) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const localspan::core::Params params =
      localspan::core::Params::practical_params(0.5, inst.config.alpha);
  for (const std::string& name : threaded_algorithms()) {
    localspan::api::Options serial_opts;
    serial_opts.set("threads", "1");
    const localspan::api::BuildResult serial = localspan::api::registry().build(
        name, localspan::api::BuildRequest{inst, params, serial_opts});
    for (int threads : determinism_thread_counts()) {
      if (threads == 1) continue;
      localspan::api::Options opts;
      opts.set("threads", std::to_string(threads));
      const localspan::api::BuildResult parallel = localspan::api::registry().build(
          name, localspan::api::BuildRequest{inst, params, opts});
      EXPECT_EQ(serial.spanner, parallel.spanner) << name << " @ " << threads << " threads";
      EXPECT_EQ(serial.metrics.edges, parallel.metrics.edges) << name;
      EXPECT_EQ(serial.metrics.max_degree, parallel.metrics.max_degree) << name;
      EXPECT_EQ(serial.metrics.stretch, parallel.metrics.stretch) << name;      // bitwise
      EXPECT_EQ(serial.metrics.lightness, parallel.metrics.lightness) << name;  // bitwise
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ParallelRegistryMatrixTest,
                         ::testing::ValuesIn(localspan::testinfra::standard_matrix()),
                         ScenarioName());

// ---------------------------------------------------------------------------
// Dynamic engine determinism under churn + the threads=4 allocation proof
// ---------------------------------------------------------------------------

TEST(ParallelDynamic, ChurnMaintenanceIsBitIdenticalAcrossThreadCounts) {
  const localspan::ubg::UbgInstance inst =
      Scenario{2, localspan::ubg::Placement::kUniform, 0.75, 96, 3}.make();
  const localspan::core::Params params = localspan::core::Params::practical_params(0.5, 0.75);
  localspan::dynamic::PoissonChurnConfig cfg;
  cfg.events = 24;
  cfg.seed = 3;
  const localspan::dynamic::ChurnTrace trace = localspan::dynamic::poisson_churn(inst, cfg);

  localspan::dynamic::DynamicOptions serial_opts;
  serial_opts.threads = 1;
  localspan::dynamic::DynamicSpanner serial(inst, params, serial_opts);

  localspan::dynamic::DynamicOptions par_opts;
  par_opts.threads = 4;
  localspan::dynamic::DynamicSpanner parallel(inst, params, par_opts);

  EXPECT_EQ(serial.spanner(), parallel.spanner());
  for (const localspan::dynamic::ChurnEvent& ev : trace.events) {
    const localspan::dynamic::RepairStats a = serial.apply(ev);
    const localspan::dynamic::RepairStats b = parallel.apply(ev);
    EXPECT_EQ(serial.spanner(), parallel.spanner()) << "diverged at t=" << ev.time;
    EXPECT_EQ(a.ball_size, b.ball_size);
    EXPECT_EQ(a.check_passed, b.check_passed);
    EXPECT_EQ(a.fell_back, b.fell_back);
    EXPECT_EQ(a.certify_scope, b.certify_scope);
  }
  EXPECT_EQ(serial.instance().g, parallel.instance().g);
}

/// Per-event repair equivalence across the full churn matrix: every
/// single-event window, whose rerun runs pool-parallel inside relaxed
/// greedy, must still produce the serial spanner bit for bit.
class ParallelChurnMatrixTest
    : public ::testing::TestWithParam<localspan::testinfra::ChurnScenario> {};

TEST_P(ParallelChurnMatrixTest, PerEventRepairMatchesSerialBitForBit) {
  const localspan::testinfra::ChurnScenario& sc = GetParam();
  const localspan::ubg::UbgInstance inst = sc.base.make();
  const localspan::core::Params params =
      localspan::core::Params::practical_params(0.5, sc.base.alpha);
  const localspan::dynamic::ChurnTrace trace = sc.make_trace(inst);

  localspan::dynamic::DynamicOptions serial_opts;
  serial_opts.threads = 1;
  localspan::dynamic::DynamicSpanner serial(inst, params, serial_opts);

  localspan::dynamic::DynamicOptions par_opts;
  par_opts.threads = 4;
  localspan::dynamic::DynamicSpanner parallel(inst, params, par_opts);

  ASSERT_EQ(serial.spanner(), parallel.spanner());
  for (const localspan::dynamic::ChurnEvent& ev : trace.events) {
    const localspan::dynamic::RepairStats a = serial.apply(ev);
    const localspan::dynamic::RepairStats b = parallel.apply(ev);
    ASSERT_EQ(serial.spanner(), parallel.spanner())
        << sc.name() << " diverged at t=" << ev.time;
    EXPECT_EQ(a.ball_size, b.ball_size);
    EXPECT_EQ(a.spanner_edges_removed, b.spanner_edges_removed);
    EXPECT_EQ(a.spanner_edges_added, b.spanner_edges_added);
    EXPECT_EQ(a.fell_back, b.fell_back);
  }
  EXPECT_EQ(serial.instance().g, parallel.instance().g);
}

INSTANTIATE_TEST_SUITE_P(Churn, ParallelChurnMatrixTest,
                         ::testing::ValuesIn(localspan::testinfra::churn_matrix()),
                         localspan::testinfra::ChurnScenarioName());

TEST(ParallelDynamicAlloc, WarmCertifyAllocatesNothingAtFourThreads) {
  const localspan::ubg::UbgInstance inst =
      Scenario{2, localspan::ubg::Placement::kUniform, 0.75, 128, 3}.make();
  const localspan::core::Params params = localspan::core::Params::practical_params(0.5, 0.75);
  localspan::dynamic::DynamicOptions opts;
  opts.threads = 4;
  localspan::dynamic::DynamicSpanner engine(inst, params, opts);
  localspan::dynamic::PoissonChurnConfig cfg;
  cfg.events = 8;
  cfg.seed = 3;
  const localspan::dynamic::ChurnTrace trace = localspan::dynamic::poisson_churn(inst, cfg);
  static_cast<void>(engine.apply_all(trace));  // warm scratch + per-worker workspaces
  int live = 0;
  while (live < engine.instance().g.n() && !engine.is_active(live)) ++live;
  ASSERT_LT(live, engine.instance().g.n()) << "no live node after warm-up trace";
  const std::vector<int> modified{live};
  int scope = 0;
  ASSERT_TRUE(engine.certify(modified, &scope));  // warm for this scope size
  const long long before = g_allocs.load();
  const bool ok = engine.certify(modified, &scope);
  const long long allocs = g_allocs.load() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocs, 0) << "warmed parallel certify allocated";
  EXPECT_GT(scope, 0);
}
