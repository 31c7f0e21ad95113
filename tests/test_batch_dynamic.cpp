// Batch-equivalence harness for DynamicSpanner::apply_batch: certifier
// equivalence with one-at-a-time replay across the churn matrix, bit-identity
// across thread counts, deterministic region partitioning, adversarial event
// windows, the mid-window error contract, and the zero-allocation steady
// state (counting allocator).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/verify.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "geom/point.hpp"
#include "runtime/parallel.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace co = localspan::core;
namespace dy = localspan::dynamic;
namespace ge = localspan::geom;
namespace gr = localspan::graph;
namespace rt = localspan::runtime;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

// ---------------------------------------------------------------------------
// Counting allocator: every operator-new in this binary bumps the counter.
// Tests snapshot it around a warmed-up hot path; the infrastructure around
// the window (gtest, streams) may allocate freely.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

// The replacement operator new allocates with std::malloc, so operator
// delete frees with std::free — GCC's new/delete-pair analysis cannot see
// through the replacement and flags the (correct) pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must be replaced too (std::stable_sort's temporary
// buffer allocates through them; a half-replaced set trips ASan's
// alloc-dealloc-mismatch check).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

co::Params practical(const ub::UbgInstance& inst, double eps = 0.5) {
  return co::Params::practical_params(eps, inst.config.alpha);
}

/// Replay a trace through apply_windows in windows of `batch` events,
/// recording the per-window region count and fallback tally.
struct BatchReplay {
  std::vector<int> regions_per_window;
  std::vector<std::vector<int>> region_of_event;  ///< per window.
  int fallbacks = 0;
  int failed_checks = 0;
};

BatchReplay replay_batched(dy::DynamicSpanner& engine, const dy::ChurnTrace& trace, int batch) {
  BatchReplay out;
  dy::apply_windows(engine, trace.events, batch, [&](int, const dy::BatchStats& st) {
    out.regions_per_window.push_back(st.regions);
    out.region_of_event.push_back(engine.last_region_of_event());
    if (st.fell_back) ++out.fallbacks;
    if (st.check_ran && !st.check_passed) ++out.failed_checks;
  });
  return out;
}

void expect_verified(const dy::DynamicSpanner& engine, const co::Params& params,
                     const char* label) {
  const co::VerificationReport rep =
      co::verify_spanner(engine.instance(), engine.spanner(), params.t);
  EXPECT_TRUE(rep.stretch_ok) << label << ": " << rep.summary();
  EXPECT_TRUE(rep.is_subgraph && rep.weights_match && rep.connectivity_ok)
      << label << ": " << rep.summary();
  EXPECT_LE(rep.measured_stretch, params.t * (1.0 + 1e-9)) << label;
}

}  // namespace

class BatchChurnMatrix : public ::testing::TestWithParam<ti::ChurnScenario> {};

// The headline property: windowed apply_batch over a full trace ends in a
// spanner that passes exactly the certifier the one-at-a-time replay passes,
// with no fallbacks (the witness-locality argument extends to merged
// regions, so the batch checker should never bail out either).
TEST_P(BatchChurnMatrix, BatchedReplayMatchesSequentialCertifier) {
  const ti::ChurnScenario& sc = GetParam();
  const ub::UbgInstance inst = sc.base.make();
  const dy::ChurnTrace trace = sc.make_trace(inst);
  ASSERT_EQ(dy::validate_trace(trace, inst), "");
  const co::Params params = practical(inst);

  dy::DynamicSpanner seq(inst, params);
  int seq_fallbacks = 0;
  for (const dy::ChurnEvent& ev : trace.events) {
    if (seq.apply(ev).fell_back) ++seq_fallbacks;
  }

  dy::DynamicSpanner batched(inst, params);
  const BatchReplay replay = replay_batched(batched, trace, 8);

  EXPECT_EQ(seq_fallbacks, 0);
  EXPECT_EQ(replay.fallbacks, 0);
  EXPECT_EQ(replay.failed_checks, 0);
  expect_verified(seq, params, "sequential");
  expect_verified(batched, params, "batched");

  // Identical final topology (mutations are replayed identically), and both
  // spanners certify in full against it.
  EXPECT_EQ(batched.instance().g, seq.instance().g);
  EXPECT_EQ(batched.active_count(), seq.active_count());
  EXPECT_TRUE(batched.certify({}));
  EXPECT_TRUE(seq.certify({}));
}

// Batch repair is bit-identical across thread counts: same spanner, same
// region partition, same per-window region counts.
TEST_P(BatchChurnMatrix, BitIdenticalAcrossThreadCounts) {
  const ti::ChurnScenario& sc = GetParam();
  const ub::UbgInstance inst = sc.base.make();
  const dy::ChurnTrace trace = sc.make_trace(inst);
  const co::Params params = practical(inst);

  std::vector<int> thread_counts{1, 2, rt::hardware_threads()};
  dy::DynamicOptions base_opts;
  base_opts.threads = 1;
  dy::DynamicSpanner reference(inst, params, base_opts);
  const BatchReplay ref_replay = replay_batched(reference, trace, 8);

  for (std::size_t k = 1; k < thread_counts.size(); ++k) {
    dy::DynamicOptions opts;
    opts.threads = thread_counts[k];
    dy::DynamicSpanner engine(inst, params, opts);
    const BatchReplay replay = replay_batched(engine, trace, 8);
    EXPECT_EQ(engine.spanner(), reference.spanner()) << "threads=" << thread_counts[k];
    EXPECT_EQ(replay.regions_per_window, ref_replay.regions_per_window)
        << "threads=" << thread_counts[k];
    EXPECT_EQ(replay.region_of_event, ref_replay.region_of_event)
        << "threads=" << thread_counts[k];
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, BatchChurnMatrix, ::testing::ValuesIn(ti::churn_matrix()),
                         ti::ChurnScenarioName());

// Same seed, same windows => same partition and same spanner, run to run.
TEST(BatchDynamic, PartitionIsDeterministicUnderSeed) {
  const ti::ChurnScenario sc{ti::Scenario{2, ub::Placement::kUniform, 0.75, 96, 1},
                             ti::ChurnModel::kPoisson, 48, 7};
  const ub::UbgInstance inst = sc.base.make();
  const dy::ChurnTrace trace = sc.make_trace(inst);
  const co::Params params = practical(inst);

  dy::DynamicOptions opts;
  opts.threads = 2;
  dy::DynamicSpanner a(inst, params, opts);
  dy::DynamicSpanner b(inst, params, opts);
  const BatchReplay ra = replay_batched(a, trace, 6);
  const BatchReplay rb = replay_batched(b, trace, 6);
  EXPECT_EQ(ra.region_of_event, rb.region_of_event);
  EXPECT_EQ(ra.regions_per_window, rb.regions_per_window);
  EXPECT_EQ(a.spanner(), b.spanner());
}

// apply() is a one-event window: the same spanner bit for bit, and its
// RepairStats carry the window's BatchStats field for field.
TEST(BatchDynamic, SingleEventBatchMatchesApply) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 96, 3}.make();
  dy::PoissonChurnConfig pc;
  pc.events = 32;
  pc.seed = 9;
  const dy::ChurnTrace trace = dy::poisson_churn(inst, pc);
  const co::Params params = practical(inst);

  dy::DynamicSpanner seq(inst, params);
  dy::DynamicSpanner one(inst, params);
  for (const dy::ChurnEvent& ev : trace.events) {
    const dy::RepairStats rs = seq.apply(ev);
    const dy::BatchStats bs = one.apply_batch(std::span<const dy::ChurnEvent>(&ev, 1));
    ASSERT_EQ(one.spanner(), seq.spanner()) << "diverged at event t=" << ev.time;
    EXPECT_EQ(one.last_region_of_event(), seq.last_region_of_event());
    EXPECT_EQ(bs.ball_union, rs.ball_size);
    EXPECT_EQ(bs.sub_edges, rs.sub_edges);
    EXPECT_EQ(bs.spanner_edges_added, rs.spanner_edges_added);
    EXPECT_EQ(bs.spanner_edges_removed, rs.spanner_edges_removed);
    EXPECT_EQ(bs.certify_scope, rs.certify_scope);
    EXPECT_EQ(bs.check_ran, rs.check_ran);
    EXPECT_EQ(bs.check_passed, rs.check_passed);
    EXPECT_EQ(bs.fell_back, rs.fell_back);
  }
}

// ---------------------------------------------------------------------------
// Adversarial windows: overlapping balls, duplicate node churn within one
// window (join-then-leave, leave-then-rejoin), repeated moves of one node.
// ---------------------------------------------------------------------------
namespace {

std::vector<dy::ChurnEvent> adversarial_window(const ub::UbgInstance& inst, std::uint64_t seed,
                                               int steps) {
  std::mt19937_64 rng(seed);
  const int dim = inst.config.dim;
  const double side = inst.config.side;
  std::uniform_real_distribution<double> coord(0.0, side);
  std::uniform_real_distribution<double> jitter(-0.3, 0.3);

  std::vector<char> live(static_cast<std::size_t>(inst.config.n), 1);
  std::vector<ge::Point> pos;
  for (int v = 0; v < inst.points.size(); ++v) pos.push_back(inst.points[v]);
  int live_count = inst.config.n;
  int next_id = inst.config.n;
  double t = 0.0;

  const auto random_point = [&] {
    ge::Point p(dim);
    for (int k = 0; k < dim; ++k) p[k] = coord(rng);
    return p;
  };
  const auto near_point = [&](const ge::Point& at) {
    ge::Point p(dim);
    for (int k = 0; k < dim; ++k) {
      p[k] = std::min(side, std::max(0.0, at[k] + jitter(rng)));
    }
    return p;
  };
  const auto random_live = [&] {
    std::uniform_int_distribution<int> pick(0, static_cast<int>(live.size()) - 1);
    int v = pick(rng);
    while (live[static_cast<std::size_t>(v)] == 0) v = pick(rng);
    return v;
  };
  const auto grow = [&](int id) {
    if (id >= static_cast<int>(live.size())) {
      live.resize(static_cast<std::size_t>(id) + 1, 0);
      pos.resize(static_cast<std::size_t>(id) + 1, ge::Point(dim));
    }
  };

  std::vector<dy::ChurnEvent> events;
  std::uniform_int_distribution<int> op(0, 5);
  for (int s = 0; s < steps; ++s) {
    t += 0.05;
    switch (op(rng)) {
      case 0: {  // join right on top of a live node: guaranteed ball overlap
        const int id = next_id++;
        grow(id);
        const ge::Point p = near_point(pos[static_cast<std::size_t>(random_live())]);
        events.push_back({t, dy::EventKind::kJoin, id, p});
        live[static_cast<std::size_t>(id)] = 1;
        pos[static_cast<std::size_t>(id)] = p;
        ++live_count;
        break;
      }
      case 1: {  // join anywhere
        const int id = next_id++;
        grow(id);
        const ge::Point p = random_point();
        events.push_back({t, dy::EventKind::kJoin, id, p});
        live[static_cast<std::size_t>(id)] = 1;
        pos[static_cast<std::size_t>(id)] = p;
        ++live_count;
        break;
      }
      case 2: {  // leave (keep a core population alive)
        if (live_count <= 8) break;
        const int v = random_live();
        events.push_back({t, dy::EventKind::kLeave, v, ge::Point(dim)});
        live[static_cast<std::size_t>(v)] = 0;
        --live_count;
        break;
      }
      case 3: {  // move, twice in a row: duplicate-node churn in one window
        const int v = random_live();
        for (int rep = 0; rep < 2; ++rep) {
          const ge::Point p = near_point(pos[static_cast<std::size_t>(v)]);
          events.push_back({t, dy::EventKind::kMove, v, p});
          pos[static_cast<std::size_t>(v)] = p;
        }
        break;
      }
      case 4: {  // join-then-leave of the same fresh id inside the window
        const int id = next_id++;
        grow(id);
        const ge::Point p = near_point(pos[static_cast<std::size_t>(random_live())]);
        events.push_back({t, dy::EventKind::kJoin, id, p});
        events.push_back({t + 0.01, dy::EventKind::kLeave, id, ge::Point(dim)});
        break;
      }
      case 5: {  // leave-then-rejoin of the same id at a new position
        if (live_count <= 8) break;
        const int v = random_live();
        events.push_back({t, dy::EventKind::kLeave, v, ge::Point(dim)});
        const ge::Point p = random_point();
        events.push_back({t + 0.01, dy::EventKind::kJoin, v, p});
        pos[static_cast<std::size_t>(v)] = p;
        break;
      }
      default:
        break;
    }
  }
  return events;
}

}  // namespace

TEST(BatchDynamic, AdversarialWindowsStayCertifiedAndThreadIdentical) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 64, 5}.make();
  const co::Params params = practical(inst);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::vector<dy::ChurnEvent> window = adversarial_window(inst, seed, 24);
    ASSERT_FALSE(window.empty());

    dy::DynamicSpanner seq(inst, params);
    for (const dy::ChurnEvent& ev : window) static_cast<void>(seq.apply(ev));

    dy::DynamicOptions serial_opts;
    serial_opts.threads = 1;
    dy::DynamicSpanner batched(inst, params, serial_opts);
    const dy::BatchStats st = batched.apply_batch(window);
    EXPECT_FALSE(st.fell_back) << "seed=" << seed;
    EXPECT_TRUE(!st.check_ran || st.check_passed) << "seed=" << seed;
    expect_verified(seq, params, "adversarial sequential");
    expect_verified(batched, params, "adversarial batched");
    EXPECT_EQ(batched.instance().g, seq.instance().g) << "seed=" << seed;
    EXPECT_TRUE(batched.certify({})) << "seed=" << seed;

    for (int threads : {2, rt::hardware_threads()}) {
      dy::DynamicOptions opts;
      opts.threads = threads;
      dy::DynamicSpanner engine(inst, params, opts);
      static_cast<void>(engine.apply_batch(window));
      EXPECT_EQ(engine.spanner(), batched.spanner()) << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(engine.last_region_of_event(), batched.last_region_of_event())
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Mid-window invalid event: the error is typed, earlier events of the window
// stay ingested, and the engine restores a certified state before throwing.
TEST(BatchDynamic, MidWindowErrorRestoresCertifiedState) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 64, 5}.make();
  const co::Params params = practical(inst);
  dy::DynamicSpanner engine(inst, params);

  ge::Point far(2);
  far[0] = 500.0;
  far[1] = 500.0;
  const int fresh = inst.config.n;
  std::vector<dy::ChurnEvent> window{
      {0.1, dy::EventKind::kJoin, fresh, far},
      {0.2, dy::EventKind::kJoin, 0, far},  // node 0 is live: invalid
  };
  EXPECT_THROW(static_cast<void>(engine.apply_batch(window)), std::invalid_argument);
  EXPECT_TRUE(engine.is_active(fresh));  // the valid prefix was ingested
  EXPECT_TRUE(engine.certify({}));
  expect_verified(engine, params, "post-error");

  // The engine keeps working normally afterwards.
  std::vector<dy::ChurnEvent> cleanup{{0.3, dy::EventKind::kLeave, fresh, ge::Point(2)}};
  const dy::BatchStats st = engine.apply_batch(cleanup);
  EXPECT_EQ(st.events, 1);
  EXPECT_FALSE(engine.is_active(fresh));
}

TEST(BatchDynamic, EmptyWindowIsANoop) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 48, 2}.make();
  const co::Params params = practical(inst);
  dy::DynamicSpanner engine(inst, params);
  const gr::Graph before = engine.spanner();
  const dy::BatchStats st = engine.apply_batch({});
  EXPECT_EQ(st.events, 0);
  EXPECT_EQ(st.regions, 0);
  EXPECT_EQ(engine.spanner(), before);
  EXPECT_TRUE(engine.last_region_of_event().empty());
}

// apply_windows: the one window loop. A width below 1 is refused before
// any window runs.
TEST(ApplyWindows, WidthBelowOneThrows) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 48, 2}.make();
  dy::DynamicSpanner engine(inst, practical(inst));
  dy::PoissonChurnConfig pc;
  pc.events = 4;
  const dy::ChurnTrace trace = dy::poisson_churn(inst, pc);
  const gr::Graph before = engine.spanner();
  for (const int width : {0, -1}) {
    EXPECT_THROW(static_cast<void>(dy::apply_windows(engine, trace.events, width)),
                 std::invalid_argument)
        << "width " << width;
  }
  EXPECT_EQ(engine.spanner(), before);
}

TEST(ApplyWindows, EmptySpanRunsNoWindow) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 48, 2}.make();
  dy::DynamicSpanner engine(inst, practical(inst));
  int calls = 0;
  const double seconds =
      dy::apply_windows(engine, {}, 4, [&](int, const dy::BatchStats&) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(seconds, 0.0);
}

TEST(ApplyWindows, NumbersWindowsFromOneAndShortensTheLast) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 96, 3}.make();
  dy::PoissonChurnConfig pc;
  pc.events = 13;
  pc.seed = 5;
  const dy::ChurnTrace trace = dy::poisson_churn(inst, pc);
  ASSERT_EQ(trace.events.size(), 13u);
  dy::DynamicSpanner engine(inst, practical(inst));
  std::vector<int> numbers;
  std::vector<int> sizes;
  double summed = 0.0;
  const double seconds =
      dy::apply_windows(engine, trace.events, 4, [&](int window, const dy::BatchStats& st) {
        numbers.push_back(window);
        sizes.push_back(st.events);
        summed += st.seconds;
      });
  EXPECT_EQ(numbers, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sizes, (std::vector<int>{4, 4, 4, 1}));
  EXPECT_EQ(seconds, summed);
}

// An invalid first event means nothing was ingested, so neither entry point
// may touch the standing topology: no rebuild (which would replace the
// incrementally maintained spanner) and no commit notification.
TEST(BatchDynamic, InvalidFirstEventLeavesStateUnchanged) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 256, 1}.make();
  const co::Params params = practical(inst);
  dy::DynamicSpanner engine(inst, params);
  dy::PoissonChurnConfig pc;
  pc.events = 64;
  pc.seed = 1;
  static_cast<void>(engine.apply_all(dy::poisson_churn(inst, pc)));
  // Precondition: churn left a spanner a rebuild would not reproduce, so a
  // stray full recompute is observable.
  ASSERT_NE(engine.spanner(), co::relaxed_greedy(engine.instance(), params).spanner);

  int commits = 0;
  engine.set_commit_hook([&commits](const dy::DynamicSpanner&) { ++commits; });
  const gr::Graph spanner = engine.spanner();
  const gr::Graph ubg = engine.instance().g;
  int live = 0;
  while (!engine.is_active(live)) ++live;
  const dy::ChurnEvent invalid{0.0, dy::EventKind::kJoin, live, ge::Point(2)};

  EXPECT_THROW(static_cast<void>(engine.apply(invalid)), std::invalid_argument);
  EXPECT_EQ(engine.spanner(), spanner);
  EXPECT_EQ(engine.instance().g, ubg);

  const int fresh = engine.instance().g.n();
  const std::vector<dy::ChurnEvent> window{invalid, {0.1, dy::EventKind::kJoin, fresh, ge::Point(2)}};
  EXPECT_THROW(static_cast<void>(engine.apply_batch(window)), std::invalid_argument);
  EXPECT_EQ(engine.spanner(), spanner);
  EXPECT_EQ(engine.instance().g, ubg);
  EXPECT_FALSE(engine.is_active(fresh));
  EXPECT_EQ(commits, 0);
}

// The commit hook fires once per completed top-level mutation — apply()
// (whose window body nests inside it), a non-empty apply_batch(), a direct
// full_recompute(), and a mutation whose certify failure falls back to a
// nested rebuild — and never for an empty window or a throw.
TEST(BatchDynamic, CommitHookFiresOncePerCompletedMutation) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 64, 5}.make();
  const co::Params params = practical(inst);
  dy::PoissonChurnConfig pc;
  pc.events = 12;
  pc.seed = 4;
  const dy::ChurnTrace trace = dy::poisson_churn(inst, pc);

  dy::DynamicOptions strict;
  strict.caps.max_degree = 1;  // unsatisfiable: every certify falls back
  for (const dy::DynamicOptions& opts : {dy::DynamicOptions{}, strict}) {
    dy::DynamicSpanner engine(inst, params, opts);
    int commits = 0;
    int edges_at_commit = 0;
    engine.set_commit_hook([&](const dy::DynamicSpanner& e) {
      ++commits;
      edges_at_commit = e.spanner().m();
    });

    for (std::size_t i = 0; i < 6; ++i) {
      static_cast<void>(engine.apply(trace.events[i]));
      EXPECT_EQ(commits, static_cast<int>(i) + 1);
      EXPECT_EQ(edges_at_commit, engine.spanner().m());
    }
    static_cast<void>(engine.apply_batch(
        std::span<const dy::ChurnEvent>(trace.events.data() + 6, trace.events.size() - 6)));
    EXPECT_EQ(commits, 7);
    engine.full_recompute();
    EXPECT_EQ(commits, 8);

    static_cast<void>(engine.apply_batch({}));
    EXPECT_EQ(commits, 8);
    const dy::ChurnEvent invalid{9.0, dy::EventKind::kLeave, engine.instance().g.n() + 5,
                                 ge::Point(2)};
    EXPECT_THROW(static_cast<void>(engine.apply(invalid)), std::invalid_argument);
    EXPECT_EQ(commits, 8);
    // A mid-window throw rebuilds inside the window yet still commits nothing.
    const int fresh = engine.instance().g.n();
    const std::vector<dy::ChurnEvent> window{{9.1, dy::EventKind::kJoin, fresh, ge::Point(2)},
                                             invalid};
    EXPECT_THROW(static_cast<void>(engine.apply_batch(window)), std::invalid_argument);
    EXPECT_EQ(commits, 8);
  }
}

// Disjoint far-apart events must form one region each; stats reflect it.
TEST(BatchDynamic, DisjointEventsPartitionIntoSingletonRegions) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 48, 2}.make();
  const co::Params params = practical(inst);
  dy::DynamicSpanner engine(inst, params);

  ge::Point a(2), b(2);
  a[0] = 400.0;
  a[1] = 400.0;
  b[0] = 800.0;
  b[1] = 800.0;
  const int ida = inst.config.n;
  const int idb = inst.config.n + 1;
  std::vector<dy::ChurnEvent> window{
      {0.1, dy::EventKind::kJoin, ida, a},
      {0.2, dy::EventKind::kJoin, idb, b},
  };
  const dy::BatchStats st = engine.apply_batch(window);
  EXPECT_EQ(st.events, 2);
  EXPECT_EQ(st.regions, 2);
  EXPECT_EQ(st.merged_events, 0);
  EXPECT_EQ(engine.last_region_of_event(), (std::vector<int>{0, 1}));

  // Two moves of the same isolated node coalesce into one region.
  ge::Point a2 = a;
  a2[0] += 0.25;
  std::vector<dy::ChurnEvent> moves{
      {0.3, dy::EventKind::kMove, ida, a2},
      {0.4, dy::EventKind::kMove, ida, a},
  };
  const dy::BatchStats mst = engine.apply_batch(moves);
  EXPECT_EQ(mst.regions, 1);
  EXPECT_EQ(mst.merged_events, 1);
  EXPECT_EQ(engine.last_region_of_event(), (std::vector<int>{0, 0}));
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state: a warmed apply_batch over same-cell move
// windows of isolated nodes runs the whole pipeline — mutation, ball
// searches, partition, harvest (edgeless regions skip the rerun), commit,
// merged certify — without a single heap allocation. Join/leave windows are
// excluded by design: the spatial hash allocates a bucket node when a cell
// goes empty->occupied, which is churn of the structure itself, not of the
// batch path.
// ---------------------------------------------------------------------------
namespace {

void probe_warmed_batch(int engine_threads, long long* allocs_out) {
  const ub::UbgInstance inst = ti::Scenario{2, ub::Placement::kUniform, 0.75, 48, 4}.make();
  const co::Params params = practical(inst);
  dy::DynamicOptions opts;
  opts.threads = engine_threads;
  dy::DynamicSpanner engine(inst, params, opts);

  // Two isolated far-corner nodes, each parked mid-cell so same-cell moves
  // never touch the spatial-hash buckets.
  ge::Point a(2), b(2);
  a[0] = 1000.25;
  a[1] = 1000.25;
  b[0] = 2000.25;
  b[1] = 2000.25;
  const int ida = inst.config.n;
  const int idb = inst.config.n + 1;
  std::vector<dy::ChurnEvent> setup{
      {0.1, dy::EventKind::kJoin, ida, a},
      {0.2, dy::EventKind::kJoin, idb, b},
  };
  static_cast<void>(engine.apply_batch(setup));

  // Two alternating move windows, built once — the measured loop must not
  // allocate on the test side either. Same-cell wiggles: 0.25 -> 0.65 keeps
  // floor(coord / cell) unchanged at cell = 1.0.
  const auto wiggled = [](ge::Point p, double d) {
    p[0] += d;
    p[1] += d;
    return p;
  };
  const std::vector<dy::ChurnEvent> out_window{
      {1.0, dy::EventKind::kMove, ida, wiggled(a, 0.4)},
      {1.0, dy::EventKind::kMove, idb, wiggled(b, 0.4)},
  };
  const std::vector<dy::ChurnEvent> back_window{
      {1.1, dy::EventKind::kMove, ida, a},
      {1.1, dy::EventKind::kMove, idb, b},
  };

  for (int i = 0; i < 4; ++i) {  // warm every buffer, both wiggle phases
    static_cast<void>(engine.apply_batch(i % 2 == 0 ? out_window : back_window));
  }
  const long long before = g_allocs.load();
  for (int i = 0; i < 6; ++i) {
    const dy::BatchStats st = engine.apply_batch(i % 2 == 0 ? out_window : back_window);
    if (st.regions != 2 || st.fell_back) {
      *allocs_out = -1;  // probe shape broke; fail loudly in the caller
      return;
    }
  }
  *allocs_out = g_allocs.load() - before;
}

}  // namespace

TEST(BatchDynamic, WarmedApplyBatchAllocatesNothingSerial) {
  long long allocs = 0;
  probe_warmed_batch(1, &allocs);
  EXPECT_EQ(allocs, 0) << "warmed serial apply_batch allocated";
}

TEST(BatchDynamic, WarmedApplyBatchAllocatesNothingThreaded) {
  long long allocs = 0;
  probe_warmed_batch(2, &allocs);
  EXPECT_EQ(allocs, 0) << "warmed threaded apply_batch allocated";
}
