// Tests for the dynamic topology engine: churn trace generators, the
// incremental DynamicSpanner repair loop, and its invariant checker.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>

#include "core/params.hpp"
#include "core/verify.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "ext/energy.hpp"
#include "graph/metrics.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace co = localspan::core;
namespace dy = localspan::dynamic;
namespace ext = localspan::ext;
namespace gr = localspan::graph;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance small_instance(int n = 64, double alpha = 0.75, std::uint64_t seed = 3) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

co::Params practical(const ub::UbgInstance& inst, double eps = 0.5) {
  return co::Params::practical_params(eps, inst.config.alpha);
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace generators.
// ---------------------------------------------------------------------------

TEST(ChurnGenerators, PoissonIsDeterministicAndValid) {
  const ub::UbgInstance inst = small_instance();
  dy::PoissonChurnConfig cfg;
  cfg.events = 40;
  cfg.seed = 11;
  const dy::ChurnTrace a = dy::poisson_churn(inst, cfg);
  const dy::ChurnTrace b = dy::poisson_churn(inst, cfg);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events.size(), 40u);
  EXPECT_EQ(dy::validate_trace(a, inst), "");
  cfg.seed = 12;
  EXPECT_FALSE(a == dy::poisson_churn(inst, cfg));
}

TEST(ChurnGenerators, PoissonReusesDepartedIds) {
  const ub::UbgInstance inst = small_instance(16);
  dy::PoissonChurnConfig cfg;
  cfg.events = 200;
  cfg.seed = 7;
  const dy::ChurnTrace trace = dy::poisson_churn(inst, cfg);
  EXPECT_EQ(dy::validate_trace(trace, inst), "");
  int max_id = 0;
  for (const dy::ChurnEvent& ev : trace.events) max_id = std::max(max_id, ev.node);
  // Id compaction: with 50/50 churn on 16 nodes the live count stays modest,
  // so id reuse must keep the slot space far below one-fresh-id-per-join.
  EXPECT_LT(max_id, 16 + 100);
}

TEST(ChurnGenerators, WaypointMovesStayInBoxAndRespectSpeed) {
  const ub::UbgInstance inst = small_instance();
  dy::WaypointConfig cfg;
  cfg.movers = 4;
  cfg.speed = 0.3;
  cfg.sample_dt = 0.5;
  cfg.duration = 4.0;
  cfg.seed = 5;
  const dy::ChurnTrace trace = dy::random_waypoint(inst, cfg);
  EXPECT_EQ(dy::validate_trace(trace, inst), "");
  EXPECT_EQ(trace.events.size(), 4u * 8u);  // movers * (duration / dt)
  std::map<int, localspan::geom::Point> last;
  for (const dy::ChurnEvent& ev : trace.events) {
    ASSERT_EQ(ev.kind, dy::EventKind::kMove);
    for (int k = 0; k < trace.dim; ++k) {
      EXPECT_GE(ev.pos[k], 0.0);
      EXPECT_LE(ev.pos[k], trace.side);
    }
    const auto it = last.find(ev.node);
    const localspan::geom::Point& from =
        it != last.end() ? it->second : inst.points[ev.node];
    EXPECT_LE(localspan::geom::distance(from, ev.pos), cfg.speed * cfg.sample_dt + 1e-9);
    last.insert_or_assign(ev.node, ev.pos);
  }
}

TEST(ChurnGenerators, RejectNonPositiveRateAndSampleInterval) {
  const ub::UbgInstance inst = small_instance();
  for (const double bad : {0.0, -1.0, std::nan("")}) {
    dy::PoissonChurnConfig poisson;
    poisson.rate = bad;
    EXPECT_THROW(static_cast<void>(dy::poisson_churn(inst, poisson)), std::invalid_argument);
    // sample_dt <= 0 never advances the sampling clock: it must throw, not hang.
    dy::WaypointConfig waypoint;
    waypoint.sample_dt = bad;
    EXPECT_THROW(static_cast<void>(dy::random_waypoint(inst, waypoint)), std::invalid_argument);
  }
}

TEST(ChurnGenerators, RegionalFailureLeavesThenRejoins) {
  const ub::UbgInstance inst = small_instance(128);
  dy::RegionalFailureConfig cfg;
  cfg.radius = 1.5;
  cfg.seed = 9;
  const dy::ChurnTrace trace = dy::regional_failure(inst, cfg);
  EXPECT_EQ(dy::validate_trace(trace, inst), "");
  ASSERT_FALSE(trace.events.empty());
  EXPECT_EQ(trace.events.size() % 2, 0u);  // every failed node rejoins
  const std::size_t half = trace.events.size() / 2;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(trace.events[i].kind,
              i < half ? dy::EventKind::kLeave : dy::EventKind::kJoin);
  }
  // Rejoin restores the original position.
  for (std::size_t i = half; i < trace.events.size(); ++i) {
    const dy::ChurnEvent& ev = trace.events[i];
    EXPECT_EQ(ev.pos, inst.points[ev.node]);
  }
}

TEST(ChurnValidate, RejectsBadTraces) {
  const ub::UbgInstance inst = small_instance(8);
  dy::ChurnTrace trace{inst.config.dim, inst.config.alpha, inst.config.side, {}};
  trace.events.push_back({1.0, dy::EventKind::kLeave, 0, localspan::geom::Point(2)});
  trace.events.push_back({0.5, dy::EventKind::kJoin, 0, localspan::geom::Point(2)});
  EXPECT_NE(dy::validate_trace(trace, inst), "");  // time decreases

  trace.events.clear();
  trace.events.push_back({0.5, dy::EventKind::kJoin, 1, localspan::geom::Point(2)});
  EXPECT_NE(dy::validate_trace(trace, inst), "");  // join of a live node

  trace.events.clear();
  trace.events.push_back({0.5, dy::EventKind::kMove, 99, localspan::geom::Point(2)});
  EXPECT_NE(dy::validate_trace(trace, inst), "");  // move of an unknown node

  dy::ChurnTrace wrong_dim = trace;
  wrong_dim.dim = 3;
  wrong_dim.events.clear();
  EXPECT_NE(dy::validate_trace(wrong_dim, inst), "");

  dy::ChurnTrace wrong_side = trace;
  wrong_side.events.clear();
  wrong_side.side = inst.config.side * 2.0;
  EXPECT_NE(dy::validate_trace(wrong_side, inst), "");  // mismatched box
}

// ---------------------------------------------------------------------------
// DynamicSpanner event semantics.
// ---------------------------------------------------------------------------

TEST(DynamicSpanner, JoinLeaveMoveMaintainValidUbg) {
  const ub::UbgInstance seed_inst = small_instance(48);
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst));
  EXPECT_EQ(engine.active_count(), 48);

  // Leave node 0: it must end up isolated and inactive.
  auto st = engine.apply({0.1, dy::EventKind::kLeave, 0, localspan::geom::Point(2)});
  EXPECT_EQ(st.kind, dy::EventKind::kLeave);
  EXPECT_FALSE(engine.is_active(0));
  EXPECT_EQ(engine.instance().g.degree(0), 0);
  EXPECT_EQ(engine.active_count(), 47);
  EXPECT_TRUE(ub::is_valid_ubg(engine.instance()));

  // Rejoin at the center of the box: picks up neighbors again.
  localspan::geom::Point center(2);
  center[0] = engine.instance().config.side / 2.0;
  center[1] = engine.instance().config.side / 2.0;
  st = engine.apply({0.2, dy::EventKind::kJoin, 0, center});
  EXPECT_TRUE(engine.is_active(0));
  EXPECT_GT(st.ball_size, 0);
  EXPECT_EQ(engine.active_count(), 48);
  EXPECT_TRUE(ub::is_valid_ubg(engine.instance()));

  // A join beyond the current capacity grows the slot space.
  st = engine.apply({0.3, dy::EventKind::kJoin, 60, center});
  EXPECT_EQ(engine.instance().g.n(), 61);
  EXPECT_EQ(engine.active_count(), 49);
  EXPECT_TRUE(engine.is_active(60));
  EXPECT_FALSE(engine.is_active(55));  // intermediate slots stay dead
  EXPECT_TRUE(ub::is_valid_ubg(engine.instance()));

  // Move node 60 to a corner.
  localspan::geom::Point corner(2);
  st = engine.apply({0.4, dy::EventKind::kMove, 60, corner});
  EXPECT_EQ(engine.instance().points[60], corner);
  EXPECT_TRUE(ub::is_valid_ubg(engine.instance()));

  // Spanner stayed a certified t-spanner throughout (final audit).
  const co::VerificationReport rep =
      co::verify_spanner(engine.instance(), engine.spanner(), engine.params().t);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(DynamicSpanner, RejectsInvalidEvents) {
  const ub::UbgInstance seed_inst = small_instance(16);
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst));
  const localspan::geom::Point p2(2);
  // Join of a live node / leave of a dead one / move of a dead one.
  EXPECT_THROW(engine.apply({0.0, dy::EventKind::kJoin, 3, p2}), std::invalid_argument);
  EXPECT_THROW(engine.apply({0.0, dy::EventKind::kLeave, 99, p2}), std::invalid_argument);
  EXPECT_THROW(engine.apply({0.0, dy::EventKind::kMove, 99, p2}), std::invalid_argument);
  // Dimension mismatch and out-of-quadrant positions.
  EXPECT_THROW(engine.apply({0.0, dy::EventKind::kJoin, 20, localspan::geom::Point(3)}),
               std::invalid_argument);
  localspan::geom::Point neg(2);
  neg[0] = -1.0;
  EXPECT_THROW(engine.apply({0.0, dy::EventKind::kMove, 3, neg}), std::invalid_argument);
  // A failed event must not have mutated the topology.
  EXPECT_EQ(engine.active_count(), 16);
  EXPECT_TRUE(ub::is_valid_ubg(engine.instance()));
}

TEST(DynamicSpanner, TraceHeaderMismatchThrows) {
  const ub::UbgInstance seed_inst = small_instance(16);
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst));
  dy::ChurnTrace trace{3, seed_inst.config.alpha, seed_inst.config.side, {}};
  EXPECT_THROW(engine.apply_all(trace), std::invalid_argument);
  trace.dim = 2;
  trace.alpha = 0.5;
  EXPECT_THROW(engine.apply_all(trace), std::invalid_argument);
}

TEST(DynamicSpanner, FallbackPathTriggersOnImpossibleCaps) {
  const ub::UbgInstance seed_inst = small_instance(48);
  dy::DynamicOptions opts;
  opts.caps.max_degree = 1;  // unsatisfiable: every repair flunks certification
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst), opts);
  const dy::ChurnTrace trace = dy::poisson_churn(seed_inst, {8, 4.0, 0.5, 21});
  bool fell_back = false;
  for (const dy::RepairStats& st : engine.apply_all(trace)) {
    if (st.check_ran) {
      EXPECT_FALSE(st.check_passed);
      EXPECT_TRUE(st.fell_back);
      fell_back = true;
    }
  }
  EXPECT_TRUE(fell_back);
  // Even while flunking the artificial cap, stretch stays certified because
  // every event fell back to the static pipeline.
  const co::VerificationReport rep =
      co::verify_spanner(engine.instance(), engine.spanner(), engine.params().t);
  EXPECT_TRUE(rep.stretch_ok) << rep.summary();
}

TEST(DynamicSpanner, FullCheckMeasuresLightnessInTransformedUnits) {
  // Under a weight transform the spanner carries transformed weights, so its
  // lightness is only meaningful against the MSF of the reweighted UBG. A
  // cap just below that ratio, yet above the mixed-unit one (transformed
  // spanner over the raw-length MSF), must fail the full certificate.
  const ub::UbgInstance seed_inst = small_instance(48);
  dy::DynamicOptions opts;
  opts.greedy.weight_transform = ext::energy_transform(1.0, 2.0);
  const dy::DynamicSpanner probe(seed_inst, practical(seed_inst), opts);
  const gr::Graph reweighted = ext::energy_reweight(seed_inst, seed_inst.g, 1.0, 2.0);
  opts.check = dy::CheckLevel::kFull;
  opts.caps.lightness = 0.99 * gr::lightness(reweighted, probe.spanner());
  ASSERT_LT(gr::lightness(seed_inst.g, probe.spanner()), opts.caps.lightness);
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst), opts);
  const dy::ChurnTrace trace = dy::poisson_churn(seed_inst, {1, 4.0, 0.5, 21});
  const dy::RepairStats st = engine.apply(trace.events.front());
  ASSERT_TRUE(st.check_ran);
  EXPECT_FALSE(st.check_passed);
  EXPECT_TRUE(st.fell_back);
}

TEST(DynamicSpanner, TinyBallOverrideStillEndsCertified) {
  // Shrinking the dirty ball below the provable radius may break witnesses,
  // but the checker + fallback must keep the standing spanner certified.
  const ub::UbgInstance seed_inst = small_instance(64);
  dy::DynamicOptions opts;
  opts.ball_radius_override = 0.5;
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst), opts);
  EXPECT_LT(engine.ball_radius(), engine.core_radius() + engine.params().t);
  const dy::ChurnTrace trace = dy::poisson_churn(seed_inst, {24, 4.0, 0.5, 31});
  engine.apply_all(trace);
  const co::VerificationReport rep =
      co::verify_spanner(engine.instance(), engine.spanner(), engine.params().t);
  EXPECT_TRUE(rep.stretch_ok) << rep.summary();
  EXPECT_TRUE(rep.is_subgraph) << rep.summary();
  EXPECT_TRUE(rep.connectivity_ok) << rep.summary();
}

TEST(DynamicSpanner, BaselineFullRecomputeMatchesStaticPipeline) {
  const ub::UbgInstance seed_inst = small_instance(48);
  dy::DynamicOptions opts;
  opts.always_full_recompute = true;
  opts.check = dy::CheckLevel::kOff;
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst), opts);
  const dy::ChurnTrace trace = dy::poisson_churn(seed_inst, {12, 4.0, 0.5, 17});
  engine.apply_all(trace);
  // The standing spanner must be exactly what the static pipeline computes
  // on the final topology.
  const gr::Graph fresh = co::relaxed_greedy(engine.instance(), engine.params()).spanner;
  EXPECT_EQ(engine.spanner(), fresh);
}

TEST(DynamicSpanner, GridDiscoveryMatchesLinearScan) {
  // The maintained spatial hash must be a pure optimization: after every
  // join or move, the node's UBG neighbors (and their edge weights) are
  // exactly what an all-pairs scan over the live points finds with the same
  // squared-distance test, over a whole mixed trace.
  const ub::UbgInstance seed_inst = small_instance(72);
  const dy::ChurnTrace trace = dy::poisson_churn(seed_inst, {48, 4.0, 0.5, 23});
  dy::DynamicSpanner hashed(seed_inst, practical(seed_inst));
  const double r2 = dy::DynamicOptions{}.connect_radius * dy::DynamicOptions{}.connect_radius;
  int discoveries = 0;
  for (const dy::ChurnEvent& ev : trace.events) {
    hashed.apply(ev);
    if (ev.kind == dy::EventKind::kLeave) continue;
    const ub::UbgInstance& inst = hashed.instance();
    std::map<int, double> scanned;
    for (int u = 0; u < inst.g.n(); ++u) {
      if (u == ev.node || !hashed.is_active(u)) continue;
      const double d2 = inst.points.sq_distance(ev.node, u);
      if (d2 <= r2) scanned[u] = std::max(std::sqrt(d2), 1e-12);
    }
    std::map<int, double> discovered;
    for (const gr::Neighbor& nb : inst.g.neighbors(ev.node)) discovered[nb.to] = nb.w;
    ASSERT_EQ(discovered, scanned) << "neighbor sets diverged at t=" << ev.time;
    ++discoveries;
  }
  EXPECT_GT(discoveries, 0);
}

TEST(DynamicSpanner, GridDiscoveryHonorsConnectRadius) {
  // A shrunk connect radius must bound discovered edge lengths identically
  // through the spatial-hash path.
  const ub::UbgInstance seed_inst = small_instance(48);
  dy::DynamicOptions opts;
  opts.connect_radius = 0.8;
  dy::DynamicSpanner engine(seed_inst, practical(seed_inst), opts);
  const dy::ChurnTrace trace = dy::poisson_churn(seed_inst, {24, 4.0, 0.5, 31});
  engine.apply_all(trace);
  for (const gr::Edge& e : engine.instance().g.edges()) {
    // Pre-churn gray-zone edges may span up to 1; edges (re)discovered at
    // event time obey the engine's deterministic rule. Either way nothing
    // exceeds the UBG ceiling.
    EXPECT_LE(e.w, 1.0 + 1e-9);
  }
  EXPECT_TRUE(engine.certify({}));
}

TEST(DynamicSpanner, RadiiFollowTheLocalityBound) {
  const ub::UbgInstance seed_inst = small_instance(32);
  const co::Params params = practical(seed_inst);
  dy::DynamicSpanner engine(seed_inst, params);
  // wmax = 1 (identity transform): K = t+1, R = K + t.
  EXPECT_NEAR(engine.core_radius(), params.t + 1.0, 1e-12);
  EXPECT_NEAR(engine.ball_radius(), 2.0 * params.t + 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// The churn scenario matrix: incremental repair stays certified on every
// trace, matching the full-recompute bound (stretch <= t).
// ---------------------------------------------------------------------------

class DynamicChurnMatrix : public ::testing::TestWithParam<ti::ChurnScenario> {};

TEST_P(DynamicChurnMatrix, IncrementalRepairStaysCertified) {
  const ti::ChurnScenario& sc = GetParam();
  const ub::UbgInstance inst = sc.base.make();
  const dy::ChurnTrace trace = sc.make_trace(inst);
  ASSERT_EQ(dy::validate_trace(trace, inst), "");

  const co::Params params = practical(inst);
  dy::DynamicSpanner engine(inst, params);

  int fallbacks = 0;
  std::size_t applied = 0;
  for (const dy::ChurnEvent& ev : trace.events) {
    const dy::RepairStats st = engine.apply(ev);
    if (st.fell_back) ++fallbacks;
    ++applied;
    // Periodic deep audit: model validity + certified stretch.
    if (applied % 16 == 0) {
      ASSERT_TRUE(ub::is_valid_ubg(engine.instance())) << "event " << applied;
      const co::VerificationReport rep =
          co::verify_spanner(engine.instance(), engine.spanner(), params.t);
      ASSERT_TRUE(rep.stretch_ok) << "event " << applied << ": " << rep.summary();
      ASSERT_TRUE(rep.is_subgraph && rep.weights_match && rep.connectivity_ok)
          << "event " << applied << ": " << rep.summary();
    }
  }

  // Final audit: the incremental spanner meets the same bound the
  // full-recompute spanner is certified against.
  const co::VerificationReport incremental =
      co::verify_spanner(engine.instance(), engine.spanner(), params.t);
  EXPECT_TRUE(incremental.stretch_ok) << incremental.summary();
  EXPECT_TRUE(incremental.is_subgraph && incremental.weights_match &&
              incremental.connectivity_ok)
      << incremental.summary();

  const gr::Graph full = co::relaxed_greedy(engine.instance(), params).spanner;
  const co::VerificationReport recomputed =
      co::verify_spanner(engine.instance(), full, params.t);
  EXPECT_TRUE(recomputed.stretch_ok) << recomputed.summary();
  EXPECT_LE(incremental.measured_stretch, params.t * (1.0 + 1e-9));
  EXPECT_LE(recomputed.measured_stretch, params.t * (1.0 + 1e-9));

  // With the provable radius the per-event checker should never have to
  // bail out to a full recompute.
  EXPECT_EQ(fallbacks, 0);
}

TEST_P(DynamicChurnMatrix, FullCheckCertifiesEveryRepair) {
  // CheckLevel::kFull runs the full certificate after every window; with
  // the provable radius no repair may fail it, and the engine's full
  // certify must agree with the stand-alone verify_spanner audit.
  const ti::ChurnScenario& sc = GetParam();
  const ub::UbgInstance inst = sc.base.make();
  const dy::ChurnTrace trace = sc.make_trace(inst);
  const co::Params params = practical(inst);
  dy::DynamicOptions opts;
  opts.check = dy::CheckLevel::kFull;
  dy::DynamicSpanner engine(inst, params, opts);
  std::size_t checked = 0;
  for (const dy::ChurnEvent& ev : trace.events) {
    const dy::RepairStats st = engine.apply(ev);
    // Only the leave of an isolated vertex touches no live vertex; such an
    // event changes nothing and has nothing to certify.
    EXPECT_EQ(st.check_ran, st.ball_size > 0) << "event at t=" << ev.time;
    EXPECT_TRUE(st.check_passed && !st.fell_back) << "event at t=" << ev.time;
    if (st.check_ran) ++checked;
    EXPECT_EQ(engine.certify({}),
              co::verify_spanner(engine.instance(), engine.spanner(), params.t).ok())
        << "event at t=" << ev.time;
  }
  EXPECT_GT(checked, trace.events.size() / 2);
}

// ---------------------------------------------------------------------------
// Golden pin: one 64-bit digest per churn-matrix cell over the whole
// per-event apply() sequence — the spanner's edges with their weight bits
// after every event, plus every deterministic RepairStats field. Recorded
// from the stand-alone per-event repair path before apply() became a
// one-event window of the batch pipeline, which must reproduce every bit,
// serial and at 4 threads alike.
// ---------------------------------------------------------------------------

namespace {

struct GoldenChurnDigest {
  const char* scenario;
  std::uint64_t digest;
};

constexpr GoldenChurnDigest kChurnGolden[] = {
    {"d2_uniform_a075_n96_s1_poisson_e48", 0x86070514f014b8daULL},
    {"d2_uniform_a075_n96_s1_waypoint_e48", 0xd73f74647221824aULL},
    {"d2_uniform_a075_n96_s1_regional_e48", 0xbfa2367144b50a04ULL},
    {"d2_clustered_a075_n96_s1_poisson_e48", 0xc2635e8be78898f8ULL},
    {"d2_clustered_a075_n96_s1_waypoint_e48", 0x7078745ba92418c7ULL},
    {"d2_clustered_a075_n96_s1_regional_e48", 0xa9477bacae58d530ULL},
    {"d3_uniform_a060_n64_s1_poisson_e48", 0x450baa24d7d02875ULL},
    {"d3_uniform_a060_n64_s1_waypoint_e48", 0x79421c06b996c44fULL},
    {"d3_uniform_a060_n64_s1_regional_e48", 0xbddbb105c0478f38ULL},
};

std::uint64_t per_event_digest(const ti::ChurnScenario& sc, int threads) {
  const ub::UbgInstance inst = sc.base.make();
  const dy::ChurnTrace trace = sc.make_trace(inst);
  dy::DynamicOptions opts;
  opts.threads = threads;
  dy::DynamicSpanner engine(inst, practical(inst), opts);
  ti::Digest d;
  for (const dy::ChurnEvent& ev : trace.events) {
    const dy::RepairStats st = engine.apply(ev);
    d.add(static_cast<int>(st.kind));
    d.add(st.node);
    d.add(st.time);
    for (int v : {st.ball_size, st.sub_edges, st.spanner_edges_removed, st.spanner_edges_added,
                  st.certify_scope}) {
      d.add(v);
    }
    for (bool b : {st.check_ran, st.check_passed, st.fell_back}) d.add(b);
    d.add(engine.spanner().n());
    for (const gr::Edge& e : engine.spanner().edges()) {
      d.add(e.u);
      d.add(e.v);
      d.add(e.w);
    }
  }
  return d.value();
}

}  // namespace

TEST_P(DynamicChurnMatrix, PerEventDigestMatchesPinnedRun) {
  const ti::ChurnScenario& sc = GetParam();
  const GoldenChurnDigest* golden = nullptr;
  for (const GoldenChurnDigest& g : kChurnGolden) {
    if (sc.name() == g.scenario) golden = &g;
  }
  ASSERT_NE(golden, nullptr) << sc.name();
  for (int threads : {1, 4}) {
    const std::uint64_t digest = per_event_digest(sc, threads);
    EXPECT_EQ(digest, golden->digest)
        << sc.name() << " threads=" << threads << " digest 0x" << std::hex << digest;
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, DynamicChurnMatrix,
                         ::testing::ValuesIn(localspan::testinfra::churn_matrix()),
                         ti::ChurnScenarioName());
