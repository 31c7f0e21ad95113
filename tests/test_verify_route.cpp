// Tests for the spanner verifier and its stretch measurement (bit-identical
// to the single-radius reference), geometric routing, the message-level
// k-hop gather protocol, and the theta-graph / vertex-FT additions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/gabriel.hpp"
#include "baseline/yao.hpp"
#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "ext/fault_tolerant.hpp"
#include "graph/components.hpp"
#include "dijkstra_reference.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "graph/sp_workspace.hpp"
#include "obs/obs.hpp"
#include "route/routing.hpp"
#include "gather_reference.hpp"
#include "runtime/parallel.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace ext = localspan::ext;
namespace gr = localspan::graph;
namespace obs = localspan::obs;
namespace rt = localspan::runtime;
namespace route = localspan::route;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance instance(std::uint64_t seed, int n = 150) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = 0.75;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

// Scenario matrix: the verifier must pass the relaxed-greedy output on every
// cell, and on 2-d cells the spanner must stay routable by greedy forwarding.
class VerifyScenarioMatrix : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(VerifyScenarioMatrix, VerifierAndRoutingAcrossTheMatrix) {
  const ti::Scenario& sc = GetParam();
  const auto inst = sc.make();
  const core::Params params = core::Params::practical_params(0.5, sc.alpha);
  const auto result = core::relaxed_greedy(inst, params);
  const core::VerificationReport rep = core::verify_spanner(inst, result.spanner, params.t);
  EXPECT_TRUE(rep.ok()) << sc.name() << "\n" << rep.summary();
  if (sc.dim == 2 && inst.g.m() > 0) {
    gr::DijkstraWorkspace ws;
    const route::RoutingStats st = route::evaluate_routing(
        inst, gr::CsrView(result.spanner), route::Forwarding::kGreedy, 50, sc.seed, ws);
    EXPECT_GT(st.delivery_rate, 0.0) << sc.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, VerifyScenarioMatrix,
                         ::testing::ValuesIn(ti::smoke_matrix()), ti::ScenarioName{});

TEST(Verify, PassesOnCorrectSpanner) {
  const auto inst = instance(1);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  const core::VerificationReport rep = core::verify_spanner(inst, result.spanner, params.t);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_NE(rep.summary().find("PASS"), std::string::npos);
}

TEST(Verify, CatchesStretchViolation) {
  const auto inst = instance(2);
  // An MSF is connected but not a 1.1-spanner.
  const gr::Graph forest = localspan::graph::minimum_spanning_forest(inst.g);
  const core::VerificationReport rep = core::verify_spanner(inst, forest, 1.1);
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.stretch_ok);
  EXPECT_TRUE(rep.is_subgraph);
  EXPECT_NE(rep.summary().find("FAIL"), std::string::npos);
}

TEST(Verify, CatchesForeignEdges) {
  const auto inst = instance(3, 60);
  gr::Graph fake = inst.g;
  // Insert an edge absent from the network (pick the farthest pair).
  int bu = -1;
  int bv = -1;
  double best = -1.0;
  for (int u = 0; u < inst.g.n(); ++u) {
    for (int v = u + 1; v < inst.g.n(); ++v) {
      if (!inst.g.has_edge(u, v) && inst.points.distance(u, v) > best) {
        best = inst.points.distance(u, v);
        bu = u;
        bv = v;
      }
    }
  }
  ASSERT_NE(bu, -1);
  fake.add_edge(bu, bv, best);
  const core::VerificationReport rep = core::verify_spanner(inst, fake, 2.0);
  EXPECT_FALSE(rep.is_subgraph);
  EXPECT_FALSE(rep.ok());
}

TEST(Verify, CatchesDisconnection) {
  const auto inst = instance(4, 80);
  gr::Graph sub(inst.g.n());  // empty topology
  const core::VerificationReport rep = core::verify_spanner(inst, sub, 2.0);
  EXPECT_FALSE(rep.connectivity_ok);
}

TEST(Verify, DegreeAndLightnessCaps) {
  const auto inst = instance(5);
  core::VerifyCaps tight;
  tight.max_degree = 1;
  tight.lightness = 1.0;
  const core::VerificationReport rep = core::verify_spanner(inst, inst.g, 64.0, tight);
  EXPECT_FALSE(rep.degree_ok);
  EXPECT_FALSE(rep.lightness_ok);
}

TEST(Routing, DeliversOnCompleteGeometry) {
  const auto inst = instance(6, 200);
  gr::DijkstraWorkspace ws;
  const route::RoutingStats st =
      route::evaluate_routing(inst, gr::CsrView(inst.g), route::Forwarding::kGreedy, 150, 9, ws);
  EXPECT_GT(st.delivery_rate, 0.9);  // dense UBG: greedy rarely strands
  EXPECT_GE(st.mean_route_stretch, 1.0);
  EXPECT_GE(st.worst_route_stretch, st.mean_route_stretch);
}

TEST(Routing, SpannerKeepsDeliveryHigh) {
  const auto inst = instance(7, 200);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const auto result = core::relaxed_greedy(inst, params);
  gr::DijkstraWorkspace ws;
  const route::RoutingStats raw =
      route::evaluate_routing(inst, gr::CsrView(inst.g), route::Forwarding::kGreedy, 150, 11, ws);
  const route::RoutingStats spa = route::evaluate_routing(
      inst, gr::CsrView(result.spanner), route::Forwarding::kGreedy, 150, 11, ws);
  // The spanner keeps most greedy routes alive despite pruning ~2/3 of edges.
  EXPECT_GT(spa.delivery_rate, raw.delivery_rate - 0.25);
}

TEST(Routing, PacketPathIsConsistent) {
  const auto inst = instance(8, 100);
  const route::RouteResult r = route::route_packet(inst, gr::CsrView(inst.g), 0, inst.g.n() - 1,
                                                  route::Forwarding::kGreedy);
  if (r.delivered) {
    EXPECT_EQ(r.path.front(), 0);
    EXPECT_EQ(r.path.back(), inst.g.n() - 1);
    EXPECT_EQ(static_cast<int>(r.path.size()) - 1, r.hops);
    double len = 0.0;
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      EXPECT_TRUE(inst.g.has_edge(r.path[i], r.path[i + 1]));
      len += inst.points.distance(r.path[i], r.path[i + 1]);
    }
    EXPECT_NEAR(len, r.length, 1e-9);
  } else {
    EXPECT_NE(r.path.back(), inst.g.n() - 1);
  }
}

TEST(Routing, CompassAlsoWorks) {
  const auto inst = instance(9, 150);
  gr::DijkstraWorkspace ws;
  const route::RoutingStats st =
      route::evaluate_routing(inst, gr::CsrView(inst.g), route::Forwarding::kCompass, 100, 5, ws);
  EXPECT_GT(st.delivery_rate, 0.8);
}

TEST(Routing, RejectsBadArgs) {
  const auto inst = instance(10, 20);
  const gr::CsrView csr(inst.g);
  gr::DijkstraWorkspace ws;
  EXPECT_THROW(static_cast<void>(route::route_packet(inst, csr, -1, 3, route::Forwarding::kGreedy)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(
                   route::evaluate_routing(inst, csr, route::Forwarding::kGreedy, 0, 1, ws)),
               std::invalid_argument);
  // An empty topology has no pair to draw; a topology of another size than
  // the instance would be walked and searched past the end of its points.
  const ub::UbgInstance empty;
  EXPECT_THROW(static_cast<void>(route::evaluate_routing(empty, gr::CsrView(empty.g),
                                                         route::Forwarding::kGreedy, 5, 1, ws)),
               std::invalid_argument);
  const gr::CsrView bigger(gr::Graph(inst.g.n() + 1));
  EXPECT_THROW(static_cast<void>(
                   route::evaluate_routing(inst, bigger, route::Forwarding::kGreedy, 5, 1, ws)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(route::route_packet(inst, bigger, 0, inst.g.n(),
                                                     route::Forwarding::kGreedy)),
               std::invalid_argument);
}

// RoutingStats pinned as exact doubles, recorded before the goal-directed
// search and the component-label draw replaced the chunked plain-search
// loop: uniform, clustered and corridor (whose draws hit other components),
// over G and the spanner, at 1 and 4 threads.
TEST(Routing, StatsArePinnedAtEveryThreadCount) {
  struct Pin {
    ub::Placement placement;
    route::RoutingStats over_g;
    route::RoutingStats over_spanner;
  };
  const Pin pins[] = {
      {ub::Placement::kUniform,
       {120, 117, 0x1.f333333333333p-1, 0x1.8p+2, 0x1.0ea3b3ca253e3p+0, 0x1.5c3c33c7e7cfap+0},
       {120, 116, 0x1.eeeeeeeeeeeefp-1, 0x1.4308d3dcb08d4p+3, 0x1.158174d25c812p+0,
        0x1.7996892d16009p+0}},
      {ub::Placement::kClustered,
       {120, 110, 0x1.d555555555555p-1, 0x1.17dac37dac37ep+2, 0x1.08aa04cbd1bcdp+0,
        0x1.2fe6104ea634bp+0},
       {120, 105, 0x1.cp-1, 0x1.409c09c09c09cp+3, 0x1.153feb44a0d5bp+0, 0x1.70d2463ac216bp+0}},
      {ub::Placement::kCorridor,
       {120, 101, 0x1.aeeeeeeeeeeefp-1, 0x1.33f5dc83cd4e9p+2, 0x1.04f1ebd460483p+0,
        0x1.29793263df713p+0},
       {120, 102, 0x1.b333333333333p-1, 0x1.abebebebebebfp+2, 0x1.09f19ba659e89p+0,
        0x1.c6be8ff13bd21p+0}},
  };
  const auto expect_same = [](const route::RoutingStats& want, const route::RoutingStats& got,
                              const std::string& what) {
    EXPECT_EQ(want.trials, got.trials) << what;
    EXPECT_EQ(want.delivered, got.delivered) << what;
    EXPECT_EQ(want.delivery_rate, got.delivery_rate) << what;
    EXPECT_EQ(want.mean_hops, got.mean_hops) << what;
    EXPECT_EQ(want.mean_route_stretch, got.mean_route_stretch) << what;
    EXPECT_EQ(want.worst_route_stretch, got.worst_route_stretch) << what;
  };
  for (const Pin& pin : pins) {
    ub::UbgConfig cfg;
    cfg.n = 400;
    cfg.seed = 21;
    cfg.placement = pin.placement;
    cfg.target_degree = pin.placement == ub::Placement::kCorridor ? 5.0 : 10.0;
    const auto inst = ub::make_ubg(cfg);
    if (pin.placement == ub::Placement::kCorridor) {
      ASSERT_GT(gr::connected_components(inst.g).count, 1);  // disconnected draws
    }
    const gr::Graph spanner =
        core::relaxed_greedy(inst, core::Params::practical_params(0.5, 0.75)).spanner;
    for (const int threads : {1, 4}) {
      gr::DijkstraWorkspace ws;
      std::optional<rt::WorkerPool> pool;
      if (threads > 1) pool.emplace(threads);
      const std::string what =
          "placement " + std::to_string(static_cast<int>(pin.placement)) + " threads " +
          std::to_string(threads);
      gr::CsrView csr(inst.g);
      expect_same(pin.over_g,
                  route::evaluate_routing(inst, csr, route::Forwarding::kGreedy, 120, 5, ws,
                                          pool ? &*pool : nullptr),
                  what + " G");
      csr.assign(spanner);
      expect_same(pin.over_spanner,
                  route::evaluate_routing(inst, csr, route::Forwarding::kGreedy, 120, 5, ws,
                                          pool ? &*pool : nullptr),
                  what + " spanner");
    }
  }
}

// route.heap_pops counts the evaluation's own searches exactly, so it reads
// the same at every thread count.
TEST(Routing, HeapPopsCounterIsThreadCountInvariant) {
  const auto inst = instance(12, 300);
  const gr::CsrView csr(inst.g);
  std::vector<std::int64_t> pops;
  for (const int threads : {1, 3}) {
    obs::reset();
    obs::set_enabled(true);
    gr::DijkstraWorkspace ws;
    std::optional<rt::WorkerPool> pool;
    if (threads > 1) pool.emplace(threads);
    static_cast<void>(route::evaluate_routing(inst, csr, route::Forwarding::kGreedy, 80, 3, ws,
                                              pool ? &*pool : nullptr));
    const obs::Snapshot snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    for (const auto& [name, value] : snap.counters) {
      if (name == "route.heap_pops") pops.push_back(value);
    }
  }
  ASSERT_EQ(pops.size(), 2U);
  EXPECT_GT(pops[0], 0);
  EXPECT_EQ(pops[0], pops[1]);
}

TEST(Gather, ViewsMatchHopBalls) {
  const auto inst = instance(11, 80);
  for (int k : {0, 1, 2, 3}) {
    const auto views = rt::khop_views(inst.g, k);
    // Independent expectation: edge {a,b} visible at v iff a or b within k hops.
    for (int v = 0; v < inst.g.n(); v += 7) {
      const std::vector<int> ball = gr::khop_ball(inst.g, v, k);
      std::vector<char> in_ball(static_cast<std::size_t>(inst.g.n()), 0);
      for (int b : ball) in_ball[static_cast<std::size_t>(b)] = 1;
      int expected = 0;
      for (const gr::Edge& e : inst.g.edges()) {
        if (in_ball[static_cast<std::size_t>(e.u)] || in_ball[static_cast<std::size_t>(e.v)]) {
          ++expected;
          EXPECT_TRUE(views[static_cast<std::size_t>(v)].has_edge(e.u, e.v));
        }
      }
      EXPECT_EQ(views[static_cast<std::size_t>(v)].m(), expected) << "k=" << k << " v=" << v;
    }
  }
}

TEST(Gather, ChargesKRoundsAndCountsRecords) {
  const auto inst = instance(12, 60);
  rt::RoundLedger ledger;
  static_cast<void>(rt::khop_views(inst.g, 3, &ledger, "gather-test"));
  EXPECT_EQ(ledger.rounds(), 3);
  EXPECT_GT(ledger.messages(), inst.g.m());  // records flood over every edge
  EXPECT_THROW(static_cast<void>(rt::khop_views(inst.g, -1)), std::invalid_argument);
}

TEST(ThetaGraph, SubgraphWithConeSelection) {
  const auto inst = instance(13, 200);
  const gr::Graph th = localspan::baseline::theta_graph(inst, 8);
  for (const gr::Edge& e : th.edges()) EXPECT_TRUE(inst.g.has_edge(e.u, e.v));
  EXPECT_LE(th.m(), 8 * th.n());
  EXPECT_EQ(localspan::graph::connected_components(inst.g).count,
            localspan::graph::connected_components(th).count);
}

TEST(ThetaGraph, MoreConesImproveStretch) {
  const auto inst = instance(14, 200);
  const double s6 = gr::max_edge_stretch(inst.g, localspan::baseline::theta_graph(inst, 6));
  const double s18 = gr::max_edge_stretch(inst.g, localspan::baseline::theta_graph(inst, 18));
  EXPECT_LE(s18, s6 + 1e-9);
}

TEST(VertexFT, StrongerThanEdgeFT) {
  const auto inst = instance(15, 90);
  const double t = 1.8;
  const gr::Graph edge_ft = ext::fault_tolerant_greedy(inst.g, t, 1);
  const gr::Graph vertex_ft = ext::fault_tolerant_greedy_vertex(inst.g, t, 1);
  // Vertex-disjointness is the stronger requirement: at least as many edges.
  EXPECT_GE(vertex_ft.m(), edge_ft.m());
  EXPECT_LE(gr::max_edge_stretch(inst.g, vertex_ft), t * (1.0 + 1e-9));
}

TEST(VertexFT, SurvivesSingleVertexFaults) {
  const auto inst = instance(16, 80);
  const double t = 2.0;
  const gr::Graph ft = ext::fault_tolerant_greedy_vertex(inst.g, t, 1);
  // Remove each vertex in turn (sampled); the survivor must stay a t-spanner
  // of the survivor network.
  for (int victim = 0; victim < inst.g.n(); victim += 9) {
    gr::Graph faulted_spanner = ft;
    gr::Graph faulted_g = inst.g;
    for (const auto& g2 : {&faulted_spanner, &faulted_g}) {
      std::vector<int> nbrs;
      for (const gr::Neighbor& nb : g2->neighbors(victim)) nbrs.push_back(nb.to);
      for (int to : nbrs) g2->remove_edge(victim, to);
    }
    EXPECT_LE(gr::max_edge_stretch(faulted_g, faulted_spanner), t * (1.0 + 1e-9))
        << "victim=" << victim;
  }
}

TEST(VertexFT, KZeroMatchesEdgeVariant) {
  const auto inst = instance(17, 70);
  EXPECT_EQ(ext::fault_tolerant_greedy_vertex(inst.g, 1.5, 0),
            ext::fault_tolerant_greedy(inst.g, 1.5, 0));
}

// ---------------------------------------------------------------------------
// max_edge_stretch: the probe-then-widen search against the single-radius
// pass it replaced.
// ---------------------------------------------------------------------------

namespace {

/// The single-radius stretch pass: every vertex searches `sub` to
/// cap·w_max(u) at once. Kept as the reference the two-radius production
/// pass must match bit for bit.
double single_radius_stretch(const gr::Graph& g, const gr::Graph& sub, double cap) {
  if (g.m() == 0) return 1.0;
  const gr::CsrView sub_csr(sub);
  gr::DijkstraWorkspace ws(g.n());
  double worst = 1.0;
  for (int u = 0; u < g.n(); ++u) {
    double max_w = 0.0;
    for (const gr::Neighbor& nb : g.neighbors(u)) max_w = std::max(max_w, nb.w);
    if (max_w == 0.0) continue;
    const gr::SpView sp = ws.bounded(sub_csr, u, cap * max_w);
    for (const gr::Neighbor& nb : g.neighbors(u)) {
      if (nb.to < u) continue;
      const double d = sp.dist(nb.to);
      worst = std::max(worst, d == gr::kInf ? cap : std::min(cap, d / nb.w));
    }
  }
  return worst;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Run max_edge_stretch with obs on and return the (vertices, widened)
/// counter deltas of that one call.
std::pair<std::int64_t, std::int64_t> stretch_counters(const gr::Graph& g, const gr::Graph& sub,
                                                       double cap = 64.0) {
  obs::reset();
  obs::set_enabled(true);
  (void)gr::max_edge_stretch(g, sub, cap);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  std::pair<std::int64_t, std::int64_t> out{-1, -1};
  for (const auto& [name, value] : snap.counters) {
    if (name == "stretch.vertices") out.first = value;
    if (name == "stretch.widened") out.second = value;
  }
  return out;
}

/// Path 0-1-...-hops in `sub`, plus the chord {0,hops} of weight 1 in g:
/// the chord's only detour has ratio `hops`.
std::pair<gr::Graph, gr::Graph> detour(int hops) {
  gr::Graph g(hops + 1);
  gr::Graph sub(hops + 1);
  for (int v = 0; v < hops; ++v) {
    g.add_edge(v, v + 1, 1.0);
    sub.add_edge(v, v + 1, 1.0);
  }
  g.add_edge(0, hops, 1.0);
  return {g, sub};
}

}  // namespace

class StretchBitIdentity : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(StretchBitIdentity, TwoRadiiMatchTheSingleRadiusPass) {
  const ti::Scenario& sc = GetParam();
  const auto inst = sc.make();
  const gr::Graph spanner =
      core::relaxed_greedy(inst, core::Params::practical_params(0.5, sc.alpha)).spanner;
  gr::Graph thinned(inst.g.n());
  const std::vector<gr::Edge> edges = spanner.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i % 7 != 6) thinned.add_edge(edges[i].u, edges[i].v, edges[i].w);
  }
  std::vector<std::pair<std::string, gr::Graph>> subs{
      {"relaxed", spanner},
      {"msf", gr::minimum_spanning_forest(inst.g)},
      {"empty", gr::Graph(inst.g.n())},
      {"thinned", thinned},
  };
  if (sc.dim == 2) subs.emplace_back("theta6", localspan::baseline::theta_graph(inst, 6));
  rt::WorkerPool one(1);
  rt::WorkerPool four(4);
  for (const auto& [name, sub] : subs) {
    for (const double cap : {1.5, 2.0, 4.0, 64.0}) {
      const std::uint64_t want = bits(single_radius_stretch(inst.g, sub, cap));
      const std::string where = sc.name() + " " + name + " cap=" + std::to_string(cap);
      for (rt::WorkerPool* pool : {static_cast<rt::WorkerPool*>(nullptr), &one, &four}) {
        EXPECT_EQ(bits(gr::max_edge_stretch(inst.g, sub, cap, pool)), want) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, StretchBitIdentity,
                         ::testing::ValuesIn(ti::standard_matrix()), ti::ScenarioName{});

TEST(StretchTwoRadii, RatioTwoSettlesAtTheProbeRadius) {
  // The detour sits exactly at 2·w_max: the first search must settle it.
  const auto [g, sub] = detour(2);
  EXPECT_EQ(gr::max_edge_stretch(g, sub), 2.0);
  EXPECT_EQ(single_radius_stretch(g, sub, 64.0), 2.0);
  EXPECT_EQ(stretch_counters(g, sub), (std::pair<std::int64_t, std::int64_t>{3, 0}));
}

TEST(StretchTwoRadii, RatioThreeNeedsTheWideSearch) {
  const auto [g, sub] = detour(3);
  EXPECT_EQ(gr::max_edge_stretch(g, sub), 3.0);
  rt::WorkerPool pool(4);
  EXPECT_EQ(gr::max_edge_stretch(g, sub, 64.0, &pool), 3.0);
  // Only vertex 0 owns an edge ({0,3}) whose endpoint lies past 2·w_max.
  EXPECT_EQ(stretch_counters(g, sub), (std::pair<std::int64_t, std::int64_t>{4, 1}));
}

TEST(StretchTwoRadii, RatioAboveCapReturnsCap) {
  const auto [g3, sub3] = detour(3);
  EXPECT_EQ(gr::max_edge_stretch(g3, sub3, 2.5), 2.5);
  EXPECT_EQ(single_radius_stretch(g3, sub3, 2.5), 2.5);
  // cap below the probe radius: the one search is the cap search.
  const auto [g2, sub2] = detour(2);
  EXPECT_EQ(gr::max_edge_stretch(g2, sub2, 1.5), 1.5);
  EXPECT_EQ(stretch_counters(g2, sub2, 1.5).second, 0);
}

TEST(StretchTwoRadii, WidenedCounterSeparatesSpannersFromTrees) {
  const auto inst = instance(18, 200);
  const gr::Graph spanner =
      core::relaxed_greedy(inst, core::Params::practical_params(0.5, 0.75)).spanner;
  const auto [spanner_vertices, spanner_widened] = stretch_counters(inst.g, spanner);
  EXPECT_EQ(spanner_vertices, inst.g.n());
  EXPECT_EQ(spanner_widened, 0);
  const auto [msf_vertices, msf_widened] =
      stretch_counters(inst.g, gr::minimum_spanning_forest(inst.g));
  EXPECT_EQ(msf_vertices, inst.g.n());
  EXPECT_GT(msf_widened, 0);
}

// ---------------------------------------------------------------------------
// Pinned stretch: the values the full-drain witness pass printed, recorded
// as hex doubles, so a search that stops early must read them bit for bit.
// ---------------------------------------------------------------------------

namespace {

/// verify_spanner's measured stretch plus the stretch.widened and
/// stretch.heap_pops counters of that one call.
struct MeasuredStretch {
  double stretch = 0.0;
  std::int64_t widened = -1;
  std::int64_t heap_pops = -1;
};

MeasuredStretch measure(const ub::UbgInstance& inst, const gr::Graph& sub, double t,
                        rt::WorkerPool* pool) {
  obs::reset();
  obs::set_enabled(true);
  MeasuredStretch out;
  out.stretch = core::verify_spanner(inst, sub, t, {}, pool).measured_stretch;
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  for (const auto& [name, value] : snap.counters) {
    if (name == "stretch.widened") out.widened = value;
    if (name == "stretch.heap_pops") out.heap_pops = value;
  }
  return out;
}

}  // namespace

TEST(StretchPins, MeasuredStretchAndWidenedArePinned) {
  struct Pin {
    ub::Placement placement;
    const char* algo;
    double stretch;
    std::int64_t widened;
  };
  const Pin pins[] = {
      {ub::Placement::kUniform, "relaxed", 0x1.7dba6f759d3dbp+0, 0},
      {ub::Placement::kUniform, "greedy", 0x1.7f3f6784c8db7p+0, 0},
      {ub::Placement::kUniform, "yao", 0x1.6e065db9e0d9dp+0, 0},
      {ub::Placement::kUniform, "gabriel", 0x1.9215e0032c52ep+0, 0},
      {ub::Placement::kUniform, "mst", 0x1.691bb8e2e3d3ep+4, 115},
      {ub::Placement::kCorridor, "relaxed", 0x1.7d9cc02a9033cp+0, 0},
      {ub::Placement::kCorridor, "greedy", 0x1.7f7a942f90e6ep+0, 0},
      {ub::Placement::kCorridor, "yao", 0x1.5676e241254b2p+0, 0},
      {ub::Placement::kCorridor, "gabriel", 0x1.d7b81b1cf6acp+0, 0},
      {ub::Placement::kCorridor, "mst", 0x1.9cb038f865a0dp+2, 83},
  };
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  rt::WorkerPool pool(4);
  for (const Pin& pin : pins) {
    ub::UbgConfig cfg;
    cfg.n = 200;
    cfg.alpha = 0.75;
    cfg.placement = pin.placement;
    cfg.seed = 7;
    const ub::UbgInstance inst = ub::make_ubg(cfg);
    const std::string algo = pin.algo;
    const gr::Graph sub = algo == "relaxed"   ? core::relaxed_greedy(inst, params).spanner
                          : algo == "greedy"  ? core::seq_greedy(inst.g, params.t)
                          : algo == "yao"     ? localspan::baseline::yao_graph(inst, 8)
                          : algo == "gabriel" ? localspan::baseline::gabriel_graph(inst)
                                              : gr::minimum_spanning_forest(inst.g);
    const MeasuredStretch serial = measure(inst, sub, params.t, nullptr);
    const MeasuredStretch pooled = measure(inst, sub, params.t, &pool);
    const std::string where = algo + " placement " + std::to_string(static_cast<int>(pin.placement));
    for (const MeasuredStretch& m : {serial, pooled}) {
      EXPECT_EQ(bits(m.stretch), bits(pin.stretch)) << where;
      EXPECT_EQ(m.widened, pin.widened) << where;
    }
    EXPECT_GT(serial.heap_pops, 0) << where;
    EXPECT_EQ(serial.heap_pops, pooled.heap_pops) << where;
  }
}

TEST(StretchPins, ScopedCertifyWithAWeightTransformIsPinned) {
  // Scoped certify of a spanner in energy units (w^2) against g through the
  // matching transform: every fifth vertex, serial and on a pool.
  const struct {
    ub::Placement placement;
    double stretch;
  } pins[] = {{ub::Placement::kUniform, 0x1.2e413f554c0a7p+0},
              {ub::Placement::kCorridor, 0x1.2ae030ee5c662p+0}};
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const std::function<double(double)> energy = [](double w) { return w * w; };
  rt::WorkerPool pool(4);
  for (const auto& pin : pins) {
    ub::UbgConfig cfg;
    cfg.n = 200;
    cfg.alpha = 0.75;
    cfg.placement = pin.placement;
    cfg.seed = 7;
    const ub::UbgInstance inst = ub::make_ubg(cfg);
    gr::Graph energy_sub(inst.g.n());
    for (const gr::Edge& e : core::relaxed_greedy(inst, params).spanner.edges()) {
      energy_sub.add_edge(e.u, e.v, e.w * e.w);
    }
    std::vector<int> scoped;
    std::vector<char> member(static_cast<std::size_t>(inst.g.n()), 0);
    for (int v = 0; v < inst.g.n(); v += 5) {
      scoped.push_back(v);
      member[static_cast<std::size_t>(v)] = 1;
    }
    gr::DijkstraWorkspace ws;
    for (const double t : {1.1, 2.0}) {
      for (rt::WorkerPool* p : {static_cast<rt::WorkerPool*>(nullptr), &pool}) {
        const core::VerificationReport rep =
            core::certify(inst.g, energy_sub, {scoped, member}, t, {}, energy, p, &ws);
        EXPECT_EQ(bits(rep.measured_stretch), bits(pin.stretch)) << "t=" << t;
        EXPECT_EQ(rep.stretch_ok, t > 1.5) << "t=" << t;
      }
    }
  }
}

TEST(Verify, StretchPassIsTraced) {
  const auto inst = instance(20, 100);
  obs::reset();
  obs::set_enabled(true);
  (void)core::verify_spanner(inst, inst.g, 1.5);
  const std::vector<obs::SpanStat> spans = obs::span_totals();
  obs::set_enabled(false);
  obs::reset();
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [](const obs::SpanStat& s) { return s.name == "verify.stretch"; });
  ASSERT_NE(it, spans.end());
  EXPECT_EQ(it->count, 1);
}

TEST(Verify, ThreadsLeaveTheReportUnchanged) {
  const auto inst = instance(19, 200);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  const gr::Graph spanner = core::relaxed_greedy(inst, params).spanner;
  const gr::Graph forest = gr::minimum_spanning_forest(inst.g);
  rt::WorkerPool pool(4);
  for (const gr::Graph* topo : {&spanner, &forest}) {
    const core::VerificationReport serial = core::verify_spanner(inst, *topo, params.t);
    const core::VerificationReport pooled = core::verify_spanner(inst, *topo, params.t, {}, &pool);
    EXPECT_EQ(bits(pooled.measured_stretch), bits(serial.measured_stretch));
    EXPECT_EQ(pooled.summary(), serial.summary());
  }
}
