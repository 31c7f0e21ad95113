/// Tests for the epoch-stamped shortest-path workspace and CSR snapshots
/// (graph/sp_workspace.hpp): equivalence against the retained dense
/// reference implementation across the scenario matrix, the goal-directed
/// distance and the target-set search against the plain search, the
/// epoch-wraparound rebase, the stale-view / reuse-across-graphs error
/// paths, and the zero-allocation steady state (counting allocator).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <ranges>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "counting_allocator.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "dijkstra_reference.hpp"
#include "graph/sp_workspace.hpp"
#include "scenario_matrix.hpp"

namespace gr = localspan::graph;
using localspan::testinfra::Scenario;
using localspan::testinfra::ScenarioName;

namespace {

/// Dense/sparse agreement on one (graph, sources, radius, transform) cell:
/// identical distances everywhere, touched == the settled ball, and a
/// parent tree that reproduces the distances.
void expect_equivalent(
    const gr::Graph& g, const gr::ShortestPaths& dense, const gr::SpView& sp,
    const std::function<double(double)>& weight = [](double w) { return w; }) {
  int settled = 0;
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_EQ(dense.dist[static_cast<std::size_t>(v)], sp.dist(v)) << "vertex " << v;
    if (dense.dist[static_cast<std::size_t>(v)] != gr::kInf) {
      ++settled;
      EXPECT_TRUE(sp.reached(v));
      const int p = sp.parent(v);
      if (p != -1) {
        // The tree edge realizes the distance (parents may differ from the
        // dense run on exact ties; distances never do).
        EXPECT_NEAR(sp.dist(p) + weight(g.edge_weight(p, v)), sp.dist(v), 1e-12);
      }
    } else {
      EXPECT_FALSE(sp.reached(v));
      EXPECT_EQ(sp.parent(v), -1);
    }
  }
  EXPECT_EQ(settled, static_cast<int>(sp.touched().size()));
}

class SpWorkspaceMatrixTest : public ::testing::TestWithParam<Scenario> {};

}  // namespace

TEST_P(SpWorkspaceMatrixTest, BoundedMatchesDenseReference) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::Graph& g = inst.g;
  gr::DijkstraWorkspace ws;
  for (const double radius : {0.1, 0.45, gr::kInf}) {
    for (int src : {0, g.n() / 2, g.n() - 1}) {
      const gr::ShortestPaths dense = radius == gr::kInf
                                          ? gr::dijkstra(g, src)
                                          : gr::dijkstra_bounded(g, src, radius);
      const gr::SpView sp = ws.bounded(g, src, radius);
      expect_equivalent(g, dense, sp);
    }
  }
}

TEST_P(SpWorkspaceMatrixTest, MultiSourceMatchesDenseReference) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::Graph& g = inst.g;
  gr::DijkstraWorkspace ws;
  const std::vector<int> sources{0, g.n() / 3, g.n() - 1, 0};  // duplicate on purpose
  for (const double radius : {0.2, 0.6}) {
    const gr::ShortestPaths dense = gr::dijkstra_multi_bounded(g, sources, radius);
    const gr::SpView sp = ws.multi_bounded(g, sources, radius);
    expect_equivalent(g, dense, sp);
  }
}

TEST_P(SpWorkspaceMatrixTest, TransformedMatchesDenseReference) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::Graph& g = inst.g;
  gr::DijkstraWorkspace ws;
  const auto energy = [](double w) { return w * w; };
  const std::vector<int> sources{0, g.n() - 1};
  const double radius = 0.4;
  const gr::ShortestPaths dense = gr::dijkstra_multi_bounded(g, sources, radius, energy);
  const gr::SpView sp = ws.multi_bounded(g, sources, radius, energy);
  expect_equivalent(g, dense, sp, energy);
}

TEST_P(SpWorkspaceMatrixTest, CsrSearchesMatchGraphSearches) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::Graph& g = inst.g;
  const gr::CsrView csr(g);
  ASSERT_EQ(csr.n(), g.n());
  for (int u = 0; u < g.n(); ++u) {
    const auto a = g.neighbors(u);
    const auto b = csr.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_EQ(a[i].w, b[i].w);
    }
  }
  gr::DijkstraWorkspace ws;
  const gr::ShortestPaths dense = gr::dijkstra_bounded(g, 0, 0.5);
  expect_equivalent(g, dense, ws.bounded(csr, 0, 0.5));
}

TEST_P(SpWorkspaceMatrixTest, DistanceMatchesSpDistance) {
  const localspan::ubg::UbgInstance inst = GetParam().make();
  const gr::Graph& g = inst.g;
  gr::DijkstraWorkspace ws;
  for (const double bound : {0.25, gr::kInf}) {
    for (int v : {0, g.n() / 2, g.n() - 1}) {
      EXPECT_EQ(gr::sp_distance(g, 0, v, bound), ws.distance(g, 0, v, bound));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, SpWorkspaceMatrixTest,
                         ::testing::ValuesIn(localspan::testinfra::standard_matrix()),
                         ScenarioName());

// ---------------------------------------------------------------------------
// Goal-directed distance: bit-for-bit the plain search's value, with and
// without a bound, whatever the placement, dimension or weights.
// ---------------------------------------------------------------------------

namespace {

/// Plain vs goal-directed sp(s, d) over a spread of pairs; each bound is a
/// fraction of the plain distance, so the search meets the target's value
/// just inside, at and just outside the bound.
void expect_goal_directed_exact(const gr::Graph& g, const localspan::geom::Points& pts,
                                const char* what) {
  const gr::CsrView csr(g);
  const gr::EuclideanPotential h = gr::euclidean_potential(csr, pts);
  gr::DijkstraWorkspace plain;
  gr::DijkstraWorkspace goal;
  const int n = g.n();
  for (int s = 0; s < n; s += std::max(1, n / 9)) {
    for (int d = n - 1; d >= 0; d -= std::max(1, n / 11)) {
      const double ref = plain.distance(csr, s, d);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
                std::bit_cast<std::uint64_t>(goal.distance(csr, s, d, gr::kInf, h)))
          << what << " " << s << "->" << d;
      for (const double f : {0.5, 1.0, 1.5}) {
        const double bound = ref == gr::kInf ? 1.0 : ref * f;
        EXPECT_EQ(plain.distance(csr, s, d, bound), goal.distance(csr, s, d, bound, h))
            << what << " " << s << "->" << d << " bound " << bound;
      }
    }
  }
}

}  // namespace

TEST(SpWorkspaceGoalDirected, DistanceIsBitIdenticalToPlainSearch) {
  using localspan::ubg::Placement;
  for (const int dim : {2, 3}) {
    for (const Placement pl : {Placement::kUniform, Placement::kClustered, Placement::kCorridor}) {
      const localspan::ubg::UbgInstance inst = Scenario{dim, pl, 0.75, 160, 4}.make();
      const gr::Graph spanner =
          localspan::core::relaxed_greedy(inst, localspan::core::Params::practical_params(0.5, 0.75))
              .spanner;
      // Weights pulled below Euclidean (rho ~ 0.3): h must stay admissible
      // for loaded topologies whose weights are not the edge lengths.
      std::mt19937_64 rng(dim * 10 + static_cast<int>(pl));
      std::uniform_real_distribution<double> shrink(0.3, 1.0);
      gr::Graph perturbed(inst.g.n());
      for (const gr::Edge& e : inst.g.edges()) perturbed.add_edge(e.u, e.v, e.w * shrink(rng));
      const std::string name = Scenario{dim, pl, 0.75, 160, 4}.name();
      expect_goal_directed_exact(inst.g, inst.points, (name + " G").c_str());
      expect_goal_directed_exact(spanner, inst.points, (name + " spanner").c_str());
      expect_goal_directed_exact(perturbed, inst.points, (name + " perturbed").c_str());
    }
  }
  // Tie-heavy lattice: unit steps, so many shortest paths share one length.
  constexpr int kSide = 12;
  gr::Graph lattice(kSide * kSide);
  localspan::geom::Points grid;
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      grid.push_back(localspan::geom::Point{0.1 * x, 0.1 * y});
      const int v = y * kSide + x;
      if (x > 0) lattice.add_edge(v - 1, v, 0.1);
      if (y > 0) lattice.add_edge(v - kSide, v, 0.1);
    }
  }
  expect_goal_directed_exact(lattice, grid, "lattice");
}

TEST(SpWorkspaceGoalDirected, PotentialRejectsSizeMismatch) {
  const gr::Graph g = gr::Graph(3);
  const localspan::geom::Points pts{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(static_cast<void>(gr::euclidean_potential(g, pts)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Target-set search: every target reads the plain bounded search's distance
// bit for bit, and the search never pops more than that search.
// ---------------------------------------------------------------------------

namespace {

/// For a spread of sources, the G-neighbours of the source (the witness
/// pass's target set) and a few far vertices, at radii that cut the ball,
/// reach about the neighbours, and drain everything.
void expect_target_set_exact(const gr::Graph& g, const char* what) {
  const gr::CsrView csr(g);
  gr::DijkstraWorkspace plain;
  gr::DijkstraWorkspace set;
  const int n = g.n();
  for (int s = 0; s < n; s += std::max(1, n / 13)) {
    double w_max = 0.0;
    std::vector<int> targets;
    for (const gr::Neighbor& nb : g.neighbors(s)) {
      w_max = std::max(w_max, nb.w);
      targets.push_back(nb.to);
    }
    std::vector<int> with_far = targets;
    with_far.push_back((s + n / 2) % n);
    with_far.push_back(targets.empty() ? s : targets.front());  // a duplicate
    for (const double radius : {0.5 * w_max, 2.0 * w_max, 4.0 * w_max, gr::kInf}) {
      for (const std::vector<int>* ts : {&targets, &with_far}) {
        static_cast<void>(plain.take_heap_ops());
        static_cast<void>(set.take_heap_ops());
        const gr::SpView ref = plain.bounded(csr, s, radius);
        const gr::SpView got = set.bounded_to_all(csr, s, *ts, radius);
        for (const int t : *ts) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.dist(t)),
                    std::bit_cast<std::uint64_t>(got.dist(t)))
              << what << " " << s << "->" << t << " radius " << radius;
        }
        EXPECT_LE(set.take_heap_ops().second, plain.take_heap_ops().second)
            << what << " source " << s << " radius " << radius;
      }
    }
  }
}

}  // namespace

TEST(SpWorkspaceTargetSet, DistancesMatchTheBoundedSearch) {
  using localspan::ubg::Placement;
  for (const int dim : {2, 3}) {
    for (const Placement pl : {Placement::kUniform, Placement::kClustered, Placement::kCorridor}) {
      const Scenario sc{dim, pl, 0.75, 160, 4};
      const localspan::ubg::UbgInstance inst = sc.make();
      const gr::Graph spanner =
          localspan::core::relaxed_greedy(inst, localspan::core::Params::practical_params(0.5, 0.75))
              .spanner;
      std::mt19937_64 rng(dim * 10 + static_cast<int>(pl));
      std::uniform_real_distribution<double> shrink(0.3, 1.0);
      gr::Graph rescaled(inst.g.n());
      for (const gr::Edge& e : inst.g.edges()) rescaled.add_edge(e.u, e.v, e.w * shrink(rng));
      expect_target_set_exact(inst.g, (sc.name() + " G").c_str());
      expect_target_set_exact(spanner, (sc.name() + " spanner").c_str());
      expect_target_set_exact(rescaled, (sc.name() + " rescaled").c_str());
    }
  }
  // Tie-heavy lattice: unit steps, so many vertices share one distance.
  constexpr int kSide = 12;
  gr::Graph lattice(kSide * kSide);
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      const int v = y * kSide + x;
      if (x > 0) lattice.add_edge(v - 1, v, 0.1);
      if (y > 0) lattice.add_edge(v - kSide, v, 0.1);
    }
  }
  expect_target_set_exact(lattice, "lattice");
}

namespace {

/// A fixed 5-vertex path graph 0-1-2-3-4 with unit-ish weights.
gr::Graph path_graph() {
  gr::Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 0.5);
  g.add_edge(2, 3, 2.0);
  g.add_edge(3, 4, 1.5);
  return g;
}

}  // namespace

TEST(SpWorkspace, BoundedToEarlyExitAnswersTarget) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace ws;
  const gr::SpView sp = ws.bounded_to(g, 0, 3, gr::kInf);
  EXPECT_DOUBLE_EQ(sp.dist(3), 3.5);
  EXPECT_EQ(sp.path_hops(3), 3);
  EXPECT_EQ(sp.parent(3), 2);
  // Beyond-bound target: unreached, hops -1 (query_on_h semantics).
  const gr::SpView sp2 = ws.bounded_to(g, 0, 4, 2.0);
  EXPECT_EQ(sp2.dist(4), gr::kInf);
  EXPECT_EQ(sp2.path_hops(4), -1);
}

TEST(SpWorkspace, GoalDirectedBoundedToReportsTheTargetsPath) {
  // The path graph laid out on a line, each weight at least its length: the
  // Euclidean potential is admissible, and the search keeps its parent lane.
  const gr::Graph g = path_graph();
  const localspan::geom::Points pts{{0.0, 0.0}, {1.0, 0.0}, {1.5, 0.0}, {3.0, 0.0}, {4.0, 0.0}};
  const gr::EuclideanPotential potential = gr::euclidean_potential(g, pts);
  gr::DijkstraWorkspace ws;
  const gr::SpView sp = ws.bounded_to(g, 0, 3, gr::kInf, potential);
  EXPECT_DOUBLE_EQ(sp.dist(3), 3.5);
  EXPECT_EQ(sp.path_hops(3), 3);
  EXPECT_EQ(sp.parent(3), 2);
  const gr::SpView sp2 = ws.bounded_to(g, 0, 4, 2.0, potential);
  EXPECT_EQ(sp2.dist(4), gr::kInf);
  EXPECT_EQ(sp2.path_hops(4), -1);
}

TEST(SpWorkspace, EpochWraparoundRebasesStamps) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace ws;
  const gr::SpView before = ws.bounded(g, 0, gr::kInf);
  EXPECT_DOUBLE_EQ(before.dist(4), 5.0);
  ws.debug_exhaust_epochs();
  // First search after exhaustion rebases every stamp; results must be
  // exactly the fresh-workspace answers, and stale entries from the
  // pre-wrap search must not leak in (vertex 4 unreached at radius 1).
  const gr::SpView sp = ws.bounded(g, 0, 1.0);
  EXPECT_DOUBLE_EQ(sp.dist(0), 0.0);
  EXPECT_DOUBLE_EQ(sp.dist(1), 1.0);
  EXPECT_EQ(sp.dist(4), gr::kInf);
  EXPECT_FALSE(sp.reached(4));
  // And the epoch counter keeps working for subsequent searches.
  const gr::SpView sp2 = ws.bounded(g, 4, gr::kInf);
  EXPECT_DOUBLE_EQ(sp2.dist(0), 5.0);
}

TEST(SpWorkspaceTargetSet, TargetPastTheRadiusReadsInfAndDrains) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace plain;
  gr::DijkstraWorkspace set;
  const gr::SpView ref = plain.bounded(g, 0, 2.0);
  const std::vector<int> targets{1, 4};
  const gr::SpView sp = set.bounded_to_all(g, 0, targets, 2.0);
  EXPECT_DOUBLE_EQ(sp.dist(1), 1.0);
  EXPECT_EQ(sp.dist(4), gr::kInf);
  EXPECT_FALSE(sp.reached(4));
  // Vertex 4 never settles, so the search settles the whole radius-2 ball.
  EXPECT_EQ(std::vector<int>(sp.touched().begin(), sp.touched().end()),
            std::vector<int>(ref.touched().begin(), ref.touched().end()));
  EXPECT_EQ(set.take_heap_ops(), plain.take_heap_ops());
  // A reachable set stops at its last target: 0, 1 and 2 pop, 3 does not.
  const std::vector<int> near{2, 1, 2};
  const gr::SpView early = set.bounded_to_all(g, 0, near, gr::kInf);
  EXPECT_DOUBLE_EQ(early.dist(2), 1.5);
  EXPECT_EQ(set.take_heap_ops().second, 3);
  // No targets: nothing to wait for, so the search drains like bounded.
  static_cast<void>(set.bounded_to_all(g, 0, std::vector<int>{}, gr::kInf));
  static_cast<void>(plain.bounded(g, 0, gr::kInf));
  EXPECT_EQ(set.take_heap_ops(), plain.take_heap_ops());
  EXPECT_THROW(static_cast<void>(set.bounded_to_all(g, 0, std::vector<int>{5}, gr::kInf)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(set.bounded_to_all(g, 0, std::vector<int>{-1}, gr::kInf)),
               std::invalid_argument);
}

TEST(SpWorkspaceTargetSet, TargetLaneSurvivesEpochExhaustion) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace ws;
  // The first search runs at epoch 1 and marks vertex 1.
  EXPECT_DOUBLE_EQ(ws.bounded_to_all(g, 0, std::vector<int>{1}, gr::kInf).dist(1), 1.0);
  ws.debug_exhaust_epochs();
  // The rebase restarts at epoch 1: a stale mark on vertex 1 would count it
  // as a target and stop the search before vertex 4 settles.
  EXPECT_DOUBLE_EQ(ws.bounded_to_all(g, 0, std::vector<int>{4}, gr::kInf).dist(4), 5.0);
  EXPECT_DOUBLE_EQ(ws.bounded_to_all(g, 4, std::vector<int>{0, 3}, gr::kInf).dist(0), 5.0);
}

TEST(SpWorkspace, StaleViewThrowsAfterNewSearch) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace ws;
  const gr::SpView old_view = ws.bounded(g, 0, gr::kInf);
  EXPECT_DOUBLE_EQ(old_view.dist(2), 1.5);
  static_cast<void>(ws.bounded(g, 1, gr::kInf));
  EXPECT_THROW(static_cast<void>(old_view.dist(2)), std::logic_error);
  EXPECT_THROW(static_cast<void>(old_view.touched()), std::logic_error);
  EXPECT_THROW(static_cast<void>(old_view.parent(0)), std::logic_error);
}

TEST(SpWorkspace, ReuseAcrossGraphsIsSafeAndStaleViewsAreCaught) {
  const gr::Graph big = path_graph();
  gr::Graph small(2);
  small.add_edge(0, 1, 3.0);
  gr::DijkstraWorkspace ws;
  const gr::SpView big_view = ws.bounded(big, 0, gr::kInf);
  EXPECT_DOUBLE_EQ(big_view.dist(4), 5.0);
  // Same workspace, different (smaller) graph: correct fresh results...
  const gr::SpView small_view = ws.bounded(small, 0, gr::kInf);
  EXPECT_DOUBLE_EQ(small_view.dist(1), 3.0);
  // ...the big graph's view is stale, not silently reading the small run...
  EXPECT_THROW(static_cast<void>(big_view.dist(4)), std::logic_error);
  // ...and the small view refuses ids beyond the small graph even though
  // the workspace's arrays are still big-graph sized.
  EXPECT_THROW(static_cast<void>(small_view.dist(4)), std::invalid_argument);
  // Back to the big graph: stamps from both earlier searches are stale.
  const gr::SpView again = ws.bounded(big, 4, gr::kInf);
  EXPECT_DOUBLE_EQ(again.dist(0), 5.0);
}

TEST(SpWorkspace, ArgumentErrorsMatchDenseReference) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace ws;
  EXPECT_THROW(static_cast<void>(ws.bounded(g, -1, 1.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ws.bounded(g, 5, 1.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ws.bounded(g, 0, -1.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ws.distance(g, 0, 9)), std::invalid_argument);
  const std::vector<int> bad{0, 7};
  EXPECT_THROW(static_cast<void>(ws.multi_bounded(g, bad, 1.0)), std::invalid_argument);
}

TEST(SpWorkspace, DefaultViewIsInvalid) {
  const gr::SpView view;
  EXPECT_THROW(static_cast<void>(view.dist(0)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Single-owner enforcement: the workspace is documented single-owner; the
// in-use flag turns silent stamp corruption (re-entrant search through a
// weight transform, or two threads sharing one workspace) into a
// std::logic_error at the point of misuse.
// ---------------------------------------------------------------------------

TEST(SpWorkspace, ReentrantSearchThroughWeightTransformThrows) {
  const gr::Graph g = path_graph();
  gr::DijkstraWorkspace ws;
  const std::vector<int> sources{0};
  // A weight transform that calls back into the same workspace mid-search —
  // the one single-threaded way to re-enter run().
  const auto evil = [&](double w) {
    static_cast<void>(ws.bounded(g, 0, 1.0));  // throws: ws is mid-search
    return w;
  };
  EXPECT_THROW(static_cast<void>(ws.multi_bounded(g, sources, gr::kInf, evil)), std::logic_error);
  // The flag is released on unwind: the workspace keeps working.
  EXPECT_FALSE(ws.in_use());
  const gr::SpView sp = ws.bounded(g, 0, gr::kInf);
  EXPECT_DOUBLE_EQ(sp.dist(4), 5.0);
}

TEST(SpWorkspace, InUseFlagDoesNotTravelWithCopies) {
  gr::DijkstraWorkspace ws;
  EXPECT_FALSE(ws.in_use());
  const gr::DijkstraWorkspace copy = ws;  // fresh (idle) flag by design
  EXPECT_FALSE(copy.in_use());
}

// ---------------------------------------------------------------------------
// CsrView mid-snapshot mutation detection. The assign loop snapshots one
// adjacency row at a time; a graph mutated between rows (a concurrent
// writer) yields a torn snapshot whose half-edge totals cannot be
// consistent. The stand-in below mutates deterministically from inside
// neighbors(), simulating exactly the interleaving a racing writer causes.
// ---------------------------------------------------------------------------

namespace {

/// Graph facade that removes edge {0,1} the moment row `mutate_at` is read,
/// after earlier rows (which include 0 and 1) were already copied.
struct MutatingGraph {
  gr::Graph g;
  int mutate_at;

  [[nodiscard]] int n() const { return g.n(); }
  [[nodiscard]] int m() const { return g.m(); }
  [[nodiscard]] std::span<const gr::Neighbor> neighbors(int u) const {
    if (u == mutate_at) const_cast<gr::Graph&>(g).remove_edge(0, 1);
    return g.neighbors(u);
  }
};

}  // namespace

TEST(CsrView, RejectsGraphMutatedMidSnapshot) {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  gr::CsrView csr;
  // Rows 0 and 1 are copied with edge {0,1} present; the writer strikes
  // before row 2, so the copied half-edges (2 + from rows 2,3) disagree
  // with the final m — the snapshot is torn and must be rejected.
  const MutatingGraph torn{g, 2};
  EXPECT_THROW(csr.assign(torn), std::logic_error);
  // An untouched graph still snapshots fine afterwards (buffers intact).
  csr.assign(g);
  EXPECT_EQ(csr.n(), 4);
  EXPECT_EQ(csr.neighbors(0).size(), 1u);
}

// ---------------------------------------------------------------------------
// Allocation-freedom (the acceptance criterion of the workspace): after one
// warm-up search, bounded / multi-source / transformed searches allocate
// nothing, and so does a warmed-up DynamicSpanner local certify.
// ---------------------------------------------------------------------------

TEST(SpWorkspaceAlloc, WarmSearchesAllocateNothing) {
  const localspan::ubg::UbgInstance inst =
      Scenario{2, localspan::ubg::Placement::kUniform, 0.75, 256, 3}.make();
  const gr::Graph& g = inst.g;
  gr::DijkstraWorkspace ws;
  const std::vector<int> sources{1, 5, 9};
  const auto energy = [](double w) { return w * w; };
  // Warm-up: grows the stamp/dist/parent arrays and the heap/touched
  // buffers to the high-water mark of exactly the searches counted below
  // (heap depth varies per source, so the warm-up mirrors them).
  static_cast<void>(ws.bounded(g, 2, gr::kInf));
  static_cast<void>(ws.multi_bounded(g, sources, 0.8));
  static_cast<void>(ws.multi_bounded(g, sources, 0.8, energy));
  static_cast<void>(ws.distance(g, 0, g.n() - 1));
  const gr::EuclideanPotential h = gr::euclidean_potential(g, inst.points);
  static_cast<void>(ws.distance(g, 0, g.n() - 1, gr::kInf, h));
  // The witness pass's target set: a filtered view over a row, no buffer.
  const auto targets = [&](int u) {
    return g.neighbors(u) | std::views::filter([u](const gr::Neighbor& nb) { return nb.to > u; }) |
           std::views::transform(&gr::Neighbor::to);
  };
  static_cast<void>(ws.bounded_to_all(g, 2, targets(2), gr::kInf));
  static_cast<void>(ws.bounded_to_all(g, 7, targets(7), 0.8));

  long long allocs = g_allocs.load();
  static_cast<void>(ws.bounded(g, 2, gr::kInf));
  allocs = g_allocs.load() - allocs;
  EXPECT_EQ(allocs, 0) << "warmed bounded search allocated";

  allocs = g_allocs.load();
  static_cast<void>(ws.multi_bounded(g, sources, 0.8));
  allocs = g_allocs.load() - allocs;
  EXPECT_EQ(allocs, 0) << "warmed multi-source search allocated";

  allocs = g_allocs.load();
  static_cast<void>(ws.multi_bounded(g, sources, 0.8, energy));
  allocs = g_allocs.load() - allocs;
  EXPECT_EQ(allocs, 0) << "warmed transformed search allocated";

  allocs = g_allocs.load();
  static_cast<void>(ws.distance(g, 0, g.n() - 1));
  allocs = g_allocs.load() - allocs;
  EXPECT_EQ(allocs, 0) << "warmed distance query allocated";

  allocs = g_allocs.load();
  static_cast<void>(ws.distance(g, 0, g.n() - 1, gr::kInf, h));
  allocs = g_allocs.load() - allocs;
  EXPECT_EQ(allocs, 0) << "warmed goal-directed distance query allocated";

  allocs = g_allocs.load();
  static_cast<void>(ws.bounded_to_all(g, 2, targets(2), gr::kInf));
  static_cast<void>(ws.bounded_to_all(g, 7, targets(7), 0.8));
  allocs = g_allocs.load() - allocs;
  EXPECT_EQ(allocs, 0) << "warmed target-set search allocated";
}

TEST(SpWorkspaceAlloc, CsrReassignAllocatesNothingOnceGrown) {
  const localspan::ubg::UbgInstance inst =
      Scenario{2, localspan::ubg::Placement::kUniform, 0.75, 128, 3}.make();
  gr::CsrView csr(inst.g);
  const long long before = g_allocs.load();
  csr.assign(inst.g);  // same graph: capacity already fits
  EXPECT_EQ(g_allocs.load() - before, 0);
}

TEST(SpWorkspaceAlloc, WarmDynamicCertifyAllocatesNothing) {
  const localspan::ubg::UbgInstance inst =
      Scenario{2, localspan::ubg::Placement::kUniform, 0.75, 128, 3}.make();
  const localspan::core::Params params = localspan::core::Params::practical_params(0.5, 0.75);
  localspan::dynamic::DynamicSpanner engine(inst, params);
  localspan::dynamic::PoissonChurnConfig cfg;
  cfg.events = 8;
  cfg.seed = 3;
  const localspan::dynamic::ChurnTrace trace = localspan::dynamic::poisson_churn(inst, cfg);
  static_cast<void>(engine.apply_all(trace));  // warm scratch + workspaces
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
  EXPECT_EQ(allocs, 0) << "warmed local certify allocated";
  EXPECT_GT(scope, 0);
  EXPECT_LE(scope, engine.instance().g.n());
}
