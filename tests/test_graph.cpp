// Unit tests for the graph substrate: Graph, Dijkstra variants, union-find,
// MSF, components, and the spanner metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "graph/components.hpp"
#include "dijkstra_reference.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "graph/union_find.hpp"
#include "stretch_reference.hpp"

namespace gr = localspan::graph;

namespace {

/// Brute-force all-pairs shortest paths (Floyd-Warshall) for cross-checks.
std::vector<std::vector<double>> floyd_warshall(const gr::Graph& g) {
  const int n = g.n();
  std::vector<std::vector<double>> d(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(n), gr::kInf));
  for (int v = 0; v < n; ++v) d[static_cast<std::size_t>(v)][static_cast<std::size_t>(v)] = 0.0;
  for (const gr::Edge& e : g.edges()) {
    d[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)] = e.w;
    d[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] = e.w;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const double via = d[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] +
                           d[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
        if (via < d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = via;
        }
      }
    }
  }
  return d;
}

gr::Graph random_graph(int n, double p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.1, 2.0);
  gr::Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (unit(rng) < p) g.add_edge(u, v, weight(rng));
    }
  }
  return g;
}

}  // namespace

TEST(Graph, BasicOperations) {
  gr::Graph g(4);
  EXPECT_EQ(g.n(), 4);
  EXPECT_EQ(g.m(), 0);
  EXPECT_TRUE(g.add_edge(0, 1, 1.5));
  EXPECT_FALSE(g.add_edge(1, 0, 2.0));  // duplicate, weight kept
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 1.5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.m(), 1);
  EXPECT_DOUBLE_EQ(g.total_weight(), 1.5);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.m(), 0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.0);
}

TEST(Graph, RejectsInvalid) {
  gr::Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(-1, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -2.0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(g.edge_weight(0, 1)), std::invalid_argument);
  EXPECT_THROW(gr::Graph(-1), std::invalid_argument);
}

TEST(Graph, EdgesAreSortedAndUnique) {
  gr::Graph g(5);
  g.add_edge(3, 1, 1.0);
  g.add_edge(0, 4, 2.0);
  g.add_edge(2, 0, 3.0);
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 3u);
  EXPECT_EQ(es[0].u, 0);
  EXPECT_EQ(es[0].v, 2);
  EXPECT_EQ(es[1].u, 0);
  EXPECT_EQ(es[1].v, 4);
  EXPECT_EQ(es[2].u, 1);
  EXPECT_EQ(es[2].v, 3);
}

TEST(Graph, EdgesMatchAGloballySortedReference) {
  // edges() sorts each row by v; rows come out in u order, so the list must
  // equal a global (u, v) sort of the same edges, weights included.
  std::mt19937_64 rng(11);
  for (int n : {1, 2, 7, 60}) {
    gr::Graph g(n);
    std::uniform_int_distribution<int> pick(0, n - 1);
    std::uniform_real_distribution<double> weight(0.1, 2.0);
    for (int k = 0; k < 4 * n; ++k) {
      const int u = pick(rng);
      const int v = pick(rng);
      if (u != v) g.add_edge(u, v, weight(rng));
    }
    if (n > 3) g.remove_edge(g.edges().front().u, g.edges().front().v);
    std::vector<gr::Edge> want;
    for (int u = 0; u < n; ++u) {
      for (const gr::Neighbor& nb : g.neighbors(u)) {
        if (u < nb.to) want.push_back({u, nb.to, nb.w});
      }
    }
    std::sort(want.begin(), want.end(), [](const gr::Edge& a, const gr::Edge& b) {
      return std::pair(a.u, a.v) < std::pair(b.u, b.v);
    });
    EXPECT_EQ(g.edges(), want) << "n=" << n;
  }
}

TEST(Graph, AddEdgesIsAddEdgeInListOrder) {
  // Rows match one add_edge per edge, in order; the first edge already
  // present is reported, and it and the rest are left out.
  const std::vector<gr::Edge> edges{{2, 0, 0.5}, {0, 1, 1.0}, {3, 2, 0.25}, {1, 2, 2.0}};
  gr::Graph one_by_one(4);
  one_by_one.add_edge(1, 3, 3.0);
  gr::Graph bulk = one_by_one;
  for (const gr::Edge& e : edges) one_by_one.add_edge(e.u, e.v, e.w);
  EXPECT_EQ(bulk.add_edges(edges), -1);
  ASSERT_EQ(bulk, one_by_one);
  for (int u = 0; u < 4; ++u) {
    const auto a = bulk.neighbors(u);
    const auto b = one_by_one.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k].to, b[k].to) << u << " " << k;
  }
  gr::Graph dup(4);
  EXPECT_EQ(dup.add_edges(std::vector<gr::Edge>{{0, 1, 1.0}, {2, 3, 1.0}, {1, 0, 2.0}, {1, 2, 1.0}}),
            2);
  EXPECT_EQ(dup.m(), 2);
  EXPECT_EQ(dup.edge_weight(0, 1), 1.0);
  EXPECT_FALSE(dup.has_edge(1, 2));
  EXPECT_THROW(static_cast<void>(dup.add_edges(std::vector<gr::Edge>{{0, 4, 1.0}})),
               std::invalid_argument);
}

TEST(Graph, DegreeTracking) {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.max_degree(), 3);
  g.remove_edge(0, 2);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Graph, EqualityIsStructural) {
  gr::Graph a(3);
  a.add_edge(0, 1, 1.0);
  gr::Graph b(3);
  b.add_edge(1, 0, 1.0);
  EXPECT_EQ(a, b);
  b.add_edge(1, 2, 1.0);
  EXPECT_FALSE(a == b);
}

TEST(Dijkstra, MatchesFloydWarshall) {
  const gr::Graph g = random_graph(40, 0.15, 42);
  const auto fw = floyd_warshall(g);
  for (int src = 0; src < g.n(); src += 7) {
    const gr::ShortestPaths sp = gr::dijkstra(g, src);
    for (int v = 0; v < g.n(); ++v) {
      EXPECT_NEAR(sp.dist[static_cast<std::size_t>(v)],
                  fw[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)], 1e-9);
    }
  }
}

TEST(Dijkstra, BoundedStopsAtRadius) {
  const gr::Graph g = random_graph(60, 0.1, 7);
  const auto fw = floyd_warshall(g);
  const double radius = 1.0;
  const gr::ShortestPaths sp = gr::dijkstra_bounded(g, 0, radius);
  for (int v = 0; v < g.n(); ++v) {
    const double truth = fw[0][static_cast<std::size_t>(v)];
    if (truth <= radius) {
      EXPECT_NEAR(sp.dist[static_cast<std::size_t>(v)], truth, 1e-9);
    } else {
      EXPECT_EQ(sp.dist[static_cast<std::size_t>(v)], gr::kInf);
    }
  }
}

TEST(Dijkstra, SpDistanceEarlyExit) {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(gr::sp_distance(g, 0, 3), 3.0);
  EXPECT_EQ(gr::sp_distance(g, 0, 3, 2.5), gr::kInf);  // over budget
  EXPECT_DOUBLE_EQ(gr::sp_distance(g, 0, 0), 0.0);
}

TEST(Dijkstra, DisconnectedIsInf) {
  gr::Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(gr::sp_distance(g, 0, 2), gr::kInf);
}

TEST(Graph, AddVertexGrowsWithoutDisturbingEdges) {
  gr::Graph g(2);
  g.add_edge(0, 1, 0.5);
  EXPECT_EQ(g.add_vertex(), 2);
  EXPECT_EQ(g.add_vertex(), 3);
  EXPECT_EQ(g.n(), 4);
  EXPECT_EQ(g.m(), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(2), 0);
  g.add_edge(2, 3, 1.0);  // new slots are fully usable
  EXPECT_EQ(g.m(), 2);
}

TEST(Dijkstra, MultiSourceBoundedTakesMinOverSources) {
  const gr::Graph g = random_graph(60, 0.1, 13);
  const auto fw = floyd_warshall(g);
  const std::vector<int> sources{0, 5, 17};
  const double radius = 1.2;
  const gr::ShortestPaths sp = gr::dijkstra_multi_bounded(g, sources, radius);
  for (int v = 0; v < g.n(); ++v) {
    double truth = gr::kInf;
    for (int s : sources) {
      truth = std::min(truth, fw[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)]);
    }
    if (truth <= radius) {
      EXPECT_NEAR(sp.dist[static_cast<std::size_t>(v)], truth, 1e-9) << v;
    } else {
      EXPECT_EQ(sp.dist[static_cast<std::size_t>(v)], gr::kInf) << v;
    }
  }
  // Duplicate sources are legal; bad ones and negative radii are not.
  const std::vector<int> dup{0, 0};
  EXPECT_EQ(gr::dijkstra_multi_bounded(g, dup, 1.0).dist[0], 0.0);
  const std::vector<int> bad{-1};
  EXPECT_THROW(static_cast<void>(gr::dijkstra_multi_bounded(g, bad, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(gr::dijkstra_multi_bounded(g, sources, -1.0)),
               std::invalid_argument);
}

TEST(Dijkstra, MultiSourceHonorsWeightTransform) {
  gr::Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  const std::vector<int> src{0};
  // Squared weights: dist(0,2) = 4 + 9 = 13.
  const gr::ShortestPaths sp =
      gr::dijkstra_multi_bounded(g, src, 100.0, [](double w) { return w * w; });
  EXPECT_DOUBLE_EQ(sp.dist[1], 4.0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 13.0);
}

TEST(Dijkstra, ParentsFormShortestTree) {
  const gr::Graph g = random_graph(50, 0.12, 99);
  const gr::ShortestPaths sp = gr::dijkstra(g, 0);
  for (int v = 1; v < g.n(); ++v) {
    const int p = sp.parent[static_cast<std::size_t>(v)];
    if (sp.dist[static_cast<std::size_t>(v)] == gr::kInf) {
      EXPECT_EQ(p, -1);
      continue;
    }
    if (p == -1) continue;  // v unreachable or root
    EXPECT_NEAR(sp.dist[static_cast<std::size_t>(v)],
                sp.dist[static_cast<std::size_t>(p)] + g.edge_weight(p, v), 1e-9);
  }
}

TEST(Dijkstra, KHopBall) {
  gr::Graph g(6);  // path 0-1-2-3-4-5
  for (int i = 0; i < 5; ++i) g.add_edge(i, i + 1, 1.0);
  EXPECT_EQ(gr::khop_ball(g, 0, 0).size(), 1u);
  EXPECT_EQ(gr::khop_ball(g, 0, 2).size(), 3u);
  EXPECT_EQ(gr::khop_ball(g, 2, 2).size(), 5u);
  EXPECT_EQ(gr::khop_ball(g, 0, 99).size(), 6u);
}

TEST(Dijkstra, PathHops) {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);  // heavier shortcut
  const gr::ShortestPaths sp = gr::dijkstra(g, 0);
  EXPECT_EQ(gr::path_hops(sp, 2), 2);  // goes the light way
  EXPECT_EQ(gr::path_hops(sp, 0), 0);
  EXPECT_EQ(gr::path_hops(sp, 3), -1);
}

TEST(UnionFind, BasicMerging) {
  gr::UnionFind uf(5);
  EXPECT_EQ(uf.components(), 5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.components(), 4);
  uf.unite(2, 3);
  uf.unite(0, 3);
  EXPECT_TRUE(uf.same(1, 2));
  EXPECT_EQ(uf.size_of(1), 4);
  EXPECT_EQ(uf.size_of(4), 1);
}

TEST(MSF, MatchesBruteForceOnSmallGraphs) {
  // Exhaustive check against all spanning trees via matrix-tree would be
  // heavy; instead compare against a second, independent Prim implementation.
  const gr::Graph g = random_graph(30, 0.25, 5);
  const gr::Graph forest = gr::minimum_spanning_forest(g);
  // Prim from each component.
  double prim_total = 0.0;
  std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
  for (int s = 0; s < g.n(); ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    std::vector<double> best(static_cast<std::size_t>(g.n()), gr::kInf);
    std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
    best[static_cast<std::size_t>(s)] = 0.0;
    while (true) {
      int pick = -1;
      for (int v = 0; v < g.n(); ++v) {
        if (!in[static_cast<std::size_t>(v)] && best[static_cast<std::size_t>(v)] != gr::kInf &&
            (pick == -1 || best[static_cast<std::size_t>(v)] < best[static_cast<std::size_t>(pick)])) {
          pick = v;
        }
      }
      if (pick == -1) break;
      in[static_cast<std::size_t>(pick)] = 1;
      seen[static_cast<std::size_t>(pick)] = 1;
      prim_total += best[static_cast<std::size_t>(pick)];
      for (const gr::Neighbor& nb : g.neighbors(pick)) {
        if (!in[static_cast<std::size_t>(nb.to)]) {
          best[static_cast<std::size_t>(nb.to)] =
              std::min(best[static_cast<std::size_t>(nb.to)], nb.w);
        }
      }
    }
  }
  EXPECT_NEAR(forest.total_weight(), prim_total, 1e-9);
  EXPECT_NEAR(gr::msf_weight(g), prim_total, 1e-9);
}

TEST(MSF, ForestHasRightEdgeCount) {
  const gr::Graph g = random_graph(40, 0.2, 12);
  const gr::Components comps = gr::connected_components(g);
  const gr::Graph forest = gr::minimum_spanning_forest(g);
  EXPECT_EQ(forest.m(), g.n() - comps.count);
}

TEST(MSF, PreservesConnectivity) {
  const gr::Graph g = random_graph(40, 0.2, 13);
  const gr::Graph forest = gr::minimum_spanning_forest(g);
  const gr::Components cg = gr::connected_components(g);
  const gr::Components cf = gr::connected_components(forest);
  EXPECT_EQ(cg.count, cf.count);
  for (int v = 0; v < g.n(); ++v) {
    for (int u = 0; u < v; ++u) {
      EXPECT_EQ(cg.label[static_cast<std::size_t>(u)] == cg.label[static_cast<std::size_t>(v)],
                cf.label[static_cast<std::size_t>(u)] == cf.label[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Components, CountsAndGroups) {
  gr::Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  const gr::Components c = gr::connected_components(g);
  EXPECT_EQ(c.count, 3);  // {0,1,2}, {3,4}, {5}
  const auto groups = c.groups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_TRUE(gr::connected(g, 0, 2));
  EXPECT_FALSE(gr::connected(g, 0, 3));
  EXPECT_FALSE(gr::connected(g, 4, 5));
}

TEST(Metrics, EdgeStretchIdentityAndSubgraph) {
  gr::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.9);
  EXPECT_DOUBLE_EQ(gr::max_edge_stretch(g, g), 1.0);
  gr::Graph sub(3);
  sub.add_edge(0, 1, 1.0);
  sub.add_edge(1, 2, 1.0);
  // Dropping {0,2} forces the 2-hop detour: stretch 2/1.9.
  EXPECT_NEAR(gr::max_edge_stretch(g, sub), 2.0 / 1.9, 1e-12);
}

TEST(Metrics, EdgeStretchCapsWhenDisconnected) {
  gr::Graph g(2);
  g.add_edge(0, 1, 1.0);
  gr::Graph sub(2);
  EXPECT_DOUBLE_EQ(gr::max_edge_stretch(g, sub, 16.0), 16.0);
}

TEST(Metrics, SampledPairStretchAgrees) {
  const gr::Graph g = random_graph(30, 0.3, 21);
  const gr::Graph forest = gr::minimum_spanning_forest(g);
  const double edge_stretch = gr::max_edge_stretch(g, forest);
  const double pair_stretch = gr::sampled_pair_stretch(g, forest, 300, 17);
  // Pair stretch can't exceed edge stretch (classical spanner lemma).
  EXPECT_LE(pair_stretch, edge_stretch + 1e-9);
}

TEST(Metrics, CountingPathsAreSixtyFourBitEndToEnd) {
  // Regression for the 32-bit counting paths: n=1e5-scale sweeps produce
  // samples-x-pairs budgets beyond INT_MAX. The quantile index is the
  // arithmetic that actually wrapped — ceil(0.99 * 5e9) - 1 is negative in
  // 32-bit — and the sampling entry points must accept 64-bit budgets
  // without truncating them through an int parameter.
  const std::int64_t five_billion = 5'000'000'000LL;
  EXPECT_EQ(gr::quantile_index(five_billion, 0.99), 4'950'000'000LL - 1);
  EXPECT_EQ(gr::quantile_index(five_billion, 1.0), five_billion - 1);
  EXPECT_EQ(gr::quantile_index(100, 0.99), 98);
  EXPECT_EQ(gr::quantile_index(1, 0.99), 0);
  EXPECT_EQ(gr::quantile_index(0, 0.99), -1);
  EXPECT_EQ(gr::quantile_index(five_billion, 0.0), 0);

  // The widened entry points take >INT_MAX budgets verbatim (the early-exit
  // paths keep these instant; an int parameter would have wrapped the value
  // to a negative count and silently measured nothing).
  const gr::Graph tiny(1);
  EXPECT_DOUBLE_EQ(gr::sampled_pair_stretch(tiny, tiny, five_billion, 1), 1.0);
  gr::Graph one_edge(2);
  one_edge.add_edge(0, 1, 1.0);
  const auto dist = [](int, int) { return 1.0; };
  EXPECT_EQ(gr::leapfrog_violations(one_edge, dist, 1.5, 2.0, five_billion, 1), 0);
}

TEST(Metrics, DegreeStats) {
  gr::Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(0, 4, 1.0);
  const gr::DegreeStats st = gr::degree_stats(g);
  EXPECT_EQ(st.max, 4);
  EXPECT_DOUBLE_EQ(st.mean, 8.0 / 5.0);
  EXPECT_EQ(st.p99, 4);
}

TEST(Metrics, LightnessOfMsfIsOne) {
  const gr::Graph g = random_graph(25, 0.3, 31);
  const gr::Graph forest = gr::minimum_spanning_forest(g);
  EXPECT_NEAR(gr::lightness(g, forest), 1.0, 1e-12);
  EXPECT_GE(gr::lightness(g, g), 1.0);
}

TEST(Metrics, PowerCost) {
  gr::Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  // power: node0 -> 2, node1 -> 3, node2 -> 3.
  EXPECT_DOUBLE_EQ(gr::power_cost(g), 8.0);
  EXPECT_DOUBLE_EQ(gr::power_cost(gr::Graph(4)), 0.0);
}

TEST(Metrics, DoublingDimensionOfALineIsLow) {
  // Points on a line: doubling dimension ~1.
  const int n = 64;
  std::vector<std::vector<double>> dist(n, std::vector<double>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = std::abs(i - j);
  }
  const double dd = gr::doubling_dimension_estimate(dist, 40, 3);
  EXPECT_LE(dd, 2.5);
}

TEST(Metrics, LeapfrogDetectsACraftedViolation) {
  // Two parallel unit edges at distance ~0: the subset {e1, e2} violates
  // t2·|e1| < |e2| + t·(tiny links) whenever t2 > 1 + t·epsilon. The sampler
  // must find it.
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto dist = [](int u, int v) {
    if (u == v) return 0.0;
    // Layout: 0 and 2 coincide (distance 1e-6), 1 and 3 coincide.
    const bool left_u = u == 0 || u == 2;
    const bool left_v = v == 0 || v == 2;
    if (left_u == left_v) return 1e-6;
    return 1.0;
  };
  EXPECT_GT(gr::leapfrog_violations(g, dist, 1.5, 2.0, 500, 3), 0);
}

TEST(Metrics, LeapfrogHoldsOnAnMst) {
  // An MST trivially satisfies leapfrog for t2 close to 1: removing the
  // longest edge of a subset forces a strictly longer connection.
  const gr::Graph g = random_graph(30, 0.3, 41);
  const gr::Graph forest = gr::minimum_spanning_forest(g);
  // Euclidean-free check: use the graph weights as "distances" via a lookup
  // of the edge when present, else a large constant. The MST edges can't be
  // shortcut by other MST edges, so violations should be rare-to-none for
  // t2 = 1.01 with generous t.
  const auto dist = [&](int u, int v) {
    if (u == v) return 0.0;
    if (forest.has_edge(u, v)) return forest.edge_weight(u, v);
    return 10.0;
  };
  EXPECT_EQ(gr::leapfrog_violations(forest, dist, 1.01, 8.0, 200, 9), 0);
}
