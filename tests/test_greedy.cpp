// Tests for SEQ-GREEDY (§1.4): the three spanner properties on α-UBGs and
// complete graphs, plus the phase-0 clique helper (§2.1).
#include <gtest/gtest.h>

#include <random>

#include "core/greedy.hpp"
#include "graph/components.hpp"
#include "dijkstra_reference.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace gr = localspan::graph;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance small_instance(std::uint64_t seed, int n = 150, double alpha = 0.75) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

TEST(SeqGreedy, OutputIsSubgraph) {
  const auto inst = small_instance(1);
  const gr::Graph sp = core::seq_greedy(inst.g, 1.5);
  for (const gr::Edge& e : sp.edges()) {
    EXPECT_TRUE(inst.g.has_edge(e.u, e.v));
    EXPECT_DOUBLE_EQ(inst.g.edge_weight(e.u, e.v), e.w);
  }
}

class SeqGreedyStretch : public ::testing::TestWithParam<double> {};

TEST_P(SeqGreedyStretch, StretchBoundHolds) {
  const double t = GetParam();
  const auto inst = small_instance(7);
  const gr::Graph sp = core::seq_greedy(inst.g, t);
  EXPECT_LE(gr::max_edge_stretch(inst.g, sp), t + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(TSweep, SeqGreedyStretch, ::testing::Values(1.05, 1.1, 1.5, 2.0, 3.0));

TEST(SeqGreedy, SparsifiesDenseInput) {
  const auto inst = small_instance(3);
  const gr::Graph sp = core::seq_greedy(inst.g, 1.5);
  EXPECT_LT(sp.m(), inst.g.m());
  // Linear size: below a generous constant times n.
  EXPECT_LE(sp.m(), 12 * inst.g.n());
}

TEST(SeqGreedy, PreservesConnectivity) {
  const auto inst = small_instance(5);
  const gr::Graph sp = core::seq_greedy(inst.g, 2.0);
  EXPECT_EQ(gr::connected_components(inst.g).count, gr::connected_components(sp).count);
}

TEST(SeqGreedy, ContainsTheMsfForAnyT) {
  // Greedy always keeps an edge whose endpoints were previously disconnected,
  // and processes in weight order: the output contains an MSF.
  const auto inst = small_instance(11);
  const gr::Graph sp = core::seq_greedy(inst.g, 1.2);
  EXPECT_NEAR(gr::msf_weight(inst.g), gr::msf_weight(sp), 1e-9);
}

TEST(SeqGreedy, TEqualOneKeepsForestOnly) {
  // With t = 1 an edge is dropped only when an equally-short path exists;
  // in general position the output is exactly the graph minus nothing
  // shortcuttable — for a triangle with strict inequality all 3 survive.
  gr::Graph tri(3);
  tri.add_edge(0, 1, 1.0);
  tri.add_edge(1, 2, 1.0);
  tri.add_edge(0, 2, 1.5);
  const gr::Graph sp = core::seq_greedy(tri, 1.0);
  EXPECT_EQ(sp.m(), 3);
  // But with a generous t the long edge is shortcut by the two short ones.
  const gr::Graph sp2 = core::seq_greedy(tri, 1.4);
  EXPECT_EQ(sp2.m(), 2);
  EXPECT_FALSE(sp2.has_edge(0, 2));
}

TEST(SeqGreedy, RejectsBadT) {
  gr::Graph g(2);
  EXPECT_THROW(static_cast<void>(core::seq_greedy(g, 0.9)), std::invalid_argument);
}

TEST(SeqGreedy, DeterministicUnderTies) {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);
  const gr::Graph a = core::seq_greedy(g, 2.0);
  const gr::Graph b = core::seq_greedy(g, 2.0);
  EXPECT_EQ(a, b);
}

TEST(SeqGreedyClique, SpansACliqueWithBoundedDegree) {
  // Points clustered in a tiny ball, as a phase-0 component would be.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> coord(0.0, 0.002);
  std::vector<localspan::geom::Point> pts;
  for (int i = 0; i < 40; ++i) pts.push_back({coord(rng), coord(rng)});
  std::vector<int> members;
  for (int i = 0; i < 40; ++i) members.push_back(i);
  const auto weight = [&](int u, int v) {
    return std::max(1e-12, localspan::geom::distance(pts[static_cast<std::size_t>(u)],
                                                     pts[static_cast<std::size_t>(v)]));
  };
  const double t = 1.5;
  const auto edges = core::seq_greedy_clique(members, weight, t);
  gr::Graph sp(40);
  for (const gr::Edge& e : edges) sp.add_edge(e.u, e.v, e.w);
  // Spanner property over all clique pairs.
  for (int u = 0; u < 40; ++u) {
    for (int v = u + 1; v < 40; ++v) {
      EXPECT_LE(gr::sp_distance(sp, u, v), t * weight(u, v) + 1e-12);
    }
  }
  // Degree O(1): greedy spanners of 2-D point sets stay very sparse.
  EXPECT_LE(sp.max_degree(), 16);
  EXPECT_LT(static_cast<int>(edges.size()), 6 * 40);
}

TEST(SeqGreedyClique, GlobalIdsPreserved) {
  std::vector<int> members{10, 20, 30};
  const auto weight = [](int u, int v) { return static_cast<double>(u + v); };
  const auto edges = core::seq_greedy_clique(members, weight, 1.1);
  for (const gr::Edge& e : edges) {
    EXPECT_TRUE(e.u == 10 || e.u == 20 || e.u == 30);
    EXPECT_TRUE(e.v == 10 || e.v == 20 || e.v == 30);
    EXPECT_LT(e.u, e.v);
  }
  EXPECT_FALSE(edges.empty());
}

TEST(SeqGreedyClique, SingletonAndPair) {
  const auto weight = [](int, int) { return 1.0; };
  EXPECT_TRUE(core::seq_greedy_clique({5}, weight, 1.5).empty());
  const auto pair_edges = core::seq_greedy_clique({3, 9}, weight, 1.5);
  ASSERT_EQ(pair_edges.size(), 1u);
  EXPECT_EQ(pair_edges[0].u, 3);
  EXPECT_EQ(pair_edges[0].v, 9);
}
