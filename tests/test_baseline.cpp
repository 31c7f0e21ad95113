// Tests for the topology-control baselines of experiment E6:
// Yao graph, Gabriel graph, Relative Neighborhood Graph.
#include <gtest/gtest.h>

#include "baseline/gabriel.hpp"
#include "baseline/rng_graph.hpp"
#include "baseline/yao.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "ubg/generator.hpp"

namespace bl = localspan::baseline;
namespace gr = localspan::graph;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance udg_instance(std::uint64_t seed, int n = 250) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = 1.0;  // classical UDG for the baseline identities
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

TEST(Yao, SubgraphWithBoundedOutSelection) {
  const auto inst = udg_instance(1);
  const int k = 8;
  const gr::Graph y = bl::yao_graph(inst, k);
  for (const gr::Edge& e : y.edges()) EXPECT_TRUE(inst.g.has_edge(e.u, e.v));
  // Each node selects <= k edges; after symmetrization degree <= 2k… but the
  // selected-out count per node is what the construction bounds. The max
  // total degree stays modest on uniform instances.
  EXPECT_LE(y.max_degree(), 3 * k);
  EXPECT_LE(y.m(), k * y.n());
}

TEST(Yao, PreservesConnectivityOnUdg) {
  const auto inst = udg_instance(2);
  const gr::Graph y = bl::yao_graph(inst, 8);
  EXPECT_EQ(gr::connected_components(inst.g).count, gr::connected_components(y).count);
}

TEST(Yao, MoreConesMeansBetterStretch) {
  const auto inst = udg_instance(3);
  const double s6 = gr::max_edge_stretch(inst.g, bl::yao_graph(inst, 6));
  const double s16 = gr::max_edge_stretch(inst.g, bl::yao_graph(inst, 16));
  EXPECT_LE(s16, s6 + 1e-9);
}

TEST(Yao, RejectsBadInput) {
  const auto inst = udg_instance(4);
  EXPECT_THROW(static_cast<void>(bl::yao_graph(inst, 2)), std::invalid_argument);
  ub::UbgConfig cfg3;
  cfg3.n = 20;
  cfg3.dim = 3;
  cfg3.seed = 5;
  const auto inst3 = ub::make_ubg(cfg3);
  EXPECT_THROW(static_cast<void>(bl::yao_graph(inst3, 6)), std::invalid_argument);
}

TEST(Gabriel, WitnessFreeEdgesOnly) {
  const auto inst = udg_instance(5, 150);
  const gr::Graph gg = bl::gabriel_graph(inst);
  // Verify the Gabriel predicate directly on every kept edge.
  for (const gr::Edge& e : gg.edges()) {
    const auto& pu = inst.points[e.u];
    const auto& pv = inst.points[e.v];
    for (int w = 0; w < inst.g.n(); ++w) {
      if (w == e.u || w == e.v) continue;
      localspan::geom::Point mid(pu.dim());
      for (int d = 0; d < pu.dim(); ++d) mid[d] = 0.5 * (pu[d] + pv[d]);
      EXPECT_GE(localspan::geom::sq_distance(mid, inst.points[w]),
                localspan::geom::sq_distance(pu, pv) / 4.0 * (1.0 - 1e-9));
    }
  }
}

TEST(Gabriel, ContainsTheMsf) {
  // Classical inclusion chain: MST ⊆ RNG ⊆ Gabriel (arguments stay valid
  // intersected with a UDG on connected instances).
  const auto inst = udg_instance(6, 200);
  const gr::Graph gg = bl::gabriel_graph(inst);
  EXPECT_NEAR(gr::msf_weight(inst.g), gr::msf_weight(gg), 1e-9);
  EXPECT_EQ(gr::connected_components(inst.g).count, gr::connected_components(gg).count);
}

TEST(Rng, SubsetOfGabriel) {
  const auto inst = udg_instance(7, 200);
  const gr::Graph gg = bl::gabriel_graph(inst);
  const gr::Graph rng = bl::relative_neighborhood_graph(inst);
  for (const gr::Edge& e : rng.edges()) {
    EXPECT_TRUE(gg.has_edge(e.u, e.v)) << e.u << "," << e.v;
  }
  EXPECT_LE(rng.m(), gg.m());
}

TEST(Rng, LunePredicateHolds) {
  const auto inst = udg_instance(8, 120);
  const gr::Graph rng = bl::relative_neighborhood_graph(inst);
  for (const gr::Edge& e : rng.edges()) {
    for (int w = 0; w < inst.g.n(); ++w) {
      if (w == e.u || w == e.v) continue;
      const double lune = std::max(inst.points.distance(e.u, w), inst.points.distance(e.v, w));
      EXPECT_GE(lune, e.w * (1.0 - 1e-9));
    }
  }
}

TEST(Rng, PreservesConnectivity) {
  const auto inst = udg_instance(9, 200);
  const gr::Graph rng = bl::relative_neighborhood_graph(inst);
  EXPECT_EQ(gr::connected_components(inst.g).count, gr::connected_components(rng).count);
  EXPECT_NEAR(gr::msf_weight(inst.g), gr::msf_weight(rng), 1e-9);
}

TEST(Baselines, SparsityOrderingOnUniformInstances) {
  const auto inst = udg_instance(10, 300);
  const int m_rng = bl::relative_neighborhood_graph(inst).m();
  const int m_gg = bl::gabriel_graph(inst).m();
  EXPECT_LE(m_rng, m_gg);
  EXPECT_LE(m_gg, inst.g.m());
}
