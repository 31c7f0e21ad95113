// Edge-case coverage for graph/components, graph/mst and core/relaxed_greedy:
// the empty graph, single- and two-node instances at both alpha extremes, and
// disconnected UBG instances — the degenerate inputs a production service must
// survive without special-casing at every call site.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/distributed.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace gr = localspan::graph;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

/// Two far-apart copies of a scenario cell: a guaranteed-disconnected UBG.
ub::UbgInstance disconnected_instance() {
  const ub::UbgInstance half = ti::Scenario{2, ub::Placement::kUniform, 0.75, 20, 3}.make();
  ub::UbgInstance inst;
  inst.config = half.config;
  inst.config.n = 2 * half.config.n;
  const int n = half.g.n();
  for (int copy = 0; copy < 2; ++copy) {
    const double shift = copy * 1000.0;
    for (int v = 0; v < n; ++v) {
      inst.points.push_back({half.points[v][0] + shift, half.points[v][1]});
    }
  }
  inst.g = gr::Graph(2 * n);
  for (const gr::Edge& e : half.g.edges()) {
    inst.g.add_edge(e.u, e.v, e.w);
    inst.g.add_edge(e.u + n, e.v + n, e.w);
  }
  return inst;
}

}  // namespace

// ---------------------------------------------------------------------------
// graph/components

TEST(ComponentsEdge, EmptyGraph) {
  const gr::Components c = gr::connected_components(gr::Graph(0));
  EXPECT_EQ(c.count, 0);
  EXPECT_TRUE(c.label.empty());
  EXPECT_TRUE(c.groups().empty());
}

TEST(ComponentsEdge, SingleVertex) {
  const gr::Components c = gr::connected_components(gr::Graph(1));
  EXPECT_EQ(c.count, 1);
  ASSERT_EQ(c.label.size(), 1u);
  EXPECT_EQ(c.label[0], 0);
}

TEST(ComponentsEdge, TwoVerticesWithAndWithoutEdge) {
  gr::Graph isolated(2);
  EXPECT_EQ(gr::connected_components(isolated).count, 2);
  EXPECT_FALSE(gr::connected(isolated, 0, 1));

  gr::Graph joined(2);
  joined.add_edge(0, 1, 0.5);
  EXPECT_EQ(gr::connected_components(joined).count, 1);
  EXPECT_TRUE(gr::connected(joined, 0, 1));
}

TEST(ComponentsEdge, DisconnectedUbgLabelsAreConsistent) {
  const auto inst = disconnected_instance();
  const gr::Components c = gr::connected_components(inst.g);
  EXPECT_GE(c.count, 2);
  for (const gr::Edge& e : inst.g.edges()) {
    EXPECT_EQ(c.label[static_cast<std::size_t>(e.u)], c.label[static_cast<std::size_t>(e.v)]);
  }
  // The two halves never share a label.
  const int n_half = inst.g.n() / 2;
  for (int u = 0; u < n_half; ++u) {
    EXPECT_NE(c.label[static_cast<std::size_t>(u)],
              c.label[static_cast<std::size_t>(u + n_half)]);
  }
  // groups() partitions the vertex set.
  std::size_t total = 0;
  for (const auto& grp : c.groups()) total += grp.size();
  EXPECT_EQ(total, static_cast<std::size_t>(inst.g.n()));
}

// ---------------------------------------------------------------------------
// graph/mst

TEST(MstEdge, EmptyGraph) {
  const gr::Graph f = gr::minimum_spanning_forest(gr::Graph(0));
  EXPECT_EQ(f.n(), 0);
  EXPECT_EQ(f.m(), 0);
  EXPECT_DOUBLE_EQ(gr::msf_weight(gr::Graph(0)), 0.0);
}

TEST(MstEdge, SingleAndTwoVertices) {
  EXPECT_EQ(gr::minimum_spanning_forest(gr::Graph(1)).m(), 0);

  gr::Graph pair(2);
  pair.add_edge(0, 1, 2.5);
  const gr::Graph f = gr::minimum_spanning_forest(pair);
  EXPECT_EQ(f.m(), 1);
  EXPECT_DOUBLE_EQ(gr::msf_weight(pair), 2.5);
}

TEST(MstEdge, ForestSizeOnDisconnectedUbg) {
  const auto inst = disconnected_instance();
  const gr::Components c = gr::connected_components(inst.g);
  const gr::Graph f = gr::minimum_spanning_forest(inst.g);
  // A spanning forest has exactly n - #components edges.
  EXPECT_EQ(f.m(), inst.g.n() - c.count);
  EXPECT_DOUBLE_EQ(gr::msf_weight(inst.g), f.total_weight());
  // The forest preserves the component structure exactly.
  EXPECT_EQ(gr::connected_components(f).count, c.count);
}

// ---------------------------------------------------------------------------
// core/relaxed_greedy

TEST(RelaxedEdge, EmptyInstanceIsRejected) {
  // The documented BinSchema contract requires n >= 1; a zero-node instance
  // must fail loudly with invalid_argument, not crash.
  ub::UbgInstance inst;
  inst.config.n = 0;
  inst.config.alpha = 0.75;
  inst.g = gr::Graph(0);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  EXPECT_THROW(static_cast<void>(core::relaxed_greedy(inst, params)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(core::distributed_relaxed_greedy(inst, params, {}, 1)),
               std::invalid_argument);
}

TEST(RelaxedEdge, SingleNodeAtAlphaExtremes) {
  for (double alpha : {0.05, 1.0}) {
    ub::UbgConfig cfg;
    cfg.n = 1;
    cfg.alpha = alpha;
    cfg.seed = 5;
    const auto inst = ub::make_ubg(cfg);
    const core::Params params = core::Params::practical_params(0.5, alpha);
    const auto result = core::relaxed_greedy(inst, params);
    EXPECT_EQ(result.spanner.n(), 1);
    EXPECT_EQ(result.spanner.m(), 0);
    EXPECT_TRUE(core::verify_spanner(inst, result.spanner, params.t).ok()) << alpha;
  }
}

TEST(RelaxedEdge, TwoNodesAtAlphaExtremes) {
  for (double alpha : {0.05, 1.0}) {
    for (bool adjacent : {false, true}) {
      ub::UbgInstance inst;
      inst.config.n = 2;
      inst.config.dim = 2;
      inst.config.alpha = alpha;
      // Within alpha-range (forced edge) or beyond max range (no edge).
      const double d = adjacent ? 0.9 * alpha : 2.0;
      inst.points = {{0.0, 0.0}, {d, 0.0}};
      inst.g = gr::Graph(2);
      if (adjacent) inst.g.add_edge(0, 1, d);
      const core::Params params = core::Params::practical_params(0.5, alpha);
      const auto result = core::relaxed_greedy(inst, params);
      EXPECT_EQ(result.spanner.m(), adjacent ? 1 : 0) << "alpha=" << alpha;
      EXPECT_TRUE(core::verify_spanner(inst, result.spanner, params.t).ok())
          << "alpha=" << alpha << " adjacent=" << adjacent;
    }
  }
}

TEST(RelaxedEdge, DisconnectedUbgSpansEachComponent) {
  const auto inst = disconnected_instance();
  const core::Params params = core::Params::practical_params(0.5, inst.config.alpha);
  const auto result = core::relaxed_greedy(inst, params);
  EXPECT_EQ(gr::connected_components(result.spanner).count,
            gr::connected_components(inst.g).count);
  EXPECT_LE(gr::max_edge_stretch(inst.g, result.spanner), params.t * (1.0 + 1e-9));
  // No edge may bridge the halves (those pairs are not G edges).
  const int n_half = inst.g.n() / 2;
  for (const gr::Edge& e : result.spanner.edges()) {
    EXPECT_EQ(e.u < n_half, e.v < n_half);
  }
}
