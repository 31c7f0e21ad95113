// Tests for the §1.6 extensions: k-fault-tolerant spanners, energy-metric
// spanners, and fault injection utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "ext/energy.hpp"
#include "ext/fault_tolerant.hpp"
#include "graph/components.hpp"
#include "dijkstra_reference.hpp"
#include "graph/metrics.hpp"
#include "ubg/generator.hpp"

namespace core = localspan::core;
namespace ext = localspan::ext;
namespace gr = localspan::graph;
namespace ub = localspan::ubg;

namespace {

ub::UbgInstance instance(std::uint64_t seed, int n = 120, double alpha = 0.75) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

TEST(FaultTolerant, KZeroMatchesSeqGreedy) {
  const auto inst = instance(1);
  EXPECT_EQ(ext::fault_tolerant_greedy(inst.g, 1.5, 0), core::seq_greedy(inst.g, 1.5));
}

TEST(FaultTolerant, MoreToleranceMeansMoreEdges) {
  const auto inst = instance(2);
  const int m0 = ext::fault_tolerant_greedy(inst.g, 1.5, 0).m();
  const int m1 = ext::fault_tolerant_greedy(inst.g, 1.5, 1).m();
  const int m2 = ext::fault_tolerant_greedy(inst.g, 1.5, 2).m();
  EXPECT_LT(m0, m1);
  EXPECT_LE(m1, m2);
}

TEST(FaultTolerant, SurvivesSingleEdgeFaults) {
  // The defining property for k=1: for every edge f of the spanner,
  // spanner−f is still a t-spanner of G−f.
  const auto inst = instance(3, 90);
  const double t = 1.8;
  const gr::Graph ft = ext::fault_tolerant_greedy(inst.g, t, 1);
  int checked = 0;
  for (const gr::Edge& f : ft.edges()) {
    if (++checked > 40) break;  // sample to keep the test fast
    gr::Graph faulted_spanner = ft;
    faulted_spanner.remove_edge(f.u, f.v);
    gr::Graph faulted_g = inst.g;
    faulted_g.remove_edge(f.u, f.v);
    EXPECT_LE(gr::max_edge_stretch(faulted_g, faulted_spanner), t * (1.0 + 1e-9))
        << "fault {" << f.u << "," << f.v << "}";
  }
}

TEST(FaultTolerant, StillATSpannerWithoutFaults) {
  const auto inst = instance(4);
  const gr::Graph ft = ext::fault_tolerant_greedy(inst.g, 1.5, 2);
  EXPECT_LE(gr::max_edge_stretch(inst.g, ft), 1.5 * (1.0 + 1e-9));
}

TEST(FaultTolerant, RejectsBadArgs) {
  const gr::Graph g(3);
  EXPECT_THROW(static_cast<void>(ext::fault_tolerant_greedy(g, 0.5, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ext::fault_tolerant_greedy(g, 1.5, -1)), std::invalid_argument);
}

TEST(FaultInjection, EdgeFaultsRemoveExactly) {
  const auto inst = instance(5, 80);
  std::vector<gr::Edge> removed;
  const gr::Graph faulted = ext::inject_edge_faults(inst.g, 10, 3, &removed);
  EXPECT_EQ(faulted.m(), inst.g.m() - 10);
  EXPECT_EQ(removed.size(), 10u);
  for (const gr::Edge& e : removed) EXPECT_FALSE(faulted.has_edge(e.u, e.v));
  // Requesting more faults than edges empties the graph without throwing.
  const gr::Graph empty = ext::inject_edge_faults(inst.g, 10 * inst.g.m(), 3, nullptr);
  EXPECT_EQ(empty.m(), 0);
}

TEST(FaultInjection, VertexFaultsIsolateVictims) {
  const auto inst = instance(6, 80);
  std::vector<int> victims;
  const gr::Graph faulted = ext::inject_vertex_faults(inst.g, 5, 7, &victims);
  EXPECT_EQ(victims.size(), 5u);
  for (int v : victims) EXPECT_EQ(faulted.degree(v), 0);
  EXPECT_EQ(faulted.n(), inst.g.n());  // ids preserved
}

TEST(FaultInjection, Deterministic) {
  const auto inst = instance(7, 60);
  EXPECT_EQ(ext::inject_edge_faults(inst.g, 5, 42, nullptr),
            ext::inject_edge_faults(inst.g, 5, 42, nullptr));
}

TEST(Energy, TransformBasics) {
  const auto t2 = ext::energy_transform(1.0, 2.0);
  EXPECT_DOUBLE_EQ(t2(0.5), 0.25);
  EXPECT_DOUBLE_EQ(t2(1.0), 1.0);
  const auto t4 = ext::energy_transform(2.0, 4.0);
  EXPECT_DOUBLE_EQ(t4(0.5), 2.0 * 0.0625);
  EXPECT_THROW(static_cast<void>(ext::energy_transform(0.0, 2.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ext::energy_transform(1.0, 0.5)), std::invalid_argument);
}

TEST(Energy, ReweightKeepsStructure) {
  const auto inst = instance(8, 70);
  const gr::Graph e2 = ext::energy_reweight(inst, inst.g, 1.0, 2.0);
  EXPECT_EQ(e2.m(), inst.g.m());
  for (const gr::Edge& e : e2.edges()) {
    EXPECT_NEAR(e.w, std::pow(inst.points.distance(e.u, e.v), 2.0), 1e-9);
  }
}

class EnergySpanner : public ::testing::TestWithParam<double> {};

TEST_P(EnergySpanner, RelaxedGreedyYieldsEnergyTSpanner) {
  // §1.6 extension 2: run the relaxed algorithm under the energy metric and
  // verify stretch against the energy-reweighted input graph.
  const double gamma = GetParam();
  const auto inst = instance(9, 130);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions opts;
  opts.weight_transform = ext::energy_transform(1.0, gamma);
  const auto result = core::relaxed_greedy(inst, params, opts);
  const gr::Graph reference = ext::energy_reweight(inst, inst.g, 1.0, gamma);
  EXPECT_LE(gr::max_edge_stretch(reference, result.spanner), params.t * (1.0 + 1e-9))
      << "gamma=" << gamma;
  EXPECT_LE(result.spanner.max_degree(), 64);
}

INSTANTIATE_TEST_SUITE_P(GammaSweep, EnergySpanner, ::testing::Values(1.0, 2.0, 3.0, 4.0));

TEST(Energy, EnergySpannerReducesPowerCostVsMaxPower) {
  const auto inst = instance(10, 150);
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions opts;
  opts.weight_transform = ext::energy_transform(1.0, 2.0);
  const auto result = core::relaxed_greedy(inst, params, opts);
  const gr::Graph g_energy = ext::energy_reweight(inst, inst.g, 1.0, 2.0);
  // Power cost of the spanner is at most that of transmitting at max power.
  EXPECT_LE(gr::power_cost(result.spanner), gr::power_cost(g_energy) + 1e-9);
}
