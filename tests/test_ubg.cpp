// Tests for the α-UBG model: gray-zone policies and instance generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/components.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"
#include "ubg/policy.hpp"

namespace ub = localspan::ubg;
namespace gr = localspan::graph;
namespace ti = localspan::testinfra;

TEST(Policy, AlwaysAndNever) {
  const auto a = ub::always_connect();
  const auto n = ub::never_connect();
  EXPECT_TRUE(a->connect(1, 2, 0.9));
  EXPECT_FALSE(n->connect(1, 2, 0.9));
  EXPECT_STREQ(a->name(), "always");
  EXPECT_STREQ(n->name(), "never");
}

TEST(Policy, ProbabilisticIsDeterministicPerSeed) {
  const auto p1 = ub::probabilistic(0.5, 123);
  const auto p2 = ub::probabilistic(0.5, 123);
  const auto p3 = ub::probabilistic(0.5, 456);
  int diff = 0;
  for (int u = 0; u < 200; ++u) {
    EXPECT_EQ(p1->connect(u, u + 1, 0.9), p2->connect(u, u + 1, 0.9));
    if (p1->connect(u, u + 1, 0.9) != p3->connect(u, u + 1, 0.9)) ++diff;
  }
  EXPECT_GT(diff, 10);  // different seeds actually differ
}

TEST(Policy, ProbabilisticRespectsExtremes) {
  const auto p0 = ub::probabilistic(0.0, 9);
  const auto p1 = ub::probabilistic(1.0, 9);
  for (int u = 0; u < 100; ++u) {
    EXPECT_FALSE(p0->connect(u, u + 7, 0.8));
    EXPECT_TRUE(p1->connect(u, u + 7, 0.8));
  }
  EXPECT_THROW(ub::probabilistic(1.5, 0), std::invalid_argument);
  EXPECT_THROW(ub::probabilistic(-0.1, 0), std::invalid_argument);
}

TEST(Policy, ProbabilisticHitsRateApproximately) {
  const auto p = ub::probabilistic(0.3, 77);
  int yes = 0;
  const int trials = 5000;
  for (int u = 0; u < trials; ++u) {
    if (p->connect(u, u + 1, 0.9)) ++yes;
  }
  EXPECT_NEAR(static_cast<double>(yes) / trials, 0.3, 0.03);
}

TEST(Policy, Threshold) {
  const auto p = ub::threshold(0.85);
  EXPECT_TRUE(p->connect(0, 1, 0.85));
  EXPECT_FALSE(p->connect(0, 1, 0.86));
  EXPECT_THROW(ub::threshold(1.5), std::invalid_argument);
}

TEST(Generator, ValidatesConfig) {
  ub::UbgConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
  cfg.n = 10;
  cfg.alpha = 0.0;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
  cfg.alpha = 1.2;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
  cfg.alpha = 0.5;
  cfg.dim = 1;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
}

TEST(Generator, ModelInvariantsHoldForEveryPolicy) {
  ub::UbgConfig cfg;
  cfg.n = 250;
  cfg.alpha = 0.6;
  cfg.seed = 31;
  for (const auto* which : {"always", "never", "prob", "thresh"}) {
    std::unique_ptr<ub::GrayZonePolicy> policy;
    if (std::string(which) == "always") policy = ub::always_connect();
    if (std::string(which) == "never") policy = ub::never_connect();
    if (std::string(which) == "prob") policy = ub::probabilistic(0.5, 5);
    if (std::string(which) == "thresh") policy = ub::threshold(0.8);
    const ub::UbgInstance inst = ub::make_ubg(cfg, *policy);
    EXPECT_TRUE(ub::is_valid_ubg(inst)) << which;
  }
}

TEST(Generator, AlwaysPolicyDominatesNever) {
  ub::UbgConfig cfg;
  cfg.n = 200;
  cfg.alpha = 0.5;
  cfg.seed = 3;
  const auto a = ub::make_ubg(cfg, *ub::always_connect());
  const auto nv = ub::make_ubg(cfg, *ub::never_connect());
  EXPECT_GT(a.g.m(), nv.g.m());
  // Same placement: every never-edge is an always-edge.
  for (const gr::Edge& e : nv.g.edges()) EXPECT_TRUE(a.g.has_edge(e.u, e.v));
}

TEST(Generator, DeterministicGivenSeed) {
  ub::UbgConfig cfg;
  cfg.n = 150;
  cfg.seed = 77;
  const auto i1 = ub::make_ubg(cfg);
  const auto i2 = ub::make_ubg(cfg);
  EXPECT_EQ(i1.g, i2.g);
  cfg.seed = 78;
  const auto i3 = ub::make_ubg(cfg);
  EXPECT_FALSE(i1.g == i3.g);
}

TEST(Generator, AutoSizingHitsTargetDegree) {
  ub::UbgConfig cfg;
  cfg.n = 800;
  cfg.alpha = 0.7;
  cfg.target_degree = 12.0;
  cfg.seed = 19;
  const auto inst = ub::make_ubg(cfg, *ub::never_connect());
  // Mean degree within a factor ~2 of target (edge effects shrink it).
  const double mean = 2.0 * inst.g.m() / static_cast<double>(inst.g.n());
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 24.0);
}

TEST(Generator, EdgeWeightsAreEuclidean) {
  ub::UbgConfig cfg;
  cfg.n = 100;
  cfg.seed = 8;
  const auto inst = ub::make_ubg(cfg);
  for (const gr::Edge& e : inst.g.edges()) {
    EXPECT_NEAR(e.w, inst.points.distance(e.u, e.v), 1e-9);
    EXPECT_LE(e.w, 1.0 + 1e-12);
  }
}

TEST(Generator, PlacementsProduceExpectedShapes) {
  ub::UbgConfig cfg;
  cfg.n = 300;
  cfg.seed = 13;
  cfg.placement = ub::Placement::kCorridor;
  const auto corridor = ub::make_ubg(cfg);
  // All points inside the strip of width 2*alpha.
  for (int v = 0; v < corridor.points.size(); ++v) {
    EXPECT_LE(corridor.points[v][1], 2.0 * cfg.alpha + 1e-12);
    EXPECT_GE(corridor.points[v][1], -1e-12);
  }
  cfg.placement = ub::Placement::kClustered;
  const auto clustered = ub::make_ubg(cfg);
  EXPECT_TRUE(ub::is_valid_ubg(clustered));
}

TEST(Generator, HigherDimensions) {
  for (int d : {3, 4}) {
    ub::UbgConfig cfg;
    cfg.n = 150;
    cfg.dim = d;
    cfg.seed = 23;
    const auto inst = ub::make_ubg(cfg);
    EXPECT_TRUE(ub::is_valid_ubg(inst));
    EXPECT_EQ(inst.points.dim(), d);
    EXPECT_GT(inst.g.m(), 0);
  }
}

// make_ubg pinned over {2-d, 3-d} x {uniform, clustered, corridor} x
// {always, prob, threshold}: m and an FNV-1a digest of every adjacency row in
// storage order, weight bits included, so a change of neighbour-enumeration
// order shows even where the edge set stays the same.
TEST(Generator, EdgeListsArePinned) {
  struct Pin {
    int dim;
    ub::Placement placement;
    const char* policy;
    int m;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {2, ub::Placement::kUniform, "always", 8399, 0x4e3d786f71385001ULL},
      {2, ub::Placement::kUniform, "prob", 6631, 0x8f4dd5db2b864ad1ULL},
      {2, ub::Placement::kUniform, "threshold", 6468, 0x1f8dd1fbe35b7755ULL},
      {2, ub::Placement::kClustered, "always", 14947, 0xb3d72691f04e9341ULL},
      {2, ub::Placement::kClustered, "prob", 12042, 0x9e2a751b12d1ad0dULL},
      {2, ub::Placement::kClustered, "threshold", 11834, 0x720dff7b424c4de1ULL},
      {2, ub::Placement::kCorridor, "always", 6436, 0xc49b13cace412529ULL},
      {2, ub::Placement::kCorridor, "prob", 5184, 0xb190ad4d9f278c15ULL},
      {2, ub::Placement::kCorridor, "threshold", 5108, 0xb3e1130082f9ba09ULL},
      {3, ub::Placement::kUniform, "always", 9520, 0x90bd2e57cf38a905ULL},
      {3, ub::Placement::kUniform, "prob", 6868, 0x24b072b23869acbdULL},
      {3, ub::Placement::kUniform, "threshold", 6526, 0x99c92b81fae4382dULL},
      {3, ub::Placement::kClustered, "always", 14609, 0xe08ce1b25c1a36d9ULL},
      {3, ub::Placement::kClustered, "prob", 10798, 0x3e4a022dce9830e1ULL},
      {3, ub::Placement::kClustered, "threshold", 10395, 0x24831e14484b54d5ULL},
      {3, ub::Placement::kCorridor, "always", 6388, 0xf521ec1774978819ULL},
      {3, ub::Placement::kCorridor, "prob", 4825, 0x7d7917ab83624ca5ULL},
      {3, ub::Placement::kCorridor, "threshold", 4650, 0xaa4dc52eba1e3cb1ULL},
  };
  for (const Pin& pin : pins) {
    ub::UbgConfig cfg;
    cfg.n = 1000;
    cfg.dim = pin.dim;
    cfg.placement = pin.placement;
    cfg.seed = 29;
    const std::string policy = pin.policy;
    const auto gray = policy == "always" ? ub::always_connect()
                      : policy == "prob" ? ub::probabilistic(0.5, cfg.seed ^ 0xABCDULL)
                                         : ub::threshold(0.5 * (cfg.alpha + 1.0));
    const ub::UbgInstance inst = ub::make_ubg(cfg, *gray);
    ti::Digest digest;
    for (int u = 0; u < inst.g.n(); ++u) {
      for (const gr::Neighbor& nb : inst.g.neighbors(u)) {
        digest.add(u);
        digest.add(nb.to);
        digest.add(nb.w);
      }
    }
    const std::string cell = std::to_string(pin.dim) + "-d placement " +
                             std::to_string(static_cast<int>(pin.placement)) + " " + policy;
    EXPECT_EQ(inst.g.m(), pin.m) << cell;
    EXPECT_EQ(digest.value(), pin.digest) << cell;
  }
}

TEST(BallVolume, KnownValues) {
  EXPECT_NEAR(ub::ball_volume(2, 1.0), 3.14159265358979, 1e-9);
  EXPECT_NEAR(ub::ball_volume(3, 1.0), 4.18879020478639, 1e-9);
  EXPECT_NEAR(ub::ball_volume(2, 2.0), 4.0 * 3.14159265358979, 1e-9);
  EXPECT_THROW(static_cast<void>(ub::ball_volume(0, 1.0)), std::invalid_argument);
}
