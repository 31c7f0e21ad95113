// Tests for the split tree, WSPD, and the WSPD spanner (§1.4 reference
// construction, Callahan–Kosaraju).
#include <gtest/gtest.h>

#include <random>

#include "dijkstra_reference.hpp"
#include "wspd/wspd.hpp"

namespace gm = localspan::geom;
namespace gr = localspan::graph;
namespace ws = localspan::wspd;

namespace {

gm::Points random_points(int n, std::uint64_t seed, int dim = 2) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  gm::Points pts(dim);
  for (int i = 0; i < n; ++i) {
    gm::Point p(dim);
    for (int k = 0; k < dim; ++k) p[k] = coord(rng);
    pts.push_back(p);
  }
  return pts;
}

}  // namespace

TEST(SplitTree, PartitionsPointsExactly) {
  const auto pts = random_points(120, 1);
  const ws::SplitTree tree(pts);
  // Every internal node's children partition its point set.
  for (int i = 0; i < tree.size(); ++i) {
    const auto& nd = tree.node(i);
    if (nd.leaf()) continue;
    const auto& l = tree.node(nd.left);
    const auto& r = tree.node(nd.right);
    EXPECT_EQ(l.points.size() + r.points.size(), nd.points.size());
    EXPECT_FALSE(l.points.empty());
    EXPECT_FALSE(r.points.empty());
  }
  EXPECT_EQ(tree.node(tree.root()).points.size(), static_cast<std::size_t>(pts.size()));
}

TEST(SplitTree, BoundingBoxesAreTight) {
  const auto pts = random_points(60, 2);
  const ws::SplitTree tree(pts);
  for (int i = 0; i < tree.size(); ++i) {
    const auto& nd = tree.node(i);
    for (int p : nd.points) {
      for (int k = 0; k < 2; ++k) {
        EXPECT_GE(pts[p][k], nd.lo[k] - 1e-12);
        EXPECT_LE(pts[p][k], nd.hi[k] + 1e-12);
      }
    }
  }
}

TEST(SplitTree, LeavesAreSingletonsOrCoincident) {
  auto pts = random_points(50, 3);
  pts.push_back(pts.row(0));  // duplicate point: coincident-leaf path
  const ws::SplitTree tree(pts);
  for (int i = 0; i < tree.size(); ++i) {
    const auto& nd = tree.node(i);
    if (!nd.leaf()) continue;
    if (nd.points.size() > 1) {
      // Degenerate leaf: all points coincide.
      for (int p : nd.points) {
        EXPECT_EQ(pts[p], pts[nd.points[0]]);
      }
    }
  }
  EXPECT_THROW(ws::SplitTree({}), std::invalid_argument);
}

TEST(SplitTree, BoxDistanceIsALowerBound) {
  const auto pts = random_points(40, 4);
  const ws::SplitTree tree(pts);
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<int> pick(0, tree.size() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    const int a = pick(rng);
    const int b = pick(rng);
    double min_pair = 1e300;
    for (int p : tree.node(a).points) {
      for (int q : tree.node(b).points) {
        min_pair = std::min(min_pair, pts.distance(p, q));
      }
    }
    EXPECT_LE(tree.box_distance(a, b), min_pair + 1e-12);
  }
}

TEST(Wspd, CoversEveryPairExactlyOnce) {
  // The defining property of a WSPD: every unordered pair of distinct points
  // appears in exactly one (A,B) pair.
  const auto pts = random_points(48, 5);
  const ws::SplitTree tree(pts);
  const auto pairs = ws::well_separated_pairs(tree, 2.0);
  std::vector<std::vector<int>> count(pts.size(), std::vector<int>(pts.size(), 0));
  for (const ws::WsPair& pr : pairs) {
    for (int p : tree.node(pr.a).points) {
      for (int q : tree.node(pr.b).points) {
        ++count[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)];
        ++count[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)];
      }
    }
  }
  for (std::size_t p = 0; p < count.size(); ++p) {
    for (std::size_t q = 0; q < count.size(); ++q) {
      EXPECT_EQ(count[p][q], p == q ? 0 : 1) << p << "," << q;
    }
  }
}

TEST(Wspd, PairsAreActuallySeparated) {
  const auto pts = random_points(64, 6);
  const ws::SplitTree tree(pts);
  const double s = 3.0;
  for (const ws::WsPair& pr : ws::well_separated_pairs(tree, s)) {
    const double r = std::max(tree.radius(pr.a), tree.radius(pr.b));
    if (r == 0.0) continue;  // coincident-leaf degenerate pair
    EXPECT_GE(tree.box_distance(pr.a, pr.b), s * r - 1e-12);
  }
}

TEST(Wspd, LinearSizeForFixedSeparation) {
  // O(s^d n) pairs: the pairs-to-points ratio should stay bounded as n grows.
  const double s = 2.0;
  double prev_ratio = 0.0;
  for (int n : {100, 200, 400, 800}) {
    const auto pts = random_points(n, 7);
    const ws::SplitTree tree(pts);
    const double ratio =
        static_cast<double>(ws::well_separated_pairs(tree, s).size()) / n;
    if (prev_ratio > 0.0) {
      EXPECT_LT(ratio, prev_ratio * 1.5) << n;
    }
    prev_ratio = ratio;
    EXPECT_LT(ratio, 40.0);
  }
}

class WspdSpanner : public ::testing::TestWithParam<double> {};

TEST_P(WspdSpanner, StretchHoldsOnCompleteGraph) {
  const double t = GetParam();
  const auto pts = random_points(90, 8);
  const gr::Graph spanner = ws::wspd_spanner(pts, t);
  // t-spanner of the COMPLETE Euclidean graph: check all pairs.
  for (int u = 0; u < static_cast<int>(pts.size()); ++u) {
    const gr::ShortestPaths sp = gr::dijkstra(spanner, u);
    for (int v = u + 1; v < static_cast<int>(pts.size()); ++v) {
      const double direct = pts.distance(u, v);
      EXPECT_LE(sp.dist[static_cast<std::size_t>(v)], t * direct + 1e-9)
          << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TSweep, WspdSpanner, ::testing::Values(1.5, 2.0, 3.0));

TEST(WspdSpannerBasics, SizeAndValidation) {
  const auto pts = random_points(300, 9);
  const gr::Graph spanner = ws::wspd_spanner(pts, 2.0);
  EXPECT_LT(spanner.m(), 60 * 300);  // linear size, generous constant
  EXPECT_THROW(static_cast<void>(ws::wspd_spanner(pts, 1.0)), std::invalid_argument);
  const ws::SplitTree tree(pts);
  EXPECT_THROW(static_cast<void>(ws::well_separated_pairs(tree, 0.0)), std::invalid_argument);
}

TEST(WspdSpannerBasics, WorksInThreeDimensions) {
  const auto pts = random_points(70, 10, 3);
  const gr::Graph spanner = ws::wspd_spanner(pts, 2.0);
  for (int u = 0; u < 70; u += 5) {
    const gr::ShortestPaths sp = gr::dijkstra(spanner, u);
    for (int v = 0; v < 70; v += 7) {
      if (u == v) continue;
      const double direct = pts.distance(u, v);
      EXPECT_LE(sp.dist[static_cast<std::size_t>(v)], 2.0 * direct + 1e-9);
    }
  }
}
