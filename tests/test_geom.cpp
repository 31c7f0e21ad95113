// Unit tests for the geometry substrate: points and the position store,
// angles, θ derivation, Yao cones, and the spatial hash grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geom/cones.hpp"
#include "geom/grid.hpp"
#include "geom/point.hpp"

namespace g = localspan::geom;

TEST(Point, ConstructionAndAccess) {
  g::Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dim(), 3);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
  g::Point origin(4);
  EXPECT_EQ(origin.dim(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(origin[i], 0.0);
}

TEST(Point, RejectsBadDimensions) {
  EXPECT_THROW(g::Point(1), std::invalid_argument);
  EXPECT_THROW(g::Point(g::kMaxDim + 1), std::invalid_argument);
  EXPECT_THROW((g::Point{1.0}), std::invalid_argument);
}

TEST(Point, Equality) {
  EXPECT_EQ((g::Point{1.0, 2.0}), (g::Point{1.0, 2.0}));
  EXPECT_NE((g::Point{1.0, 2.0}), (g::Point{1.0, 2.1}));
  EXPECT_NE((g::Point{1.0, 2.0}), (g::Point{1.0, 2.0, 0.0}));
}

TEST(Distance, KnownValues) {
  EXPECT_DOUBLE_EQ(g::distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(g::sq_distance({0.0, 0.0}, {3.0, 4.0}), 25.0);
  EXPECT_DOUBLE_EQ(g::distance({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}), 0.0);
}

TEST(Distance, SymmetryAndTriangleInequality) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coord(-5.0, 5.0);
  for (int trial = 0; trial < 200; ++trial) {
    g::Point a{coord(rng), coord(rng), coord(rng)};
    g::Point b{coord(rng), coord(rng), coord(rng)};
    g::Point c{coord(rng), coord(rng), coord(rng)};
    EXPECT_DOUBLE_EQ(g::distance(a, b), g::distance(b, a));
    EXPECT_LE(g::distance(a, c), g::distance(a, b) + g::distance(b, c) + 1e-12);
  }
}

TEST(Angle, RightAngle) {
  EXPECT_NEAR(g::angle_at({0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}), std::numbers::pi / 2, 1e-12);
}

TEST(Angle, CollinearAndOpposite) {
  EXPECT_NEAR(g::angle_at({0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(g::angle_at({0.0, 0.0}, {1.0, 0.0}, {-1.0, 0.0}), std::numbers::pi, 1e-12);
}

TEST(Angle, DegenerateThrows) {
  EXPECT_THROW(static_cast<void>(g::angle_at({0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(g::angle_at({0.0, 0.0}, {1.0, 0.0}, {0.0, 0.0})),
               std::invalid_argument);
}

TEST(Angle, InHigherDimensions) {
  // 60 degrees in 3-D.
  EXPECT_NEAR(g::angle_at({0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, {0.5, std::sqrt(3.0) / 2.0, 0.0}),
              std::numbers::pi / 3, 1e-12);
}

TEST(Points, KernelsMatchThePointForms) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(-5.0, 5.0);
  for (const int dim : {2, 3, 5}) {
    g::Points pts(dim);
    for (int i = 0; i < 40; ++i) {
      g::Point p(dim);
      for (int k = 0; k < dim; ++k) p[k] = coord(rng);
      pts.push_back(p);
    }
    ASSERT_EQ(pts.size(), 40);
    for (int u = 0; u + 2 < pts.size(); ++u) {
      const g::Point a = pts[u];
      const g::Point b = pts[u + 1];
      const g::Point c = pts[u + 2];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pts.sq_distance(u, u + 1)),
                std::bit_cast<std::uint64_t>(g::sq_distance(a, b)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pts.distance(u, u + 1)),
                std::bit_cast<std::uint64_t>(g::distance(a, b)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pts.angle_at(u, u + 1, u + 2)),
                std::bit_cast<std::uint64_t>(g::angle_at(a, b, c)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(std::acos(pts.cos_at(u, u + 1, u + 2))),
                std::bit_cast<std::uint64_t>(g::angle_at(a, b, c)));
    }
  }
}

TEST(Points, RejectsBadDimensionsAndMixedRows) {
  EXPECT_THROW(g::Points(1), std::invalid_argument);
  EXPECT_THROW(g::Points(g::kMaxDim + 1), std::invalid_argument);
  EXPECT_THROW(g::Points(2, {1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW((g::Points{{0.0, 0.0}, {0.0, 0.0, 0.0}}), std::invalid_argument);
  g::Points pts(2, {0.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(pts.size(), 2);
  EXPECT_EQ(pts[1], (g::Point{2.0, 3.0}));
  EXPECT_THROW(pts.push_back(g::Point{1.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(pts.set(0, g::Point{1.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(pts.set(2, g::Point{1.0, 1.0}), std::out_of_range);
  // A row of the store itself may be appended.
  pts.push_back(pts.row(0));
  EXPECT_EQ(pts[2], (g::Point{0.0, 1.0}));
}

TEST(Theta, SatisfiesCzumajZhaoPrecondition) {
  for (double t : {1.05, 1.1, 1.25, 1.5, 2.0, 4.0}) {
    const double theta = g::max_theta_for_stretch(t);
    EXPECT_TRUE(g::theta_valid_for_stretch(theta, t)) << "t=" << t << " theta=" << theta;
    EXPECT_GT(theta, 0.0);
    EXPECT_LT(theta, std::numbers::pi / 4);
  }
}

TEST(Theta, MonotoneInT) {
  // Larger stretch budget allows a wider cone.
  EXPECT_LT(g::max_theta_for_stretch(1.1), g::max_theta_for_stretch(1.5));
  EXPECT_LT(g::max_theta_for_stretch(1.5), g::max_theta_for_stretch(3.0));
}

TEST(Theta, RejectsBadInput) {
  EXPECT_THROW(static_cast<void>(g::max_theta_for_stretch(1.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(g::max_theta_for_stretch(0.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(g::max_theta_for_stretch(2.0, 0.0)), std::invalid_argument);
}

TEST(Theta, ValidityCheckerRejectsOutOfRange) {
  EXPECT_FALSE(g::theta_valid_for_stretch(0.0, 2.0));
  EXPECT_FALSE(g::theta_valid_for_stretch(std::numbers::pi / 4, 2.0));
  EXPECT_FALSE(g::theta_valid_for_stretch(0.7, 1.05));  // too wide for small t
}

TEST(YaoCones, SectorAssignment) {
  g::YaoCones2D cones(4);
  g::Point o{0.0, 0.0};
  EXPECT_EQ(cones.sector_of(o, {1.0, 0.1}), 0);
  EXPECT_EQ(cones.sector_of(o, {0.1, 1.0}), 0);  // 84 degrees, still sector [0, 90)
  EXPECT_EQ(cones.sector_of(o, {-1.0, 0.1}), 1);
  EXPECT_EQ(cones.sector_of(o, {-0.1, -1.0}), 2);
  EXPECT_EQ(cones.sector_of(o, {1.0, -0.1}), 3);
}

TEST(YaoCones, EveryDirectionLandsInARange) {
  g::YaoCones2D cones(7);
  g::Point o{0.0, 0.0};
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  for (int i = 0; i < 500; ++i) {
    const double x = coord(rng);
    const double y = coord(rng);
    if (x == 0.0 && y == 0.0) continue;
    const int s = cones.sector_of(o, {x, y});
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 7);
  }
}

TEST(YaoCones, RejectsDegenerate) {
  EXPECT_THROW(g::YaoCones2D(2), std::invalid_argument);
  g::YaoCones2D cones(6);
  EXPECT_THROW(static_cast<void>(cones.sector_of({1.0, 1.0}, {1.0, 1.0})), std::invalid_argument);
}

namespace {

/// All pairs {i, j}, i < j, within `radius`, enumerated the way the static
/// builders do: every vertex indexed in id order, each vertex's neighbors
/// queried, its own id and lower ids skipped.
std::vector<std::pair<int, int>> grid_pairs(const g::Points& pts, double radius) {
  const g::Grid grid(pts, 1.0);
  std::vector<std::pair<int, int>> out;
  for (int i = 0; i < pts.size(); ++i) {
    grid.for_neighbors_within(i, radius, [&](int j, double) {
      if (i < j) out.emplace_back(i, j);
    });
  }
  return out;
}

/// Ids the grid reports within `radius` of vertex v's stored position, sorted.
std::vector<int> ids_near(const g::Grid& grid, int v, double radius) {
  std::vector<int> out;
  grid.for_neighbors_within(v, radius, [&](int j, double) { out.push_back(j); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(Grid, FindsExactlyTheCloseNeighbors) {
  g::Points pts;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> coord(0.0, 5.0);
  for (int i = 0; i < 300; ++i) pts.push_back({coord(rng), coord(rng)});
  // Brute-force cross-check.
  auto got = grid_pairs(pts, 1.0);
  std::vector<std::pair<int, int>> want;
  for (int i = 0; i < 300; ++i) {
    for (int j = i + 1; j < 300; ++j) {
      if (pts.distance(i, j) <= 1.0) want.emplace_back(i, j);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(Grid, WorksInThreeDimensions) {
  g::Points pts(3);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> coord(0.0, 3.0);
  for (int i = 0; i < 200; ++i) pts.push_back({coord(rng), coord(rng), coord(rng)});
  auto got = grid_pairs(pts, 0.8);
  std::vector<std::pair<int, int>> want;
  for (int i = 0; i < 200; ++i) {
    for (int j = i + 1; j < 200; ++j) {
      if (pts.distance(i, j) <= 0.8) want.emplace_back(i, j);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(Grid, RejectsBadQueries) {
  const g::Points pts{{0.0, 0.0}, {1.0, 1.0}};
  const g::Grid grid(pts, 1.0);
  EXPECT_THROW(grid.for_neighbors_within(0, 2.0, [](int, double) {}), std::invalid_argument);
  EXPECT_THROW(g::Grid(pts, 0.0), std::invalid_argument);
  EXPECT_THROW(g::Grid(pts, -1.0), std::invalid_argument);
  // An empty store is a valid, empty grid.
  const g::Points none;
  const g::Grid empty(none, 1.0);
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.dim(), 2);
}

TEST(Grid, NegativeCoordinatesSupported) {
  const g::Points pts{{-0.5, -0.5}, {-0.4, -0.45}, {3.0, 3.0}};
  const g::Grid grid(pts, 1.0);
  EXPECT_EQ(ids_near(grid, 0, 1.0), (std::vector<int>{0, 1}));
}

TEST(Grid, ReportsDistancesAndItsOwnId) {
  const g::Points pts{{0.0, 0.0}, {0.3, 0.4}};
  const g::Grid grid(pts, 1.0);
  std::vector<std::pair<int, double>> got;
  grid.for_neighbors_within(0, 1.0, [&](int j, double d) { got.emplace_back(j, d); });
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, double>{0, 0.0}));
  EXPECT_EQ(got[1].first, 1);
  EXPECT_DOUBLE_EQ(got[1].second, 0.5);
}

TEST(Grid, InsertRemoveAndContains) {
  // Vertex 3 is a query probe: it is removed and stays unindexed.
  g::Points pts{{0.4, 0.2}, {0.2, 0.2}, {3.0, 3.0}, {0.3, 0.2}};
  g::Grid grid(pts, 1.0);
  EXPECT_EQ(grid.dim(), 2);
  EXPECT_DOUBLE_EQ(grid.cell(), 1.0);
  EXPECT_EQ(grid.size(), 4);
  grid.remove(3);
  EXPECT_EQ(grid.size(), 3);
  EXPECT_TRUE(grid.contains(1));
  EXPECT_FALSE(grid.contains(3));
  EXPECT_FALSE(grid.contains(4));
  EXPECT_FALSE(grid.contains(-1));
  EXPECT_EQ(ids_near(grid, 3, 0.5), (std::vector<int>{0, 1}));
  grid.remove(1);
  EXPECT_FALSE(grid.contains(1));
  EXPECT_EQ(grid.size(), 2);
  EXPECT_EQ(ids_near(grid, 3, 0.5), (std::vector<int>{0}));
  // A removed id may be inserted again, anywhere.
  pts.set(1, {3.1, 3.0});
  grid.insert(1);
  EXPECT_EQ(ids_near(grid, 2, 0.5), (std::vector<int>{1, 2}));
  // A row appended to the store after the build is inserted like any other.
  pts.push_back({0.35, 0.2});
  grid.insert(4);
  EXPECT_EQ(ids_near(grid, 3, 0.5), (std::vector<int>{0, 4}));
}

TEST(Grid, BucketsListIdsInInsertionOrder) {
  const g::Points pts{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}};
  g::Grid grid(pts, 1.0);
  for (int id : {4, 1, 3}) grid.remove(id);
  for (int id : {4, 1, 3}) grid.insert(id);
  std::vector<int> order;
  grid.for_neighbors_within(0, 0.1, [&](int j, double) { order.push_back(j); });
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3}));
}

TEST(Grid, MoveWithinAndAcrossCells) {
  // Vertices 2 and 3 are query probes: removed, they stay unindexed.
  g::Points pts{{0.1, 0.1}, {0.9, 0.9}, {0.85, 0.85}, {0.1, 0.1}};
  g::Grid grid(pts, 1.0);
  grid.remove(2);
  grid.remove(3);
  // Within the cell: the new position is what the distance check sees.
  pts.set(0, {0.8, 0.8});
  grid.move(0);
  EXPECT_EQ(ids_near(grid, 2, 0.1), (std::vector<int>{0, 1}));
  EXPECT_TRUE(ids_near(grid, 3, 0.2).empty());
  // Across cells: the id leaves its old bucket and joins the new one.
  pts.set(0, {5.5, 5.5});
  grid.move(0);
  EXPECT_EQ(grid.size(), 2);
  EXPECT_TRUE(grid.contains(0));
  EXPECT_EQ(ids_near(grid, 2, 0.1), (std::vector<int>{1}));
  pts.set(3, {5.4, 5.5});
  EXPECT_EQ(ids_near(grid, 3, 0.2), (std::vector<int>{0}));
  // Back into a shared cell and out to the negative side of an axis.
  pts.set(0, {-0.5, 0.5});
  grid.move(0);
  pts.set(2, {-0.5, 0.5});
  EXPECT_EQ(ids_near(grid, 2, 0.1), (std::vector<int>{0}));
  EXPECT_TRUE(ids_near(grid, 3, 0.2).empty());
}

TEST(Grid, MutationErrorPaths) {
  const g::Points pts{{0.0, 0.0}, {1.0, 1.0}};
  g::Grid grid(pts, 1.0);
  grid.remove(1);
  EXPECT_THROW(grid.insert(0), std::invalid_argument);   // duplicate id
  EXPECT_THROW(grid.insert(-1), std::invalid_argument);  // negative id
  EXPECT_THROW(grid.insert(2), std::invalid_argument);   // no stored position
  EXPECT_THROW(grid.remove(1), std::invalid_argument);   // absent id
  EXPECT_THROW(grid.remove(-3), std::invalid_argument);
  EXPECT_THROW(grid.move(7), std::invalid_argument);     // absent id
  EXPECT_THROW(grid.for_neighbors_within(0, 1.5, [](int, double) {}),
               std::invalid_argument);                   // radius > cell
  // A failed call leaves the grid as it was.
  EXPECT_EQ(grid.size(), 1);
  EXPECT_EQ(ids_near(grid, 0, 1.0), (std::vector<int>{0}));
  grid.remove(0);
  EXPECT_THROW(grid.remove(0), std::invalid_argument);
  EXPECT_EQ(grid.size(), 0);
}
