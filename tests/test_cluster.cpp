// Tests for the cluster machinery: cluster covers (§2.2.1/§3.2.1) and the
// Das-Narasimhan cluster graph with its Lemma 5/6/7/8 guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/cover.hpp"
#include "cluster_reference.hpp"
#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "dijkstra_reference.hpp"
#include "mis_reference.hpp"
#include "runtime/parallel.hpp"
#include "scenario_matrix.hpp"
#include "ubg/generator.hpp"

namespace cl = localspan::cluster;
namespace gr = localspan::graph;
namespace rt = localspan::runtime;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

// ---------------------------------------------------------------------------
// Counting allocator: every operator-new in this binary adds its request
// size to one counter and one to another. The linear-memory and
// allocation-count tests snapshot them around one call.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long long> g_alloc_bytes{0};
std::atomic<long long> g_allocs{0};
}  // namespace

// The replacement operator new allocates with std::malloc, so operator
// delete frees with std::free — GCC's new/delete-pair analysis cannot see
// through the replacement and flags the (correct) pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// A partial-spanner-like graph to cluster: greedy spanner of a UBG.
gr::Graph partial_spanner(std::uint64_t seed, int n = 200) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = 0.7;
  cfg.seed = seed;
  const auto inst = ub::make_ubg(cfg);
  return localspan::core::seq_greedy(inst.g, 1.5);
}

/// The library builds covers and cluster graphs on a frozen CSR snapshot
/// with a caller-owned workspace; these one-off forms give each call its own.
cl::ClusterCover cover_of(const gr::Graph& gp, double radius) {
  gr::DijkstraWorkspace ws(gp.n());
  return cl::sequential_cover(gr::CsrView(gp), radius, ws);
}

cl::ClusterGraph cluster_graph_of(const gr::Graph& gp, const cl::ClusterCover& cover,
                                  double w_prev) {
  gr::DijkstraWorkspace ws(gp.n());
  return cl::build_cluster_graph(gr::CsrView(gp), cover, w_prev, ws);
}

}  // namespace

class CoverRadius : public ::testing::TestWithParam<double> {};

TEST_P(CoverRadius, SequentialCoverIsValid) {
  const gr::Graph gp = partial_spanner(5);
  const cl::ClusterCover cover = cover_of(gp, GetParam());
  EXPECT_TRUE(cl::is_valid_cover(gp, cover));
}

TEST_P(CoverRadius, MisCoverIsValid) {
  const gr::Graph gp = partial_spanner(6);
  gr::DijkstraWorkspace ws;
  const cl::ClusterCover cover =
      cl::mis_cover(gr::CsrView(gp), GetParam(), ws,
                    [](const gr::Graph& j) { return localspan::mis::greedy_mis(j); });
  EXPECT_TRUE(cl::is_valid_cover(gp, cover));
}

INSTANTIATE_TEST_SUITE_P(RadiusSweep, CoverRadius, ::testing::Values(0.02, 0.1, 0.3, 1.0));

namespace {

/// One MIS cover together with the proximity graph J its MIS ran on.
struct MisCoverRun {
  gr::Graph j;
  cl::ClusterCover cover;
};

/// The all-pairs MIS cover the workspace version replaces: one dense
/// bounded Dijkstra row per vertex, J built by scanning every v < u, and
/// dist_to_center read from the center's row. Kept here as the reference
/// the output-sensitive mis_cover must reproduce bit for bit.
MisCoverRun dense_mis_cover(const gr::Graph& gp, double radius) {
  const int n = gp.n();
  MisCoverRun out{gr::Graph(n), {}};
  std::vector<gr::ShortestPaths> balls;
  for (int u = 0; u < n; ++u) {
    balls.push_back(gr::dijkstra_bounded(gp, u, radius));
    for (int v = 0; v < u; ++v) {
      if (balls[static_cast<std::size_t>(u)].dist[static_cast<std::size_t>(v)] <= radius) {
        out.j.add_edge(u, v, 1.0);
      }
    }
  }
  const std::vector<int> independent = localspan::mis::greedy_mis(out.j);
  std::vector<char> in_mis(static_cast<std::size_t>(n), 0);
  for (int c : independent) in_mis[static_cast<std::size_t>(c)] = 1;
  cl::ClusterCover& cover = out.cover;
  cover.radius = radius;
  cover.center_of.assign(static_cast<std::size_t>(n), -1);
  cover.dist_to_center.assign(static_cast<std::size_t>(n), gr::kInf);
  for (int c : independent) {
    cover.center_of[static_cast<std::size_t>(c)] = c;
    cover.dist_to_center[static_cast<std::size_t>(c)] = 0.0;
  }
  for (int v = 0; v < n; ++v) {
    if (in_mis[static_cast<std::size_t>(v)]) continue;
    int best = -1;
    for (const gr::Neighbor& nb : out.j.neighbors(v)) {
      if (in_mis[static_cast<std::size_t>(nb.to)] && nb.to > best) best = nb.to;
    }
    cover.center_of[static_cast<std::size_t>(v)] = best;
    cover.dist_to_center[static_cast<std::size_t>(v)] =
        balls[static_cast<std::size_t>(best)].dist[static_cast<std::size_t>(v)];
  }
  cover.centers = independent;
  std::sort(cover.centers.begin(), cover.centers.end());
  return out;
}

/// mis_cover with greedy_mis, also returning the J it handed to the MIS.
MisCoverRun workspace_mis_cover(const gr::CsrView& gp, double radius, gr::DijkstraWorkspace& ws,
                                  rt::WorkerPool* pool) {
  MisCoverRun out{gr::Graph(0), {}};
  out.cover = cl::mis_cover(
      gp, radius, ws,
      [&](const gr::Graph& j) {
        out.j = j;
        return localspan::mis::greedy_mis(j);
      },
      pool);
  return out;
}

/// Same vertices, same edges, and every adjacency list in the same order
/// (the order J's edges were inserted in).
void expect_same_adjacency(const gr::Graph& want, const gr::Graph& got) {
  ASSERT_EQ(want.n(), got.n());
  ASSERT_EQ(want.m(), got.m());
  for (int v = 0; v < want.n(); ++v) {
    const std::span<const gr::Neighbor> a = want.neighbors(v);
    const std::span<const gr::Neighbor> b = got.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].to, b[k].to) << "vertex " << v << " slot " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].w), std::bit_cast<std::uint64_t>(b[k].w));
    }
  }
}

void expect_same_cover(const cl::ClusterCover& want, const cl::ClusterCover& got) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.radius), std::bit_cast<std::uint64_t>(got.radius));
  EXPECT_EQ(want.center_of, got.center_of);
  EXPECT_EQ(want.centers, got.centers);
  ASSERT_EQ(want.dist_to_center.size(), got.dist_to_center.size());
  for (std::size_t v = 0; v < want.dist_to_center.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want.dist_to_center[v]),
              std::bit_cast<std::uint64_t>(got.dist_to_center[v]))
        << "vertex " << v;
  }
}

}  // namespace

class MisCoverMatrix : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(MisCoverMatrix, MatchesDenseAllPairsReference) {
  const ti::Scenario& sc = GetParam();
  const gr::Graph gp = localspan::core::seq_greedy(sc.make().g, 1.5);
  const gr::CsrView csr(gp);
  gr::DijkstraWorkspace ws;
  rt::WorkerPool pool4(4);
  for (double radius : {0.0, 0.02, 0.1, 0.3, 1.0}) {
    const MisCoverRun want = dense_mis_cover(gp, radius);
    for (rt::WorkerPool* pool : {static_cast<rt::WorkerPool*>(nullptr), &pool4}) {
      SCOPED_TRACE(::testing::Message() << "radius " << radius << " threads "
                                        << (pool == nullptr ? 1 : pool->threads()));
      const MisCoverRun got = workspace_mis_cover(csr, radius, ws, pool);
      expect_same_adjacency(want.j, got.j);
      expect_same_cover(want.cover, got.cover);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Standard, MisCoverMatrix, ::testing::ValuesIn(ti::standard_matrix()),
                         ti::ScenarioName{});

namespace {

/// A fixed adjacency list for CsrView. Unlike graph::Graph it accepts
/// zero-weight edges, which is how two distinct vertices end up at
/// shortest-path distance 0.
struct FixedGraph {
  std::vector<std::vector<gr::Neighbor>> adj;
  int edges = 0;

  explicit FixedGraph(int n) : adj(static_cast<std::size_t>(n)) {}
  void add(int u, int v, double w) {
    adj[static_cast<std::size_t>(u)].push_back({v, w});
    adj[static_cast<std::size_t>(v)].push_back({u, w});
    ++edges;
  }
  [[nodiscard]] int n() const { return static_cast<int>(adj.size()); }
  [[nodiscard]] int m() const { return edges; }
  [[nodiscard]] std::span<const gr::Neighbor> neighbors(int u) const {
    return adj[static_cast<std::size_t>(u)];
  }
};

}  // namespace

TEST(MisCover, ZeroDistancePairsAreJNeighbours) {
  // 0 =0= 1 -0.5- 2 =0= 3: {0,1} and {2,3} sit at distance 0.
  FixedGraph g(4);
  g.add(0, 1, 0.0);
  g.add(1, 2, 0.5);
  g.add(2, 3, 0.0);
  const gr::CsrView csr(g);
  gr::DijkstraWorkspace ws;
  rt::WorkerPool pool4(4);
  for (rt::WorkerPool* pool : {static_cast<rt::WorkerPool*>(nullptr), &pool4}) {
    // Radius 0: J is exactly the two zero-distance pairs, inserted (1,0)
    // then (3,2); greedy MIS {0, 2}; members sit at distance 0.
    const MisCoverRun r0 = workspace_mis_cover(csr, 0.0, ws, pool);
    gr::Graph want0(4);
    want0.add_edge(1, 0, 1.0);
    want0.add_edge(3, 2, 1.0);
    expect_same_adjacency(want0, r0.j);
    EXPECT_EQ(r0.cover.centers, (std::vector<int>{0, 2}));
    EXPECT_EQ(r0.cover.center_of, (std::vector<int>{0, 0, 2, 2}));
    EXPECT_EQ(r0.cover.dist_to_center, (std::vector<double>{0.0, 0.0, 0.0, 0.0}));

    // Radius 0.5: every pair is within 0.5, so J is K4 in (u, v) ascending
    // insertion order; greedy MIS {0}; everyone attaches to 0.
    const MisCoverRun r5 = workspace_mis_cover(csr, 0.5, ws, pool);
    gr::Graph want5(4);
    for (int u = 1; u < 4; ++u) {
      for (int v = 0; v < u; ++v) want5.add_edge(u, v, 1.0);
    }
    expect_same_adjacency(want5, r5.j);
    EXPECT_EQ(r5.cover.centers, (std::vector<int>{0}));
    EXPECT_EQ(r5.cover.center_of, (std::vector<int>{0, 0, 0, 0}));
    EXPECT_EQ(r5.cover.dist_to_center, (std::vector<double>{0.0, 0.0, 0.5, 0.5}));
  }
}

TEST(MisCover, MemoryIsLinearInVerticesPlusJEdges) {
  // The all-pairs version holds one dense n-length row (8-byte dist +
  // 4-byte parent) per vertex: >= 12·n² bytes, ~201 MB at n=4096. The
  // workspace version may request only O(n + |E(J)|).
  constexpr long long kBytesPerItem = 128;
  ub::UbgConfig cfg;
  cfg.n = 4096;
  cfg.alpha = 0.75;
  cfg.seed = 21;
  const ub::UbgInstance inst = ub::make_ubg(cfg);
  const localspan::core::Params params = localspan::core::Params::practical_params(0.5, 0.75);
  const gr::CsrView csr(localspan::core::relaxed_greedy(inst, params).spanner);
  const double radius = 0.5;  // |E(J)| ~ 2n here, so both terms of the bound matter
  gr::DijkstraWorkspace ws(csr.n());
  long long j_edges = 0;
  const auto mis = [&](const gr::Graph& j) {
    j_edges = j.m();
    return localspan::mis::greedy_mis(j);
  };
  static_cast<void>(cl::mis_cover(csr, radius, ws, mis));  // warm the workspace

  const long long before = g_alloc_bytes.load();
  const cl::ClusterCover cover = cl::mis_cover(csr, radius, ws, mis);
  const long long bytes = g_alloc_bytes.load() - before;
  ASSERT_EQ(cover.center_of.size(), static_cast<std::size_t>(csr.n()));
  ASSERT_GT(j_edges, 0);
  EXPECT_LE(bytes, kBytesPerItem * (csr.n() + j_edges))
      << "n=" << csr.n() << " |E(J)|=" << j_edges;
}

TEST(Cover, ZeroRadiusMakesEveryVertexACenter) {
  const gr::Graph gp = partial_spanner(7, 60);
  const cl::ClusterCover cover = cover_of(gp, 0.0);
  EXPECT_EQ(static_cast<int>(cover.centers.size()), gp.n());
}

TEST(Cover, LargerRadiusNeverIncreasesCenters) {
  const gr::Graph gp = partial_spanner(8);
  std::size_t prev = static_cast<std::size_t>(gp.n()) + 1;
  for (double radius : {0.01, 0.05, 0.2, 0.8}) {
    const auto cover = cover_of(gp, radius);
    EXPECT_LE(cover.centers.size(), prev);
    prev = cover.centers.size();
  }
}

TEST(Cover, MembersGroupingIsConsistent) {
  // center_of partitions V into one cluster per listed center.
  const gr::Graph gp = partial_spanner(9, 100);
  const auto cover = cover_of(gp, 0.15);
  std::vector<int> size(static_cast<std::size_t>(gp.n()), 0);
  for (int c : cover.center_of) ++size[static_cast<std::size_t>(c)];
  int total = 0;
  for (int c : cover.centers) {
    EXPECT_EQ(cover.center_of[static_cast<std::size_t>(c)], c);
    EXPECT_GE(size[static_cast<std::size_t>(c)], 1);
    total += size[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(total, gp.n());
}

TEST(Cover, RejectsNegativeRadius) {
  const gr::Graph gp(3);
  EXPECT_THROW(static_cast<void>(cover_of(gp, -1.0)), std::invalid_argument);
}

TEST(Cover, DisconnectedGraphsGetPerComponentClusters) {
  gr::Graph gp(4);  // two disconnected pairs
  gp.add_edge(0, 1, 0.1);
  gp.add_edge(2, 3, 0.1);
  const auto cover = cover_of(gp, 0.5);
  EXPECT_TRUE(cl::is_valid_cover(gp, cover));
  EXPECT_EQ(cover.centers.size(), 2u);
}

TEST(Cover, SkippedSingletonBallsMatchADenseReference) {
  // sequential_cover skips the search for a vertex with no edge of weight
  // <= radius. The cover must equal the plain sweep with a dense bounded
  // Dijkstra from every uncovered vertex, distances bitwise, also when the
  // radius equals an edge weight.
  gr::Graph gp = partial_spanner(11, 150);
  for (int k = 0; k < 5; ++k) gp.add_vertex();  // isolated vertices
  const std::vector<gr::Edge> edges = gp.edges();
  for (const double radius : {0.0, 0.02, 0.05, 0.1, 0.3, edges[7].w, edges[40].w}) {
    const auto cover = cover_of(gp, radius);
    std::vector<int> center_of(static_cast<std::size_t>(gp.n()), -1);
    std::vector<double> dist(static_cast<std::size_t>(gp.n()), gr::kInf);
    std::vector<int> centers;
    for (int u = 0; u < gp.n(); ++u) {
      if (center_of[static_cast<std::size_t>(u)] != -1) continue;
      centers.push_back(u);
      const gr::ShortestPaths sp = gr::dijkstra_bounded(gp, u, radius);
      for (int v = 0; v < gp.n(); ++v) {
        if (center_of[static_cast<std::size_t>(v)] == -1 &&
            sp.dist[static_cast<std::size_t>(v)] <= radius) {
          center_of[static_cast<std::size_t>(v)] = u;
          dist[static_cast<std::size_t>(v)] = sp.dist[static_cast<std::size_t>(v)];
        }
      }
    }
    EXPECT_EQ(cover.centers, centers) << "radius " << radius;
    EXPECT_EQ(cover.center_of, center_of) << "radius " << radius;
    EXPECT_EQ(cover.dist_to_center, dist) << "radius " << radius;
    EXPECT_TRUE(cl::is_valid_cover(gp, cover)) << "radius " << radius;
  }
  // An edge of weight exactly the radius joins the ball; a longer one not.
  gr::Graph path(3);
  path.add_edge(0, 1, 0.5);
  path.add_edge(1, 2, 0.7);
  EXPECT_EQ(cover_of(path, 0.5).center_of, (std::vector<int>{0, 0, 2}));
  EXPECT_EQ(cover_of(path, std::nextafter(0.5, 0.0)).center_of,
            (std::vector<int>{0, 1, 2}));
}

TEST(ClusterGraph, EmptyGraphHasZeroInterDegree) {
  const gr::Graph gp(0);
  const auto cover = cover_of(gp, 0.1);
  const auto cg = cluster_graph_of(gp, cover, 1.0);
  EXPECT_EQ(cg.h.n(), 0);
  EXPECT_EQ(cg.max_inter_degree, 0);
  EXPECT_EQ(cg.inter_edges + cg.intra_edges, 0);
}

TEST(ClusterGraph, IntraEdgesMatchCoverDistances) {
  const gr::Graph gp = partial_spanner(10);
  const double radius = 0.1;
  const auto cover = cover_of(gp, radius);
  const auto cg = cluster_graph_of(gp, cover, radius / 0.05);
  for (int v = 0; v < gp.n(); ++v) {
    const int a = cover.center_of[static_cast<std::size_t>(v)];
    if (a == v) continue;
    const std::span<const gr::Neighbor> row = cg.h.neighbors(a);
    const auto it = std::find_if(row.begin(), row.end(),
                                 [&](const gr::Neighbor& nb) { return nb.to == v; });
    ASSERT_NE(it, row.end());
    EXPECT_NEAR(it->w, std::max(cover.dist_to_center[static_cast<std::size_t>(v)], 1e-15), 1e-9);
  }
}

TEST(ClusterGraph, Lemma5InterClusterWeightBound) {
  // Lemma 5's premise: every edge of G'_{i-1} was processed in an earlier
  // bin, i.e. has weight <= W_{i-1}. Filter accordingly.
  const gr::Graph full = partial_spanner(11);
  const double w_prev = 0.3;
  gr::Graph gp(full.n());
  for (const gr::Edge& e : full.edges()) {
    if (e.w <= w_prev) gp.add_edge(e.u, e.v, e.w);
  }
  const double delta = 0.2;
  const auto cover = cover_of(gp, delta * w_prev);
  const auto cg = cluster_graph_of(gp, cover, w_prev);
  EXPECT_LE(cg.max_inter_weight, (2.0 * delta + 1.0) * w_prev + 1e-9);
}

TEST(ClusterGraph, GeneralizedInterWeightBoundWithLongEdges) {
  // Outside the paper's premise (e.g. long phase-0 clique edges in G'),
  // inter-cluster weights are still bounded by 2·radius + longest edge.
  const gr::Graph gp = partial_spanner(11);
  const double w_prev = 0.3;
  const double delta = 0.2;
  double max_edge = 0.0;
  for (const gr::Edge& e : gp.edges()) max_edge = std::max(max_edge, e.w);
  const auto cover = cover_of(gp, delta * w_prev);
  const auto cg = cluster_graph_of(gp, cover, w_prev);
  EXPECT_LE(cg.max_inter_weight, 2.0 * delta * w_prev + max_edge + 1e-9);
}

TEST(ClusterGraph, Lemma6InterDegreeIsSmall) {
  // Inter-cluster degree should be bounded by a constant independent of n.
  for (int n : {100, 200, 400}) {
    const gr::Graph gp = partial_spanner(12, n);
    const double w_prev = 0.25;
    const auto cover = cover_of(gp, 0.1 * w_prev);
    const auto cg = cluster_graph_of(gp, cover, w_prev);
    EXPECT_LE(cg.max_inter_degree, 64) << "n=" << n;
  }
}

TEST(ClusterGraph, Lemma7PathApproximation) {
  // For edges {x,y} with w in (W, rW], H-paths exist with length within
  // (1+6δ)/(1−2δ) of the G'-shortest path, and never shorter.
  const gr::Graph gp = partial_spanner(13);
  const double w_prev = 0.3;
  const double delta = 0.1;
  const auto cover = cover_of(gp, delta * w_prev);
  const auto cg = cluster_graph_of(gp, cover, w_prev);
  const double ratio = (1.0 + 6.0 * delta) / (1.0 - 2.0 * delta);
  gr::DijkstraWorkspace ws;
  int checked = 0;
  for (int x = 0; x < gp.n() && checked < 200; x += 3) {
    const gr::ShortestPaths in_gp = gr::dijkstra(gp, x);
    const gr::SpView in_h = ws.bounded(cg.h, x, gr::kInf);
    for (int y = 0; y < gp.n(); y += 7) {
      if (x == y) continue;
      const double l1 = in_gp.dist[static_cast<std::size_t>(y)];
      // Lemma 7 is stated for query-edge distances; restrict to the relevant
      // scale (longer than the cluster diameter, bounded by a few W).
      if (l1 == gr::kInf || l1 < 2.0 * delta * w_prev || l1 > 3.0 * w_prev) continue;
      const double l2 = in_h.dist(y);
      ASSERT_NE(l2, gr::kInf) << "H must connect what G' connects at this scale";
      EXPECT_GE(l2, l1 - 1e-9);                  // H never underestimates
      EXPECT_LE(l2, ratio * l1 + 1e-9) << l1;    // Lemma 7 upper bound
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(ClusterGraph, Lemma8QueriesHaveConstantHops) {
  const gr::Graph gp = partial_spanner(14);
  const double w_prev = 0.3;
  const double delta = 0.1;
  const double t = 1.5;
  const double r = 1.3;
  const auto cover = cover_of(gp, delta * w_prev);
  const auto cg = cluster_graph_of(gp, cover, w_prev);
  const int hop_cap = 2 + static_cast<int>(std::ceil(t * r / delta));
  gr::DijkstraWorkspace ws;
  for (int x = 0; x < gp.n(); x += 5) {
    for (int y = 0; y < gp.n(); y += 11) {
      if (x == y) continue;
      // Only query-edge-like pairs: Euclidean-scale weight in (W, rW].
      int hops = -1;
      const double bound = t * r * w_prev;
      const double d = cl::query_on_h(ws, cg.h, x, y, bound, &hops);
      if (d == gr::kInf) continue;
      EXPECT_LE(hops, hop_cap);
    }
  }
}

TEST(ClusterGraph, QueryOnHRespectsBound) {
  gr::Graph h(3);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  const gr::CsrView csr(h);
  gr::DijkstraWorkspace ws;
  int hops = -1;
  EXPECT_EQ(cl::query_on_h(ws, csr, 0, 2, 1.5, &hops), gr::kInf);
  EXPECT_EQ(hops, -1);
  EXPECT_DOUBLE_EQ(cl::query_on_h(ws, csr, 0, 2, 2.5, &hops), 2.0);
  EXPECT_EQ(hops, 2);
}

TEST(ClusterGraph, RejectsBadWPrev) {
  const gr::Graph gp(3);
  const auto cover = cover_of(gp, 0.1);
  EXPECT_THROW(static_cast<void>(cluster_graph_of(gp, cover, 0.0)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// H as a frozen CSR: row for row the graph the edge-by-edge build gives
// ---------------------------------------------------------------------------

namespace {

/// Every row of `cg.h` equals the reference row (ids, order, weight bits),
/// and the structural counters agree.
void expect_same_h(const cl::ClusterGraph& cg, const cl::ReferenceClusterGraph& ref,
                   const std::string& where) {
  EXPECT_EQ(cl::row_mismatch(cg.h, ref.h), "") << where;
  EXPECT_EQ(cg.intra_edges, ref.intra_edges) << where;
  EXPECT_EQ(cg.inter_edges, ref.inter_edges) << where;
  EXPECT_EQ(cg.max_inter_degree, ref.max_inter_degree) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cg.max_inter_weight),
            std::bit_cast<std::uint64_t>(ref.max_inter_weight))
      << where;
}

}  // namespace

class ClusterGraphMatrix : public ::testing::TestWithParam<ti::Scenario> {};

TEST_P(ClusterGraphMatrix, CsrRowsMatchTheGraphBuild) {
  // G'_{i-1} stand-ins: the relaxed-greedy spanner at several scales, and
  // the UBG's edges up to 0.3 at W_{i-1} = 0.1, whose longer crossing edges
  // leave the per-center balls and take the widened retries.
  const ub::UbgInstance inst = GetParam().make();
  const gr::Graph spanner =
      localspan::core::relaxed_greedy(
          inst, localspan::core::Params::practical_params(0.5, inst.config.alpha))
          .spanner;
  gr::Graph short_edges(inst.g.n());
  for (const gr::Edge& e : inst.g.edges()) {
    if (e.w <= 0.3) short_edges.add_edge(e.u, e.v, e.w);
  }
  rt::WorkerPool one(1);
  rt::WorkerPool four(4);
  gr::DijkstraWorkspace ws;
  for (const gr::Graph* gp : {static_cast<const gr::Graph*>(&short_edges), &spanner}) {
    const gr::CsrView csr(*gp);
    for (const double w_prev : {0.1, 0.25, 0.5}) {
      if (gp == &short_edges && w_prev > 0.1) break;
      for (const double delta : {0.05, 0.3}) {
        const cl::ClusterCover cover = cl::sequential_cover(csr, delta * w_prev, ws);
        const cl::ReferenceClusterGraph ref = cl::reference_cluster_graph(csr, cover, w_prev);
        if (gp == &short_edges) {
          EXPECT_GT(ref.retries, 0);
        }
        for (rt::WorkerPool* pool : {static_cast<rt::WorkerPool*>(nullptr), &one, &four}) {
          const std::string where = std::string(gp == &spanner ? "spanner" : "short UBG edges") +
                                    " w_prev=" + std::to_string(w_prev) +
                                    " delta=" + std::to_string(delta) +
                                    " threads=" + std::to_string(pool ? pool->threads() : 0);
          expect_same_h(cl::build_cluster_graph(csr, cover, w_prev, ws, pool), ref, where);
        }
      }
    }
  }
}

namespace {

ti::MatrixSpec all_placements() {
  ti::MatrixSpec spec;
  spec.placements = {ub::Placement::kUniform, ub::Placement::kClustered,
                     ub::Placement::kCorridor};
  return spec;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Placements, ClusterGraphMatrix,
                         ::testing::ValuesIn(ti::scenario_matrix(all_placements())),
                         ti::ScenarioName{});

TEST(ClusterGraph, RetriedCrossingEdgesMatchTheGraphBuild) {
  // Crossing edges far longer than the (2δ+1)·W_{i-1} reach leave the
  // per-center ball and are committed by the widened retries, after every
  // center's harvest.
  gr::Graph gp(4);
  gp.add_edge(0, 1, 5.0);
  gp.add_edge(0, 2, 0.3);
  gp.add_edge(2, 3, 4.0);
  gp.add_edge(1, 3, 6.0);
  gp.add_edge(1, 2, 5.5);
  const gr::CsrView csr(gp);
  gr::DijkstraWorkspace ws;
  rt::WorkerPool four(4);
  // Singletons: only {0, 2} is within reach; the other four edges retry.
  const cl::ClusterCover singletons = cl::sequential_cover(csr, 0.1, ws);
  ASSERT_EQ(singletons.centers.size(), 4u);
  const cl::ReferenceClusterGraph ref = cl::reference_cluster_graph(csr, singletons, 0.2);
  EXPECT_EQ(ref.retries, 4);
  EXPECT_EQ(ref.inter_edges, 5);
  for (rt::WorkerPool* pool : {static_cast<rt::WorkerPool*>(nullptr), &four}) {
    expect_same_h(cl::build_cluster_graph(csr, singletons, 0.2, ws, pool), ref, "singletons");
  }
  // Cluster {0, 2}: members 0 and 2 both cross into {1}, so that pair is
  // queued twice and committed once, after 2's crossing into {3}.
  const cl::ClusterCover merged = cl::sequential_cover(csr, 0.35, ws);
  ASSERT_EQ(merged.centers, (std::vector<int>{0, 1, 3}));
  const cl::ReferenceClusterGraph ref_merged = cl::reference_cluster_graph(csr, merged, 0.2);
  EXPECT_EQ(ref_merged.retries, 4);
  EXPECT_EQ(ref_merged.inter_edges, 3);
  for (rt::WorkerPool* pool : {static_cast<rt::WorkerPool*>(nullptr), &four}) {
    expect_same_h(cl::build_cluster_graph(csr, merged, 0.2, ws, pool), ref_merged, "merged");
  }
}

TEST(ClusterGraph, WarmBuildAllocationsDoNotGrowWithN) {
  // The build keeps no per-vertex vector: it allocates a fixed set of flat
  // buffers, plus the few doublings of the per-center harvest buffers, so
  // the count stays under one cap from n=512 to n=8192.
  constexpr long long kMaxAllocs = 20;
  const localspan::core::Params params = localspan::core::Params::practical_params(0.5, 0.75);
  const double w_prev = 0.25;
  for (const int n : {512, 8192}) {
    ub::UbgConfig cfg;
    cfg.n = n;
    cfg.alpha = 0.75;
    cfg.seed = 5;
    const ub::UbgInstance inst = ub::make_ubg(cfg);
    // Lemma 5's premise: G'_{i-1} has only edges of weight <= W_{i-1}.
    gr::Graph gp(n);
    for (const gr::Edge& e : localspan::core::relaxed_greedy(inst, params).spanner.edges()) {
      if (e.w <= w_prev) gp.add_edge(e.u, e.v, e.w);
    }
    const gr::CsrView csr(gp);
    gr::DijkstraWorkspace ws;
    const cl::ClusterCover cover = cl::sequential_cover(csr, 0.1 * w_prev, ws);
    static_cast<void>(cl::build_cluster_graph(csr, cover, w_prev, ws));  // warm the workspace
    const long long before = g_allocs.load();
    const cl::ClusterGraph cg = cl::build_cluster_graph(csr, cover, w_prev, ws);
    const long long allocs = g_allocs.load() - before;
    ASSERT_GT(cg.inter_edges, n / 4);
    EXPECT_LE(allocs, kMaxAllocs) << "n=" << n;
  }
}
