#include "graph/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "graph/mst.hpp"
#include "obs/obs.hpp"

namespace localspan::graph {

/// Probe radius of the first search, in units of w_max(u). Every spanner
/// the registry emits has edge ratios <= t <= 2 (ε <= 1), so the wide
/// cap·w_max(u) search never runs on that traffic.
constexpr double kProbe = 2.0;

double max_edge_stretch(const Graph& g, const Graph& sub, double cap, runtime::WorkerPool* pool) {
  if (g.n() != sub.n()) throw std::invalid_argument("max_edge_stretch: vertex count mismatch");
  if (g.m() == 0) return 1.0;
  static const obs::MetricId vertices_id = obs::counter_id("stretch.vertices");
  static const obs::MetricId widened_id = obs::counter_id("stretch.widened");
  static const obs::MetricId heap_pops_id = obs::counter_id("stretch.heap_pops");
  DijkstraWorkspace ws(g.n());
  static_cast<void>(runtime::take_heap_ops(ws, pool));  // drop earlier searches' tallies
  const WitnessPass pass =
      witness_stretch(g, CsrView(sub), {}, std::min(kProbe, cap), cap, ws, pool);
  obs::counter_add(vertices_id, g.n());
  obs::counter_add(widened_id, pass.widened);
  obs::counter_add(heap_pops_id, runtime::take_heap_ops(ws, pool).second);
  return std::min(cap, pass.worst);
}

std::int64_t quantile_index(std::int64_t count, double q) {
  if (count <= 0) return -1;
  const auto raw = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))) - 1;
  return std::min(count - 1, std::max<std::int64_t>(0, raw));
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats st;
  if (g.n() == 0) return st;
  std::vector<int> deg(static_cast<std::size_t>(g.n()));
  long long sum = 0;
  for (int v = 0; v < g.n(); ++v) {
    deg[static_cast<std::size_t>(v)] = g.degree(v);
    sum += deg[static_cast<std::size_t>(v)];
  }
  std::sort(deg.begin(), deg.end());
  st.max = deg.back();
  st.mean = static_cast<double>(sum) / g.n();
  st.p99 = deg[static_cast<std::size_t>(
      std::max<std::int64_t>(0, quantile_index(static_cast<std::int64_t>(deg.size()), 0.99)))];
  return st;
}

double lightness(const Graph& g, const Graph& sub) {
  const double base = msf_weight(g);
  if (base == 0.0) return sub.total_weight() == 0.0 ? 1.0 : kInf;
  return sub.total_weight() / base;
}

double power_cost(const Graph& g) {
  double total = 0.0;
  for (int v = 0; v < g.n(); ++v) {
    double mx = 0.0;
    for (const Neighbor& nb : g.neighbors(v)) mx = std::max(mx, nb.w);
    total += mx;
  }
  return total;
}

namespace {

/// RHS of the leapfrog inequality (paper eq. (6)) for one concrete cyclic
/// arrangement: oriented edges (a_i, b_i), i = 0..s-1, with edge 0 the
/// distinguished longest edge.
double leapfrog_rhs(const std::vector<std::pair<int, int>>& arr,
                    const std::function<double(int, int)>& pts_dist, double t) {
  double mids = 0.0;
  double links = 0.0;
  for (std::size_t i = 1; i < arr.size(); ++i) mids += pts_dist(arr[i].first, arr[i].second);
  for (std::size_t i = 0; i + 1 < arr.size(); ++i) {
    links += pts_dist(arr[i].second, arr[i + 1].first);
  }
  links += pts_dist(arr.back().second, arr[0].first);
  return mids + t * links;
}

}  // namespace

std::int64_t leapfrog_violations(const Graph& sub, const std::function<double(int, int)>& pts_dist,
                                 double t2, double t, std::int64_t trials, std::uint64_t seed) {
  const std::vector<Edge> es = sub.edges();
  if (es.size() < 2) return 0;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, es.size() - 1);
  std::uniform_int_distribution<int> subset_size(2, 6);
  std::int64_t violations = 0;
  for (std::int64_t trial = 0; trial < trials; ++trial) {
    const int s = std::min<int>(subset_size(rng), static_cast<int>(es.size()));
    std::vector<Edge> sset;
    while (static_cast<int>(sset.size()) < s) {
      const Edge& e = es[pick(rng)];
      const bool dup = std::any_of(sset.begin(), sset.end(), [&](const Edge& f) {
        return f.u == e.u && f.v == e.v;
      });
      if (!dup) sset.push_back(e);
    }
    // The property quantifies over arbitrary labelings: eq. (6) must hold
    // for EVERY ordering/orientation with the longest edge distinguished.
    // Minimize the RHS over sampled arrangements; a violation is found when
    // some arrangement has t2·|u1v1| >= RHS.
    auto longest = std::max_element(sset.begin(), sset.end(), [&](const Edge& a, const Edge& b) {
      return pts_dist(a.u, a.v) < pts_dist(b.u, b.v);
    });
    std::iter_swap(sset.begin(), longest);
    const double lhs = t2 * pts_dist(sset[0].u, sset[0].v);
    double min_rhs = kInf;
    std::vector<int> order(sset.size() - 1);
    for (std::size_t i = 0; i + 1 < sset.size(); ++i) order[i] = static_cast<int>(i + 1);
    const int arrangement_samples = 64;
    std::vector<std::pair<int, int>> arr(sset.size());
    for (int a = 0; a < arrangement_samples; ++a) {
      std::shuffle(order.begin(), order.end(), rng);
      const std::uint64_t flips = rng();
      arr[0] = (flips & 1) ? std::pair(sset[0].v, sset[0].u) : std::pair(sset[0].u, sset[0].v);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const Edge& e = sset[static_cast<std::size_t>(order[i])];
        arr[i + 1] = (flips >> (i + 1)) & 1 ? std::pair(e.v, e.u) : std::pair(e.u, e.v);
      }
      min_rhs = std::min(min_rhs, leapfrog_rhs(arr, pts_dist, t));
      if (lhs >= min_rhs) break;
    }
    if (lhs >= min_rhs) ++violations;
  }
  return violations;
}

double doubling_dimension_estimate(const std::vector<std::vector<double>>& dist, int ball_samples,
                                   std::uint64_t seed) {
  const int n = static_cast<int>(dist.size());
  if (n == 0) return 0.0;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  int worst_cover = 1;
  for (int s = 0; s < ball_samples; ++s) {
    const int x = pick(rng);
    // Radius: distance to a random other point (spreads scales).
    const int y = pick(rng);
    const double radius = dist[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)];
    if (radius <= 0.0 || radius == kInf) continue;
    std::vector<int> ball;
    for (int v = 0; v < n; ++v) {
      if (dist[static_cast<std::size_t>(x)][static_cast<std::size_t>(v)] <= radius) ball.push_back(v);
    }
    // Greedy cover of the ball with radius/2 balls.
    std::vector<bool> covered(ball.size(), false);
    int centers = 0;
    for (std::size_t i = 0; i < ball.size(); ++i) {
      if (covered[i]) continue;
      ++centers;
      const int c = ball[i];
      for (std::size_t j = 0; j < ball.size(); ++j) {
        if (dist[static_cast<std::size_t>(c)][static_cast<std::size_t>(ball[j])] <= radius / 2.0) {
          covered[j] = true;
        }
      }
    }
    worst_cover = std::max(worst_cover, centers);
  }
  return std::log2(static_cast<double>(worst_cover));
}

}  // namespace localspan::graph
