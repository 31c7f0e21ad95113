#include "serve/oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/components.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::serve {

namespace {

struct OracleMetrics {
  obs::MetricId build = obs::span_id("serve.oracle_build");
  obs::MetricId entries = obs::counter_id("serve.label_entries");
  obs::MetricId ball = obs::histogram_id("serve.label_ball_size");
};

const OracleMetrics& oracle_metrics() {
  static const OracleMetrics m;
  return m;
}

double max_edge_weight(const graph::CsrView& csr) {
  double wmax = 0.0;
  for (int u = 0; u < csr.n(); ++u) {
    for (const graph::Neighbor& nb : csr.neighbors(u)) {
      if (nb.w > wmax) wmax = nb.w;
    }
  }
  return wmax;
}

/// One level: its radius, the sweep's coverage marks, every center's ball
/// in ascending center order, the center count and the laid-out labels.
struct Level {
  double radius = 0.0;
  std::vector<char> covered;
  std::vector<graph::BallEntry> balls;
  int centers = 0;
  graph::LandmarkLabels labels;
};

/// Level ℓ in one pass: the §2.2.1 sequential cover at radius r = r_ℓ,
/// sweeping vertices in id order. A still-uncovered vertex becomes a center
/// and runs one bounded search at the label reach β·r; every vertex it
/// touches joins its ball (a label entry), and the ones within r are covered.
///
/// This is the cover a radius-r search per center would give, with the
/// labels a second radius-β·r search would give. A settled distance does
/// not depend on the radius at which the search stops: a path whose
/// (rounded, monotone) sum is ≤ r has every prefix ≤ r, so the vertices
/// within r and their distances are the same in both searches; only their
/// settle order may differ, and absorption does not depend on it. The level
/// is a pure function of (csr, r, β), so levels can be built on any worker.
void build_level(const graph::CsrView& csr, double beta, graph::DijkstraWorkspace& ws,
                 Level& level) {
  const int n = csr.n();
  level.covered.assign(static_cast<std::size_t>(n), 0);
  level.balls.clear();
  // Centers are more than r apart, so a vertex has a bounded number of them
  // within β·r: a capacity proportional to n rarely grows.
  level.balls.reserve(8 * static_cast<std::size_t>(n));
  level.centers = 0;
  for (int u = 0; u < n; ++u) {
    if (level.covered[static_cast<std::size_t>(u)] != 0) continue;
    ++level.centers;
    const graph::SpView sp = ws.bounded(csr, u, beta * level.radius);
    for (int v : sp.touched()) {
      const double d = sp.dist(v);
      level.balls.push_back({u, v, d});
      if (d <= level.radius) level.covered[static_cast<std::size_t>(v)] = 1;
    }
  }
  level.labels.assign(n, level.balls);
}

}  // namespace

void RoutingOracle::build(const graph::CsrView& csr, const OracleConfig& cfg,
                          graph::DijkstraWorkspace& ws, runtime::WorkerPool* pool) {
  if (cfg.level_ratio <= 1.0) throw std::invalid_argument("RoutingOracle: level_ratio must be > 1");
  if (cfg.label_reach < 2.0) throw std::invalid_argument("RoutingOracle: label_reach must be >= 2");
  if (cfg.max_levels < 1) throw std::invalid_argument("RoutingOracle: max_levels must be >= 1");
  const obs::Span span(oracle_metrics().build);

  n_ = csr.n();
  radii_.clear();
  labels_.clear();
  truncated_ = false;

  double r0 = cfg.base_radius;
  if (r0 <= 0.0) {
    r0 = max_edge_weight(csr);
    if (r0 <= 0.0) r0 = 1.0;  // edgeless snapshot; any positive scale works
  }
  base_radius_ = r0;
  stretch_bound_ = 1.0 + 2.0 * cfg.level_ratio / (cfg.label_reach - 1.0);
  near_threshold_ = (cfg.label_reach + 1.0) * r0;
  if (n_ == 0) return;

  // Levels r_ℓ = r_0·σ^ℓ, bottom-up, until one has a center per component
  // (coarser levels cannot merge further) or max_levels is hit. With a pool,
  // a wave of threads() levels is built at once, one per worker, and
  // committed in level order; the levels of a wave past the first complete
  // one are dropped, so the result is the serial one at every thread count.
  const int components = graph::connected_components(csr).count;
  const int wave = pool != nullptr ? pool->threads() : 1;
  std::vector<Level> levels(static_cast<std::size_t>(wave));
  double radius = r0;
  bool complete = false;
  for (int first = 0; first < cfg.max_levels && !complete; first += wave) {
    const int count = std::min(wave, cfg.max_levels - first);
    for (int i = 0; i < count; ++i, radius *= cfg.level_ratio) {
      levels[static_cast<std::size_t>(i)].radius = radius;
    }
    runtime::for_each_with_workspace(pool, ws, 0, count, [&](graph::DijkstraWorkspace& wws, int i) {
      build_level(csr, cfg.label_reach, wws, levels[static_cast<std::size_t>(i)]);
    });
    for (int i = 0; i < count && !complete; ++i) {
      Level& level = levels[static_cast<std::size_t>(i)];
      radii_.push_back(level.radius);
      labels_.push_back(std::move(level.labels));
      obs::counter_add(oracle_metrics().entries, labels_.back().total_entries());
      for (std::size_t b = 0, e = 0; obs::enabled() && b < level.balls.size(); b = e) {
        while (e < level.balls.size() && level.balls[e].center == level.balls[b].center) ++e;
        obs::histogram_record(oracle_metrics().ball, static_cast<std::int64_t>(e - b));
      }
      complete = level.centers == components;
    }
  }
  truncated_ = !complete;
}

double RoutingOracle::estimate(int u, int v) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) {
    throw std::invalid_argument("RoutingOracle::estimate: vertex out of range");
  }
  if (u == v) return 0.0;
  double best = graph::kInf;
  for (const graph::LandmarkLabels& lab : labels_) {
    const double via = graph::min_common_distance(lab.at(u), lab.at(v));
    if (via < best) best = via;
  }
  return best;
}

long long RoutingOracle::total_label_entries() const noexcept {
  long long total = 0;
  for (const graph::LandmarkLabels& lab : labels_) total += lab.total_entries();
  return total;
}

}  // namespace localspan::serve
