#include "serve/oracle.hpp"

#include <stdexcept>
#include <utility>

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

  const cluster::CoverHierarchy hier =
      cluster::cover_hierarchy(csr, r0, cfg.level_ratio, cfg.max_levels, ws);
  truncated_ = !hier.complete;
  radii_ = hier.radii;
  labels_.resize(radii_.size());

  // Per level: one bounded Dijkstra per center at radius β·r_ℓ, harvested in
  // parallel, committed in ascending-center order. Because centers are
  // sorted and each commit appends that center's ball to the per-vertex
  // rows, every row ends up sorted by center id — the invariant
  // min_common_distance's merge needs — and the result is bit-identical at
  // every thread count (balls are pure functions of the frozen csr).
  std::vector<std::vector<graph::LabelEntry>> rows(static_cast<std::size_t>(n_));
  std::vector<std::vector<std::pair<int, double>>> balls;
  for (std::size_t level = 0; level < radii_.size(); ++level) {
    for (auto& row : rows) row.clear();
    const std::vector<int>& centers = hier.levels[level].centers;
    const double reach = cfg.label_reach * radii_[level];
    const int count = static_cast<int>(centers.size());
    if (static_cast<int>(balls.size()) < count) balls.resize(static_cast<std::size_t>(count));
    runtime::scatter_commit(
        pool, ws, count,
        [&](graph::DijkstraWorkspace& wws, int /*worker*/, int i) {
          const graph::SpView sp = wws.bounded(csr, centers[static_cast<std::size_t>(i)], reach);
          std::vector<std::pair<int, double>>& ball = balls[static_cast<std::size_t>(i)];
          ball.clear();
          for (int v : sp.touched()) ball.push_back({v, sp.dist(v)});
        },
        [&](int i) {
          const int c = centers[static_cast<std::size_t>(i)];
          obs::histogram_record(oracle_metrics().ball,
                                static_cast<std::int64_t>(balls[static_cast<std::size_t>(i)].size()));
          for (const auto& [v, d] : balls[static_cast<std::size_t>(i)]) {
            rows[static_cast<std::size_t>(v)].push_back({c, d});
          }
        });
    labels_[level].assign(rows);
    obs::counter_add(oracle_metrics().entries, labels_[level].total_entries());
  }
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
