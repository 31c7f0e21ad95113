#include "serve/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/obs.hpp"

namespace localspan::serve {

namespace {

struct ServeMetrics {
  obs::MetricId queries = obs::counter_id("serve.queries");
  obs::MetricId hits = obs::counter_id("serve.oracle_hits");
  obs::MetricId fallbacks = obs::counter_id("serve.oracle_fallbacks");
  obs::MetricId routes = obs::counter_id("serve.routes");
  obs::MetricId publishes = obs::counter_id("serve.publishes");
  obs::MetricId epoch = obs::gauge_id("serve.snapshot_epoch");
  obs::MetricId age = obs::gauge_id("serve.snapshot_age");
  obs::MetricId query_us = obs::histogram_id("serve.query_us");
  obs::MetricId route_us = obs::histogram_id("serve.route_us");
  obs::MetricId publish_us = obs::histogram_id("serve.publish_us");
};

const ServeMetrics& serve_metrics() {
  static const ServeMetrics m;
  return m;
}

using Clock = std::chrono::steady_clock;

std::int64_t micros_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count();
}

/// Oracle estimates upper-bound the true distance in exact arithmetic, but
/// a Dijkstra relaxation sums the same edges in a different order, so the
/// path can land an ulp above the label sum. Searches bounded by an
/// estimate get this relative slack so rounding never prunes the answer.
double search_radius(double est) {
  return est == graph::kInf ? est : est * (1.0 + 1e-9) + 1e-12;
}

void check_pair(const TopologySnapshot& snap, int u, int v) {
  if (u < 0 || u >= snap.n || v < 0 || v >= snap.n) {
    throw std::invalid_argument("QueryEngine: vertex out of range for the current snapshot");
  }
}

}  // namespace

QueryEngine::QueryEngine(ServeOptions opts) {
  const int threads = runtime::resolve_threads(opts.threads);
  if (threads > 1) pool_.emplace(threads);
}

std::uint64_t QueryEngine::publish_snapshot(std::unique_ptr<TopologySnapshot> snap) {
  const auto t0 = Clock::now();
  snap->oracle.build(snap->csr, OracleConfig{}, build_ws_, pool_ ? &*pool_ : nullptr);
  const std::uint64_t epoch = store_.publish(std::move(snap));
  if (obs::enabled()) {
    const ServeMetrics& m = serve_metrics();
    obs::counter_add(m.publishes, 1);
    obs::gauge_set(m.epoch, static_cast<std::int64_t>(epoch));
    obs::histogram_record(m.publish_us, micros_since(t0));
  }
  return epoch;
}

std::uint64_t QueryEngine::publish(const dynamic::DynamicSpanner& engine) {
  auto snap = std::make_unique<TopologySnapshot>();
  snap->csr.assign(engine.spanner());
  snap->n = snap->csr.n();
  snap->active.resize(static_cast<std::size_t>(snap->n));
  for (int v = 0; v < snap->n; ++v) {
    snap->active[static_cast<std::size_t>(v)] = engine.is_active(v) ? 1 : 0;
  }
  snap->stretch_t = engine.params().t;
  return publish_snapshot(std::move(snap));
}

std::uint64_t QueryEngine::publish(const graph::Graph& spanner, double stretch_t) {
  auto snap = std::make_unique<TopologySnapshot>();
  snap->csr.assign(spanner);
  snap->n = snap->csr.n();
  snap->active.assign(static_cast<std::size_t>(snap->n), 1);
  snap->stretch_t = stretch_t;
  return publish_snapshot(std::move(snap));
}

void QueryEngine::attach(dynamic::DynamicSpanner& engine) {
  engine.set_commit_hook(
      [this](const dynamic::DynamicSpanner& committed) { this->publish(committed); });
}

QueryEngine::DistanceAnswer QueryEngine::Reader::distance(int u, int v) {
  const bool timed = obs::enabled();
  const auto t0 = timed ? Clock::now() : Clock::time_point{};
  const SnapshotStore::ReadGuard guard = engine_->store_.acquire();
  const TopologySnapshot& snap = *guard;
  check_pair(snap, u, v);
  const ServeMetrics& m = serve_metrics();
  obs::counter_add(m.queries, 1);

  DistanceAnswer out;
  if (!snap.active[static_cast<std::size_t>(u)] || !snap.active[static_cast<std::size_t>(v)]) {
    // A parked slot is isolated by construction; no search needed.
    out.via_oracle = true;
    obs::counter_add(m.hits, 1);
  } else {
    const double est = snap.oracle.estimate(u, v);
    if (est == graph::kInf) {
      // No shared landmark (disconnected pair, or a truncated hierarchy):
      // exact early-exit search settles at most u's component.
      out.distance = ws_.distance(snap.csr, u, v);
      obs::counter_add(m.fallbacks, 1);
    } else if (est <= snap.oracle.near_threshold()) {
      // Near pair: the additive 2·r0 slack would dominate, so answer
      // exactly. The estimate caps the search radius — a small ball.
      out.distance = ws_.distance(snap.csr, u, v, search_radius(est));
      obs::counter_add(m.fallbacks, 1);
    } else {
      out.distance = est;
      out.via_oracle = true;
      obs::counter_add(m.hits, 1);
    }
  }
  if (timed) {
    obs::histogram_record(m.query_us, micros_since(t0));
    const std::uint64_t now_epoch = engine_->store_.current_epoch();
    obs::gauge_set(m.age, static_cast<std::int64_t>(now_epoch - snap.epoch));
  }
  return out;
}

QueryEngine::RouteAnswer QueryEngine::Reader::route(int u, int v, std::vector<int>* path_out) {
  const bool timed = obs::enabled();
  const auto t0 = timed ? Clock::now() : Clock::time_point{};
  if (path_out != nullptr) path_out->clear();
  const SnapshotStore::ReadGuard guard = engine_->store_.acquire();
  const TopologySnapshot& snap = *guard;
  check_pair(snap, u, v);
  const ServeMetrics& m = serve_metrics();
  obs::counter_add(m.routes, 1);

  RouteAnswer out;
  if (snap.active[static_cast<std::size_t>(u)] && snap.active[static_cast<std::size_t>(v)]) {
    const double est = snap.oracle.estimate(u, v);
    // The estimate upper-bounds the true distance, so an early-exit search
    // bounded by it must settle v (label-guided pruning); without an
    // estimate, fall back to an unbounded early-exit search.
    const graph::SpView view = ws_.bounded_to(snap.csr, u, v, search_radius(est));
    if (est == graph::kInf) obs::counter_add(m.fallbacks, 1);
    if (view.reached(v)) {
      out.distance = view.dist(v);
      out.hops = view.path_hops(v);
      out.reachable = true;
      out.via_oracle = est != graph::kInf;
      if (path_out != nullptr) {
        for (int cur = v; cur != -1; cur = view.parent(cur)) path_out->push_back(cur);
        std::reverse(path_out->begin(), path_out->end());
      }
    }
  }
  if (timed) obs::histogram_record(m.route_us, micros_since(t0));
  return out;
}

}  // namespace localspan::serve
