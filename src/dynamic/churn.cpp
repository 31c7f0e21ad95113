#include "dynamic/churn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>

namespace localspan::dynamic {

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kJoin: return "join";
    case EventKind::kLeave: return "leave";
    case EventKind::kMove: return "move";
  }
  return "?";
}

std::string validate_trace(const ChurnTrace& trace, const ubg::UbgInstance& inst) {
  if (trace.dim != inst.config.dim) return "trace dim does not match instance";
  if (trace.alpha != inst.config.alpha) return "trace alpha does not match instance";
  if (std::abs(trace.side - inst.config.side) > 1e-9 * std::max(1.0, inst.config.side)) {
    return "trace box side does not match instance";
  }
  std::vector<char> alive(static_cast<std::size_t>(inst.g.n()), 1);
  double prev_time = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const ChurnEvent& ev = trace.events[i];
    const std::string at = "event " + std::to_string(i) + ": ";
    if (ev.time < prev_time) return at + "time decreases";
    prev_time = ev.time;
    if (ev.node < 0) return at + "negative node id";
    if (ev.kind != EventKind::kLeave && ev.pos.dim() != trace.dim) {
      return at + "position dimension mismatch";
    }
    const auto slot = static_cast<std::size_t>(ev.node);
    switch (ev.kind) {
      case EventKind::kJoin:
        if (slot < alive.size() && alive[slot]) return at + "join of a live node";
        if (slot >= alive.size()) alive.resize(slot + 1, 0);
        alive[slot] = 1;
        break;
      case EventKind::kLeave:
        if (slot >= alive.size() || !alive[slot]) return at + "leave of a dead node";
        alive[slot] = 0;
        break;
      case EventKind::kMove:
        if (slot >= alive.size() || !alive[slot]) return at + "move of a dead node";
        break;
    }
  }
  return {};
}

namespace {

geom::Point uniform_point(std::mt19937_64& rng, int dim, double side) {
  std::uniform_real_distribution<double> coord(0.0, side);
  geom::Point p(dim);
  for (int k = 0; k < dim; ++k) p[k] = coord(rng);
  return p;
}

ChurnTrace trace_shell(const ubg::UbgInstance& inst) {
  return ChurnTrace{inst.config.dim, inst.config.alpha, inst.config.side, {}};
}

}  // namespace

ChurnTrace poisson_churn(const ubg::UbgInstance& inst, const PoissonChurnConfig& cfg) {
  if (!(cfg.rate > 0.0)) throw std::invalid_argument("poisson_churn: rate must be > 0");
  ChurnTrace trace = trace_shell(inst);
  std::mt19937_64 rng(cfg.seed);
  std::exponential_distribution<double> gap(cfg.rate);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  // Replay-accurate bookkeeping: which ids are live, which are free.
  std::vector<int> live(static_cast<std::size_t>(inst.g.n()));
  for (int v = 0; v < inst.g.n(); ++v) live[static_cast<std::size_t>(v)] = v;
  std::set<int> free_ids;
  int next_id = inst.g.n();

  double now = 0.0;
  trace.events.reserve(static_cast<std::size_t>(std::max(cfg.events, 0)));
  for (int i = 0; i < cfg.events; ++i) {
    now += gap(rng);
    const bool join = live.empty() || coin(rng) < cfg.join_fraction;
    ChurnEvent ev;
    ev.time = now;
    if (join) {
      ev.kind = EventKind::kJoin;
      if (!free_ids.empty()) {
        ev.node = *free_ids.begin();
        free_ids.erase(free_ids.begin());
      } else {
        ev.node = next_id++;
      }
      ev.pos = uniform_point(rng, trace.dim, trace.side);
      live.push_back(ev.node);
    } else {
      ev.kind = EventKind::kLeave;
      std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
      const std::size_t idx = pick(rng);
      ev.node = live[idx];
      live[idx] = live.back();
      live.pop_back();
      free_ids.insert(ev.node);
      ev.pos = geom::Point(trace.dim);
    }
    trace.events.push_back(ev);
  }
  return trace;
}

ChurnTrace random_waypoint(const ubg::UbgInstance& inst, const WaypointConfig& cfg) {
  // The sampling loop advances time by sample_dt: zero or NaN never ends it.
  if (!(cfg.sample_dt > 0.0)) throw std::invalid_argument("random_waypoint: sample_dt must be > 0");
  ChurnTrace trace = trace_shell(inst);
  std::mt19937_64 rng(cfg.seed);
  const int movers = std::clamp(cfg.movers, 0, inst.g.n());

  // Distinct mover ids: a partial Fisher-Yates over 0..n-1.
  std::vector<int> ids(static_cast<std::size_t>(inst.g.n()));
  for (int v = 0; v < inst.g.n(); ++v) ids[static_cast<std::size_t>(v)] = v;
  for (int k = 0; k < movers; ++k) {
    std::uniform_int_distribution<int> pick(k, inst.g.n() - 1);
    std::swap(ids[static_cast<std::size_t>(k)], ids[static_cast<std::size_t>(pick(rng))]);
  }

  struct Mover {
    int id;
    geom::Point at;
    geom::Point goal;
  };
  std::vector<Mover> state;
  state.reserve(static_cast<std::size_t>(movers));
  for (int k = 0; k < movers; ++k) {
    const int id = ids[static_cast<std::size_t>(k)];
    state.push_back({id, inst.points[id], uniform_point(rng, trace.dim, trace.side)});
  }

  for (double now = cfg.sample_dt; now <= cfg.duration + 1e-12; now += cfg.sample_dt) {
    for (Mover& m : state) {
      double budget = cfg.speed * cfg.sample_dt;
      while (budget > 0.0) {
        const double to_goal = geom::distance(m.at, m.goal);
        if (to_goal <= budget) {
          m.at = m.goal;
          budget -= to_goal;
          m.goal = uniform_point(rng, trace.dim, trace.side);
          if (to_goal == 0.0) break;  // degenerate waypoint: avoid spinning
        } else {
          const double f = budget / to_goal;
          for (int k = 0; k < trace.dim; ++k) m.at[k] += f * (m.goal[k] - m.at[k]);
          budget = 0.0;
        }
      }
      trace.events.push_back({now, EventKind::kMove, m.id, m.at});
    }
  }
  return trace;
}

ChurnTrace regional_failure(const ubg::UbgInstance& inst, const RegionalFailureConfig& cfg) {
  ChurnTrace trace = trace_shell(inst);
  std::mt19937_64 rng(cfg.seed);
  const geom::Point epicenter = uniform_point(rng, trace.dim, trace.side);
  std::vector<int> hit;
  for (int v = 0; v < inst.g.n(); ++v) {
    if (geom::distance(inst.points.row(v), epicenter.coords()) <= cfg.radius) {
      hit.push_back(v);
    }
  }
  for (int v : hit) trace.events.push_back({cfg.fail_time, EventKind::kLeave, v, geom::Point(trace.dim)});
  if (cfg.rejoin) {
    for (int v : hit) {
      trace.events.push_back({cfg.rejoin_time, EventKind::kJoin, v, inst.points[v]});
    }
  }
  return trace;
}

}  // namespace localspan::dynamic
