#include "route/routing.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "graph/components.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::route {

namespace {

struct RouteMetrics {
  obs::MetricId evaluate = obs::span_id("route.evaluate");
  obs::MetricId pairs = obs::counter_id("route.pairs");
  obs::MetricId delivered = obs::counter_id("route.delivered");
  obs::MetricId heap_pops = obs::counter_id("route.heap_pops");
  obs::MetricId hops = obs::histogram_id("route.hops");
};

const RouteMetrics& route_metrics() {
  static const RouteMetrics m;
  return m;
}

}  // namespace

RouteResult route_packet(const ubg::UbgInstance& inst, const graph::CsrView& topo, int s, int d,
                         Forwarding rule, int max_hops) {
  if (topo.n() != inst.points.size()) {
    throw std::invalid_argument("route_packet: topology and instance sizes differ");
  }
  if (s < 0 || s >= topo.n() || d < 0 || d >= topo.n()) {
    throw std::invalid_argument("route_packet: endpoint out of range");
  }
  RouteResult res;
  res.path.push_back(s);
  int cur = s;
  while (cur != d && res.hops < max_hops) {
    const double here = inst.points.distance(cur, d);
    int best = -1;
    double best_key = 0.0;
    double best_w = 0.0;
    for (const graph::Neighbor& nb : topo.neighbors(cur)) {
      if (nb.to == d) {
        best = d;
        best_w = nb.w;
        break;
      }
      double key = 0.0;
      if (rule == Forwarding::kGreedy) {
        key = inst.points.distance(nb.to, d);
        if (key >= here) continue;  // must make geometric progress
      } else {
        // Compass: smallest angle to the cur->d ray, progress-gated the same
        // way to guarantee termination on arbitrary graphs.
        if (inst.points.distance(nb.to, d) >= here) continue;
        key = inst.points.angle_at(cur, d, nb.to);
      }
      if (best == -1 || key < best_key) {
        best = nb.to;
        best_key = key;
        best_w = nb.w;
      }
    }
    if (best == -1) return res;  // local minimum: undeliverable by this rule
    res.length += inst.points.distance(cur, best);
    res.weight += best_w;
    cur = best;
    res.path.push_back(cur);
    ++res.hops;
  }
  res.delivered = cur == d;
  return res;
}

RoutingStats evaluate_routing(const ubg::UbgInstance& inst, const graph::CsrView& topo,
                              Forwarding rule, int trials, std::uint64_t seed,
                              graph::DijkstraWorkspace& ws, runtime::WorkerPool* pool) {
  if (trials <= 0) throw std::invalid_argument("evaluate_routing: trials must be positive");
  if (topo.n() == 0 || topo.n() != inst.points.size()) {
    throw std::invalid_argument("evaluate_routing: topology must span the instance's points");
  }
  const obs::Span span(route_metrics().evaluate);
  static_cast<void>(runtime::take_heap_ops(ws, pool));  // drop earlier searches' tallies

  // Pairs are drawn serially from the seed and accepted (s != d, one
  // component) in draw order, so a disconnected draw never starts a search.
  // The safety valve ends the draws on a topology with (nearly) no connected
  // pairs; st.trials then reports what was found.
  const std::vector<int> comp = graph::connected_components(topo).label;
  struct Trial {
    int s = 0;
    int d = 0;
    double sp = 0.0;
    RouteResult route;
  };
  std::vector<Trial> batch;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, topo.n() - 1);
  const long long max_draws = 1000LL * trials + 1000;
  for (long long draws = 0; static_cast<int>(batch.size()) < trials && draws < max_draws;
       ++draws) {
    const int s = pick(rng);
    const int d = pick(rng);
    if (s != d && comp[static_cast<std::size_t>(s)] == comp[static_cast<std::size_t>(d)]) {
      batch.push_back(Trial{s, d, 0.0, {}});
    }
  }

  // Per pair: the forwarding walk, then the exact goal-directed sp(s, d)
  // that prices a delivered route, bounded by the route's own weight. Both
  // are pure functions of the frozen snapshot, so the pool cannot change them.
  const graph::EuclideanPotential h = graph::euclidean_potential(topo, inst.points);
  runtime::for_each_with_workspace(
      pool, ws, 0, static_cast<int>(batch.size()), [&](graph::DijkstraWorkspace& wws, int i) {
        Trial& t = batch[static_cast<std::size_t>(i)];
        t.route = route_packet(inst, topo, t.s, t.d, rule);
        if (t.route.delivered) t.sp = wws.distance(topo, t.s, t.d, t.route.weight, h);
      });
  RoutingStats st;
  st.trials = static_cast<int>(batch.size());
  double hops_sum = 0.0;
  double stretch_sum = 0.0;
  for (const Trial& t : batch) {
    if (!t.route.delivered) continue;
    ++st.delivered;
    hops_sum += t.route.hops;
    obs::histogram_record(route_metrics().hops, t.route.hops);
    const double ratio = t.route.length / t.sp;
    stretch_sum += ratio;
    st.worst_route_stretch = std::max(st.worst_route_stretch, ratio);
  }
  obs::counter_add(route_metrics().heap_pops, runtime::take_heap_ops(ws, pool).second);
  obs::counter_add(route_metrics().pairs, st.trials);
  obs::counter_add(route_metrics().delivered, st.delivered);
  st.delivery_rate = st.trials > 0 ? static_cast<double>(st.delivered) / st.trials : 0.0;
  if (st.delivered > 0) {
    st.mean_hops = hops_sum / st.delivered;
    st.mean_route_stretch = stretch_sum / st.delivered;
  }
  return st;
}

}  // namespace localspan::route
