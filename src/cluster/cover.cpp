#include "cluster/cover.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "graph/components.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::cluster {

namespace {

struct CoverMetrics {
  obs::MetricId centers = obs::counter_id("cover.centers");
  obs::MetricId ball_size = obs::histogram_id("cover.ball_size");
};

const CoverMetrics& cover_metrics() {
  static const CoverMetrics m;
  return m;
}

}  // namespace

ClusterCover sequential_cover(const graph::CsrView& gp, double radius,
                              graph::DijkstraWorkspace& ws) {
  if (radius < 0.0) throw std::invalid_argument("sequential_cover: negative radius");
  const int n = gp.n();
  ClusterCover cover;
  cover.radius = radius;
  cover.center_of.assign(static_cast<std::size_t>(n), -1);
  cover.dist_to_center.assign(static_cast<std::size_t>(n), graph::kInf);

  for (int u = 0; u < n; ++u) {
    if (cover.center_of[static_cast<std::size_t>(u)] != -1) continue;
    cover.centers.push_back(u);
    obs::counter_add(cover_metrics().centers, 1);
    // The search relaxes only edges of weight <= radius out of u, so when u
    // has none its ball is {u} and the search can be skipped. Early phases
    // are mostly such vertices: G'_{i-1} is sparse and radius = δ·W_{i-1}.
    const std::span<const graph::Neighbor> nbrs = gp.neighbors(u);
    if (std::none_of(nbrs.begin(), nbrs.end(),
                     [&](const graph::Neighbor& nb) { return nb.w <= radius; })) {
      obs::histogram_record(cover_metrics().ball_size, 1);
      cover.center_of[static_cast<std::size_t>(u)] = u;
      cover.dist_to_center[static_cast<std::size_t>(u)] = 0.0;
      continue;
    }
    const graph::SpView sp = ws.bounded(gp, u, radius);
    obs::histogram_record(cover_metrics().ball_size,
                          static_cast<std::int64_t>(sp.touched().size()));
    // Every settled vertex is within `radius`; absorb the still-uncovered
    // ones. Walking the touched list keeps the sweep O(|ball|), not O(n).
    for (int v : sp.touched()) {
      if (cover.center_of[static_cast<std::size_t>(v)] != -1) continue;
      cover.center_of[static_cast<std::size_t>(v)] = u;
      cover.dist_to_center[static_cast<std::size_t>(v)] = sp.dist(v);
    }
  }
  return cover;
}

CoverHierarchy cover_hierarchy(const graph::CsrView& gp, double base_radius, double ratio,
                               int max_levels, graph::DijkstraWorkspace& ws) {
  if (base_radius <= 0.0) throw std::invalid_argument("cover_hierarchy: base_radius must be > 0");
  if (ratio <= 1.0) throw std::invalid_argument("cover_hierarchy: ratio must be > 1");
  if (max_levels < 1) throw std::invalid_argument("cover_hierarchy: max_levels must be >= 1");

  CoverHierarchy hier;
  if (gp.n() == 0) {
    hier.complete = true;
    return hier;
  }
  const int components = graph::connected_components(gp).count;
  double radius = base_radius;
  for (int level = 0; level < max_levels; ++level) {
    hier.radii.push_back(radius);
    hier.levels.push_back(sequential_cover(gp, radius, ws));
    if (static_cast<int>(hier.levels.back().centers.size()) == components) {
      hier.complete = true;
      break;
    }
    radius *= ratio;
  }
  return hier;
}

namespace {

/// The proximity graph J of §3.2.1: {x,y} iff sp_gp(x,y) <= radius, distinct
/// vertices at distance 0 included. Each vertex learns its J-neighbourhood
/// from its own bounded ball (distributed step 1); the balls are pure
/// functions of (gp, u, radius), so they are harvested in parallel into
/// sorted rows of lower-id members and committed serially in (u, v)
/// ascending order — the insertion order of an all-pairs v < u scan, so J's
/// adjacency lists are the same at every thread count.
graph::Graph proximity_graph(const graph::CsrView& gp, double radius,
                             graph::DijkstraWorkspace& ws, runtime::WorkerPool* pool) {
  graph::Graph j(gp.n());
  runtime::harvest_commit<std::vector<int>>(
      pool, ws, gp.n(),
      [&](graph::DijkstraWorkspace& wws, int, int u, std::vector<int>& row) {
        row.clear();
        const graph::SpView sp = wws.bounded(gp, u, radius);
        for (int v : sp.touched()) {
          if (v < u) row.push_back(v);
        }
        std::sort(row.begin(), row.end());
      },
      [&](int u, const std::vector<int>& row) {
        for (int v : row) j.add_edge(u, v, 1.0);
      });
  return j;
}

}  // namespace

ClusterCover mis_cover(const graph::CsrView& gp, double radius, graph::DijkstraWorkspace& ws,
                       const std::function<std::vector<int>(const graph::Graph&)>& mis,
                       runtime::WorkerPool* pool) {
  if (radius < 0.0) throw std::invalid_argument("mis_cover: negative radius");
  const int n = gp.n();
  const graph::Graph j = proximity_graph(gp, radius, ws, pool);

  const std::vector<int> independent = mis(j);
  std::vector<char> in_mis(static_cast<std::size_t>(n), 0);
  for (int c : independent) in_mis[static_cast<std::size_t>(c)] = 1;

  ClusterCover cover;
  cover.radius = radius;
  cover.center_of.assign(static_cast<std::size_t>(n), -1);
  cover.dist_to_center.assign(static_cast<std::size_t>(n), graph::kInf);
  for (int c : independent) cover.center_of[static_cast<std::size_t>(c)] = c;
  for (int v = 0; v < n; ++v) {
    if (in_mis[static_cast<std::size_t>(v)]) continue;
    // Attach to the highest-id MIS neighbor in J (paper's tie-break).
    int best = -1;
    for (const graph::Neighbor& nb : j.neighbors(v)) {
      if (in_mis[static_cast<std::size_t>(nb.to)] && nb.to > best) best = nb.to;
    }
    if (best == -1) {
      // Maximality of a correct MIS forbids this.
      throw std::logic_error("mis_cover: vertex with no MIS neighbor (MIS not maximal?)");
    }
    cover.center_of[static_cast<std::size_t>(v)] = best;
  }
  cover.centers = independent;
  std::sort(cover.centers.begin(), cover.centers.end());

  // dist_to_center is sp measured from the center: one bounded search per
  // center, each writing only its own members (disjoint slots, so the
  // searches run on the pool as they are).
  obs::counter_add(cover_metrics().centers, static_cast<std::int64_t>(cover.centers.size()));
  runtime::for_each_with_workspace(
      pool, ws, 0, static_cast<int>(cover.centers.size()),
      [&](graph::DijkstraWorkspace& wws, int i) {
        const int c = cover.centers[static_cast<std::size_t>(i)];
        const graph::SpView sp = wws.bounded(gp, c, radius);
        obs::histogram_record(cover_metrics().ball_size,
                              static_cast<std::int64_t>(sp.touched().size()));
        for (int v : sp.touched()) {
          if (cover.center_of[static_cast<std::size_t>(v)] == c) {
            cover.dist_to_center[static_cast<std::size_t>(v)] = sp.dist(v);
          }
        }
      });
  return cover;
}

}  // namespace localspan::cluster
