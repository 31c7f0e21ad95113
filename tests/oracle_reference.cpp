#include "oracle_reference.hpp"

#include <algorithm>

#include "cluster/cover.hpp"
#include "graph/components.hpp"

namespace localspan::serve {

ReferenceOracle reference_oracle(const graph::CsrView& csr, const OracleConfig& cfg) {
  ReferenceOracle ref;
  ref.n = csr.n();
  double r0 = cfg.base_radius;
  if (r0 <= 0.0) {
    for (int u = 0; u < csr.n(); ++u) {
      for (const graph::Neighbor& nb : csr.neighbors(u)) r0 = std::max(r0, nb.w);
    }
    if (r0 <= 0.0) r0 = 1.0;
  }
  ref.base_radius = r0;
  ref.stretch_bound = 1.0 + 2.0 * cfg.level_ratio / (cfg.label_reach - 1.0);
  ref.near_threshold = (cfg.label_reach + 1.0) * r0;
  if (ref.n == 0) return ref;

  const int components = graph::connected_components(csr).count;
  graph::DijkstraWorkspace ws(csr.n());
  double radius = r0;
  bool complete = false;
  for (int level = 0; level < cfg.max_levels && !complete; ++level, radius *= cfg.level_ratio) {
    const cluster::ClusterCover cover = cluster::sequential_cover(csr, radius, ws);
    std::vector<std::vector<graph::LabelEntry>> rows(static_cast<std::size_t>(ref.n));
    for (int c : cover.centers) {
      const graph::SpView sp = ws.bounded(csr, c, cfg.label_reach * radius);
      for (int v : sp.touched()) rows[static_cast<std::size_t>(v)].push_back({c, sp.dist(v)});
    }
    ref.radii.push_back(radius);
    ref.rows.push_back(std::move(rows));
    complete = static_cast<int>(cover.centers.size()) == components;
  }
  ref.truncated = !complete;
  return ref;
}

bool operator==(const RoutingOracle& oracle, const ReferenceOracle& ref) {
  if (oracle.n() != ref.n || oracle.base_radius() != ref.base_radius ||
      oracle.stretch_bound() != ref.stretch_bound ||
      oracle.near_threshold() != ref.near_threshold || oracle.truncated() != ref.truncated ||
      oracle.radii() != ref.radii || oracle.levels() != static_cast<int>(ref.rows.size())) {
    return false;
  }
  for (std::size_t level = 0; level < ref.rows.size(); ++level) {
    const graph::LandmarkLabels& labels = oracle.labels()[level];
    if (labels.n() != ref.n) return false;
    for (int v = 0; v < ref.n; ++v) {
      const std::vector<graph::LabelEntry>& row = ref.rows[level][static_cast<std::size_t>(v)];
      if (!std::ranges::equal(labels.at(v), row)) return false;
    }
  }
  return true;
}

}  // namespace localspan::serve
