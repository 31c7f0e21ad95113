#include "stretch_reference.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/sp_workspace.hpp"

namespace localspan::graph {

double sampled_pair_stretch(const Graph& g, const Graph& sub, std::int64_t samples,
                            std::uint64_t seed, runtime::WorkerPool* pool) {
  if (g.n() != sub.n()) throw std::invalid_argument("sampled_pair_stretch: vertex count mismatch");
  if (g.n() < 2 || samples <= 0) return 1.0;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, g.n() - 1);
  // Draw the pair set first (identical sequence to the historical
  // per-sample draw), then group by source so a source sampled more than
  // once pays for its two unbounded searches exactly once.
  struct Sample {
    int u, v;
  };
  std::vector<Sample> pairs;
  pairs.reserve(static_cast<std::size_t>(samples));
  for (std::int64_t s = 0; s < samples; ++s) {
    const int u = pick(rng);
    int v = pick(rng);
    if (v == u) v = (v + 1) % g.n();
    pairs.push_back({u, v});
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Sample& a, const Sample& b) { return a.u < b.u; });
  // Source-group boundaries, so groups can be processed independently (and,
  // with a pool, in parallel: each group's worst ratio depends only on the
  // two frozen graphs; the max reduction is exact under any order).
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t end = i;
    while (end < pairs.size() && pairs[end].u == pairs[i].u) ++end;
    groups.push_back({i, end});
    i = end;
  }
  const auto group_worst = [&](DijkstraWorkspace& ws, std::vector<double>& dg_run,
                               std::size_t begin, std::size_t end) {
    const int u = pairs[begin].u;
    dg_run.clear();
    {
      const SpView in_g = ws.bounded(g, u, kInf);
      for (std::size_t s = begin; s < end; ++s) dg_run.push_back(in_g.dist(pairs[s].v));
    }
    const SpView in_sub = ws.bounded(sub, u, kInf);
    double worst = 1.0;
    for (std::size_t s = begin; s < end; ++s) {
      const double dg = dg_run[s - begin];
      if (dg == kInf || dg == 0.0) continue;
      const double ds = in_sub.dist(pairs[s].v);
      worst = std::max(worst, ds == kInf ? kInf : ds / dg);
    }
    return worst;
  };
  // One dist-in-g buffer per worker for the current source run.
  std::vector<std::vector<double>> dg_runs(
      static_cast<std::size_t>(pool != nullptr ? pool->threads() : 1));
  DijkstraWorkspace ws(g.n());
  double worst = 1.0;
  runtime::harvest_commit<double>(
      pool, ws, static_cast<int>(groups.size()),
      [&](DijkstraWorkspace& gws, int worker, int i, double& group) {
        const auto& [begin, end] = groups[static_cast<std::size_t>(i)];
        group = group_worst(gws, dg_runs[static_cast<std::size_t>(worker)], begin, end);
      },
      [&](int, double group) { worst = std::max(worst, group); });
  return worst;
}

}  // namespace localspan::graph
