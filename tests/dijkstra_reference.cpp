#include "dijkstra_reference.hpp"

#include <queue>
#include <stdexcept>

namespace localspan::graph {

namespace {

struct QItem {
  double d;
  int v;
  bool operator>(const QItem& o) const noexcept { return d > o.d; }
};

ShortestPaths run(const Graph& g, int src, double radius, int target) {
  if (src < 0 || src >= g.n()) throw std::invalid_argument("dijkstra: source out of range");
  ShortestPaths sp;
  sp.dist.assign(static_cast<std::size_t>(g.n()), kInf);
  sp.parent.assign(static_cast<std::size_t>(g.n()), -1);
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  sp.dist[static_cast<std::size_t>(src)] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > sp.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    if (d > radius) break;
    if (v == target) break;
    for (const Neighbor& nb : g.neighbors(v)) {
      const double nd = d + nb.w;
      if (nd > radius) continue;
      if (nd < sp.dist[static_cast<std::size_t>(nb.to)]) {
        sp.dist[static_cast<std::size_t>(nb.to)] = nd;
        sp.parent[static_cast<std::size_t>(nb.to)] = v;
        pq.push({nd, nb.to});
      }
    }
  }
  return sp;
}

}  // namespace

ShortestPaths dijkstra(const Graph& g, int src) { return run(g, src, kInf, -1); }

ShortestPaths dijkstra_bounded(const Graph& g, int src, double radius) {
  if (radius < 0.0) throw std::invalid_argument("dijkstra_bounded: negative radius");
  return run(g, src, radius, -1);
}

double sp_distance(const Graph& g, int u, int v, double bound) {
  if (v < 0 || v >= g.n()) throw std::invalid_argument("sp_distance: target out of range");
  if (u == v) return 0.0;
  const ShortestPaths sp = run(g, u, bound, v);
  const double d = sp.dist[static_cast<std::size_t>(v)];
  return d <= bound ? d : kInf;
}

ShortestPaths dijkstra_multi_bounded(const Graph& g, std::span<const int> sources, double radius,
                                     const std::function<double(double)>& weight) {
  if (radius < 0.0) throw std::invalid_argument("dijkstra_multi_bounded: negative radius");
  ShortestPaths sp;
  sp.dist.assign(static_cast<std::size_t>(g.n()), kInf);
  sp.parent.assign(static_cast<std::size_t>(g.n()), -1);
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  for (int s : sources) {
    if (s < 0 || s >= g.n()) throw std::invalid_argument("dijkstra_multi_bounded: source out of range");
    if (sp.dist[static_cast<std::size_t>(s)] > 0.0) {
      sp.dist[static_cast<std::size_t>(s)] = 0.0;
      pq.push({0.0, s});
    }
  }
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > sp.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    if (d > radius) break;
    for (const Neighbor& nb : g.neighbors(v)) {
      const double nd = d + (weight ? weight(nb.w) : nb.w);
      if (nd > radius) continue;
      if (nd < sp.dist[static_cast<std::size_t>(nb.to)]) {
        sp.dist[static_cast<std::size_t>(nb.to)] = nd;
        sp.parent[static_cast<std::size_t>(nb.to)] = v;
        pq.push({nd, nb.to});
      }
    }
  }
  return sp;
}

std::vector<int> khop_ball(const Graph& g, int src, int k) {
  if (src < 0 || src >= g.n()) throw std::invalid_argument("khop_ball: source out of range");
  if (k < 0) throw std::invalid_argument("khop_ball: negative hop count");
  std::vector<int> hops(static_cast<std::size_t>(g.n()), -1);
  std::vector<int> ball{src};
  hops[static_cast<std::size_t>(src)] = 0;
  std::size_t head = 0;
  while (head < ball.size()) {
    const int v = ball[head++];
    const int h = hops[static_cast<std::size_t>(v)];
    if (h == k) continue;
    for (const Neighbor& nb : g.neighbors(v)) {
      if (hops[static_cast<std::size_t>(nb.to)] < 0) {
        hops[static_cast<std::size_t>(nb.to)] = h + 1;
        ball.push_back(nb.to);
      }
    }
  }
  return ball;
}

int path_hops(const ShortestPaths& sp, int v) {
  if (v < 0 || v >= static_cast<int>(sp.dist.size())) {
    throw std::invalid_argument("path_hops: vertex out of range");
  }
  if (sp.dist[static_cast<std::size_t>(v)] == kInf) return -1;
  int hops = 0;
  for (int cur = v; sp.parent[static_cast<std::size_t>(cur)] != -1;
       cur = sp.parent[static_cast<std::size_t>(cur)]) {
    ++hops;
  }
  return hops;
}

}  // namespace localspan::graph
