#include "cluster/cluster_graph.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::cluster {

namespace {

struct CgMetrics {
  obs::MetricId centers = obs::counter_id("cg.centers");
  obs::MetricId inter_edges = obs::counter_id("cg.inter_edges");
  obs::MetricId intra_edges = obs::counter_id("cg.intra_edges");
  obs::MetricId retries = obs::counter_id("cg.retries");
};

const CgMetrics& cg_metrics() {
  static const CgMetrics m;
  return m;
}

/// One row of a center a's harvest: center b > a and sp(a, b) (kInf =>
/// retry with `retry_bound`).
struct Candidate {
  int b;
  double d;
  double retry_bound;
};

/// Center i's rows in its worker's buffer: cond-1 in [begin, mid), cond-2
/// in [mid, end).
struct Slice {
  int worker = 0;
  std::size_t begin = 0, mid = 0, end = 0;
};

/// One center's candidate harvest for the inter-cluster conditions — a pure
/// function of (gp, cover, center, reach), so it can run on any worker.
/// Cond-1 rows are the centers b > a with sp(a,b) <= W_{i-1}, in settle
/// order; cond-2 rows are one per member-edge crossing into a cluster with
/// center b > a, in scan order. State-dependent dedup happens at commit
/// time only. Each worker appends its centers' rows to one flat buffer (a
/// vector per center would cost allocations per center).
void harvest_center(const graph::CsrView& gp, const ClusterCover& cover,
                    std::span<const int> members, int a, double w_prev, double reach,
                    graph::DijkstraWorkspace& ws, std::vector<Candidate>& buf, Slice& slice) {
  slice.begin = slice.mid = slice.end = buf.size();
  // A center with no G'_{i-1} edge and no other member has a ball of {a}
  // and no member edge to cross, so there is nothing to harvest. Early
  // phases are mostly such singleton clusters.
  if (gp.neighbors(a).empty() && members.size() == 1) return;
  const graph::SpView sp = ws.bounded(gp, a, reach);
  for (int v : sp.touched()) {
    if (v <= a || cover.center_of[static_cast<std::size_t>(v)] != v) continue;
    const double d = sp.dist(v);
    if (d <= w_prev) buf.push_back({v, d, 0.0});
  }
  slice.mid = buf.size();
  for (int u : members) {
    for (const graph::Neighbor& nb : gp.neighbors(u)) {
      const int b = cover.center_of[static_cast<std::size_t>(nb.to)];
      if (b == a || b < a) continue;  // each unordered center pair once, from min center
      buf.push_back({b, sp.dist(b), 2.0 * cover.radius + nb.w + 1e-9});
    }
  }
  slice.end = buf.size();
}

}  // namespace

ClusterGraph build_cluster_graph(const graph::CsrView& gp, const ClusterCover& cover,
                                 double w_prev, graph::DijkstraWorkspace& ws,
                                 runtime::WorkerPool* pool) {
  if (w_prev <= 0.0) throw std::invalid_argument("build_cluster_graph: w_prev must be positive");
  const int n = gp.n();
  const int nc = static_cast<int>(cover.centers.size());
  ClusterGraph cg;

  // Members keyed by center, in vertex order: member_of[first[a]..first[a+1]).
  std::vector<int> first(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> member_of(static_cast<std::size_t>(n));
  for (int c : cover.center_of) ++first[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 1; c < first.size(); ++c) first[c] += first[c - 1];
  for (int v = 0; v < n; ++v) {
    int& slot = first[static_cast<std::size_t>(cover.center_of[static_cast<std::size_t>(v)])];
    member_of[static_cast<std::size_t>(slot++)] = v;
  }
  std::copy_backward(first.begin(), first.end() - 1, first.end());
  first[0] = 0;
  const auto members = [&](int a) {
    const auto i = static_cast<std::size_t>(a);
    return std::span<const int>(member_of.data() + first[i], member_of.data() + first[i + 1]);
  };

  // H's edges in commit order, for CsrView::assign. There is about one
  // inter edge per crossing G' edge, so the reserve rarely grows. Intra
  // edges first: center to every (distinct) member.
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) + gp.half_edges() / 2);
  for (int v = 0; v < n; ++v) {
    const int a = cover.center_of[static_cast<std::size_t>(v)];
    if (a == v) continue;
    const double w = cover.dist_to_center[static_cast<std::size_t>(v)];
    edges.push_back({a, v, std::max(w, 1e-15)});
  }
  cg.intra_edges = static_cast<int>(edges.size());

  // Inter-cluster edges. One bounded Dijkstra per center (radius (2δ+1)W per
  // Lemma 5) serves both membership conditions; the per-center sweeps walk
  // the settled ball and the center's member list, never all of V. The
  // searches are independent per center, so with a pool they run in
  // parallel; edges always commit sequentially in center order, making H
  // bit-identical at every thread count. An edge {a, b}, a < b, is committed
  // only by a (harvest or retries), so `linked[b] == a` marks it present.
  const double reach = (2.0 * cover.radius / w_prev + 1.0) * w_prev + 1e-12;
  std::vector<int> linked(static_cast<std::size_t>(n), -1);
  const auto add_inter = [&](int a, int b, double d) {
    linked[static_cast<std::size_t>(b)] = a;
    edges.push_back({a, b, d});
    cg.max_inter_weight = std::max(cg.max_inter_weight, d);
  };
  // Crossing edges whose sp(a,b) exceeded `reach` (phase-0 clique edges
  // escape the paper's premise) retry with a wider bound after the per-center
  // harvests are done. The cover still guarantees sp(a,b) <= radius + w(u,v)
  // + radius, so a bounded retry always succeeds and H keeps the Lemma 7
  // approximation quality.
  struct Retry {
    int a, b;
    double bound;
  };
  std::vector<Retry> retries;
  // Parallel harvests keep every center's rows until the commits, so each
  // worker's buffer starts at its share of the expected total: about one
  // cond-1 row per center (Lemma 6 bounds a center's inter edges) and one
  // cond-2 row per crossing G' edge. A build then allocates a fixed number
  // of times, whatever n; a streamed pass holds one center's rows at a time.
  const int workers = pool != nullptr ? pool->threads() : 1;
  std::vector<std::vector<Candidate>> buffers(static_cast<std::size_t>(workers));
  if (workers > 1) {
    for (std::vector<Candidate>& buf : buffers) {
      buf.reserve((static_cast<std::size_t>(nc) + gp.half_edges() / 2) /
                  static_cast<std::size_t>(workers) + 1);
    }
  }
  runtime::harvest_commit<Slice>(
      pool, ws, nc,
      [&](graph::DijkstraWorkspace& hws, int worker, int i, Slice& slice) {
        const int a = cover.centers[static_cast<std::size_t>(i)];
        slice.worker = worker;
        harvest_center(gp, cover, members(a), a, w_prev, reach, hws,
                       buffers[static_cast<std::size_t>(worker)], slice);
      },
      [&](int i, const Slice& slice) {
        const int a = cover.centers[static_cast<std::size_t>(i)];
        std::vector<Candidate>& buf = buffers[static_cast<std::size_t>(slice.worker)];
        for (std::size_t k = slice.begin; k < slice.mid; ++k) add_inter(a, buf[k].b, buf[k].d);
        for (std::size_t k = slice.mid; k < slice.end; ++k) {
          const Candidate& c = buf[k];
          if (linked[static_cast<std::size_t>(c.b)] == a) continue;
          if (c.d == graph::kInf) {
            retries.push_back({a, c.b, c.retry_bound});
            continue;
          }
          add_inter(a, c.b, c.d);
        }
        // A slice at its buffer's tail is consumed: a streamed (serial) pass
        // commits each center right after its harvest, so its buffer stays
        // one center's size. Parallel commits run in item order, so every
        // earlier slice of the worker's chunk is consumed by then too.
        if (slice.end == buf.size()) buf.resize(slice.begin);
      });
  // A retried pair was not committed in a's harvest: every crossing into b
  // read the same kInf, and cond-1 takes only reached centers. a's retries
  // run back to back, so the stamp still tells whether one of them did.
  for (const Retry& r : retries) {
    if (linked[static_cast<std::size_t>(r.b)] == r.a) continue;
    const double d = ws.distance(gp, r.a, r.b, r.bound);
    if (d == graph::kInf) continue;  // unreachable for a valid cover
    add_inter(r.a, r.b, d);
  }
  cg.inter_edges = static_cast<int>(edges.size()) - cg.intra_edges;
  cg.h.assign(n, edges);
  for (int a : cover.centers) {  // a's row: its other members, then inter edges
    const std::size_t inter = cg.h.neighbors(a).size() + 1 - members(a).size();
    cg.max_inter_degree = std::max(cg.max_inter_degree, static_cast<int>(inter));
  }
  if (obs::enabled()) {
    const CgMetrics& m = cg_metrics();
    obs::counter_add(m.centers, nc);
    obs::counter_add(m.inter_edges, cg.inter_edges);
    obs::counter_add(m.intra_edges, cg.intra_edges);
    obs::counter_add(m.retries, static_cast<std::int64_t>(retries.size()));
  }
  return cg;
}

double query_on_h(graph::DijkstraWorkspace& ws, const graph::CsrView& h,
                  const graph::EuclideanPotential& potential, int x, int y, double bound,
                  int* hops_out) {
  const graph::SpView sp = ws.bounded_to(h, x, y, bound, potential);
  const double d = sp.dist(y);
  if (hops_out != nullptr) *hops_out = sp.path_hops(y);
  return d;
}

}  // namespace localspan::cluster
