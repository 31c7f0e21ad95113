#include "core/relaxed_greedy.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>
#include <tuple>

#include "core/greedy.hpp"
#include "graph/components.hpp"
#include "mis/luby.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::core {

namespace detail {

CoveredCone::CoveredCone(double angle)
    : theta(angle),
      cos_theta(std::cos(angle)),
      band(angle >= 0.0 && angle <= std::numbers::pi ? 1e-12 : graph::kInf) {}

bool is_covered_edge(const geom::Points& pts, double alpha, const graph::CsrView& gp,
                     const PhaseEdge& e, const CoveredCone& cone) {
  // Squared lengths order like lengths, so |uz| <= |uv| needs a sqrt only
  // when the squares say otherwise (sqrt may round them equal).
  const double sq_uv = pts.sq_distance(e.u, e.v);
  const double duv = std::sqrt(sq_uv);
  const auto test_side = [&](int u, int v) {
    // Looking for z with {u,z} in G'_{i-1}, |vz| <= alpha, angle vuz <= theta.
    for (const graph::Neighbor& nb : gp.neighbors(u)) {
      const int z = nb.to;
      if (z == v) continue;
      const double sq_uz = pts.sq_distance(u, z);
      if (sq_uz == 0.0) continue;                             // degenerate ray
      if (sq_uz > sq_uv && std::sqrt(sq_uz) > duv) continue;  // Lemma 3 needs |uz| <= |uv|
      if (pts.distance(v, z) > alpha) continue;
      // acos(c) <= θ is decided by the cosine c alone when c is more than
      // 1e-12 from cos θ: acos falls with slope at least 1 in magnitude, so
      // the angle is then more than ~1e-12 from θ, far beyond the ulp-level
      // error of acos and of cos θ. Only a cosine inside that band pays for
      // acos, so the result is bit-identical to angle_at(u, v, z) <= θ.
      const double c = pts.cos_at(u, v, z);
      if (c > cone.cos_theta + cone.band) return true;
      if (c >= cone.cos_theta - cone.band && std::acos(c) <= cone.theta) return true;
    }
    return false;
  };
  return test_side(e.u, e.v) || test_side(e.v, e.u);
}

std::vector<PhaseEdge> select_query_edges(const std::vector<PhaseEdge>& candidates,
                                          const cluster::ClusterCover& cover, double t,
                                          int* per_cluster_max) {
  // One sort by (cluster pair, objective, u, v, candidate index): the first
  // row of each pair is the lexicographic minimum by (objective, (u, v)),
  // ties going to the earliest candidate, and the pairs come out ascending.
  struct Row {
    int lo, hi;  ///< the pair's centers, lo <= hi.
    double objective;
    int u, v, index;
  };
  std::vector<Row> rows;
  rows.reserve(candidates.size());
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const PhaseEdge& e = candidates[static_cast<std::size_t>(i)];
    const auto [lo, hi] = std::minmax(cover.center_of[static_cast<std::size_t>(e.u)],
                                      cover.center_of[static_cast<std::size_t>(e.v)]);
    rows.push_back({lo, hi,
                    t * e.w - cover.dist_to_center[static_cast<std::size_t>(e.u)] -
                        cover.dist_to_center[static_cast<std::size_t>(e.v)],
                    e.u, e.v, i});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.lo, a.hi, a.objective, a.u, a.v, a.index) <
           std::tie(b.lo, b.hi, b.objective, b.u, b.v, b.index);
  });
  std::vector<PhaseEdge> selected;
  std::vector<int> incident(cover.center_of.size(), 0);
  int most = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& r = rows[k];
    if (k > 0 && r.lo == rows[k - 1].lo && r.hi == rows[k - 1].hi) continue;
    selected.push_back(candidates[static_cast<std::size_t>(r.index)]);
    most = std::max(most, ++incident[static_cast<std::size_t>(r.lo)]);
    if (r.hi != r.lo) most = std::max(most, ++incident[static_cast<std::size_t>(r.hi)]);
  }
  if (per_cluster_max != nullptr) *per_cluster_max = most;
  return selected;
}

std::vector<PhaseEdge> answer_queries(graph::DijkstraWorkspace& ws, const graph::CsrView& h,
                                      const geom::Points& pts,
                                      const std::vector<PhaseEdge>& queries, double t,
                                      int* max_hops, runtime::WorkerPool* pool) {
  // Each query is an independent goal-directed search on the frozen H,
  // committed in query order, so to_add and the hop statistic are identical
  // for every thread count (max over ints is order-insensitive anyway).
  // h(x) = ρ·|xy| with ρ = min over H's edges of w/|uv| is admissible: an
  // x–y path of H weighs Σ w ≥ ρ·Σ|uv| ≥ ρ·|xy| by the triangle inequality,
  // whatever the weights are (a G'_{i-1} path sum, under any transform).
  const graph::EuclideanPotential potential = graph::euclidean_potential(h, pts);
  struct Answer {
    double dist;
    int hops;
  };
  std::vector<PhaseEdge> to_add;
  int worst_hops = 0;
  runtime::harvest_commit<Answer>(
      pool, ws, static_cast<int>(queries.size()),
      [&](graph::DijkstraWorkspace& qws, int, int i, Answer& a) {
        const PhaseEdge& q = queries[static_cast<std::size_t>(i)];
        a.dist = cluster::query_on_h(qws, h, potential, q.u, q.v, t * q.w, &a.hops);
      },
      [&](int i, const Answer& a) {
        const PhaseEdge& q = queries[static_cast<std::size_t>(i)];
        if (a.dist <= t * q.w) {
          worst_hops = std::max(worst_hops, a.hops);  // answered positively on H
        } else {
          to_add.push_back(q);
        }
      });
  if (max_hops != nullptr) *max_hops = worst_hops;
  return to_add;
}

graph::Graph redundancy_conflict_graph(graph::DijkstraWorkspace& ws, const graph::CsrView& h,
                                       const std::vector<PhaseEdge>& added, double t1,
                                       runtime::WorkerPool* pool) {
  const int k = static_cast<int>(added.size());
  graph::Graph j(k);
  if (k < 2) return j;
  double max_w = 0.0;
  for (const PhaseEdge& e : added) max_w = std::max(max_w, e.w);
  // A conflict reads no distance past `settle`, so each ball is the t1·max_w
  // search stopped there (the argument is in relaxed_greedy.hpp).
  const double bound = t1 * max_w;
  const double settle = std::max(0.0, t1 - 1.0 + 1e-9) * max_w;

  // Index the distinct endpoints of `added` and the edges incident to each.
  std::vector<int> index_of(static_cast<std::size_t>(h.n()), -1);
  std::vector<int> endpoints;
  for (const PhaseEdge& e : added) {
    for (int p : {e.u, e.v}) {
      if (index_of[static_cast<std::size_t>(p)] == -1) {
        index_of[static_cast<std::size_t>(p)] = static_cast<int>(endpoints.size());
        endpoints.push_back(p);
      }
    }
  }
  const int ne = static_cast<int>(endpoints.size());
  std::vector<std::vector<int>> edges_of(static_cast<std::size_t>(ne));
  for (int a = 0; a < k; ++a) {
    edges_of[static_cast<std::size_t>(index_of[static_cast<std::size_t>(added[static_cast<std::size_t>(a)].u)])].push_back(a);
    edges_of[static_cast<std::size_t>(index_of[static_cast<std::size_t>(added[static_cast<std::size_t>(a)].v)])].push_back(a);
  }

  // One bounded search per endpoint, kept *sparse*: only distances to other
  // endpoints survive (harvested from the touched list, so each row costs
  // O(|ball|), not O(k) — and nothing is O(n)). Entries past `settle` hold
  // tentative distances, which are upper bounds and so fail the pairing
  // tests, as the true ones do; those after the last entry within `settle`
  // cannot come first for any partner (see the sweep) and are dropped. The
  // rows are independent pure functions of (h, endpoint, bound, settle), so
  // with a pool they are harvested in parallel; the pair sweep below reads
  // them in the fixed edge order either way. Each worker appends its rows to
  // one flat buffer (a vector per row would cost an allocation per
  // endpoint), so a row is a slice of its worker's buffer.
  using Entry = std::pair<int, double>;
  struct Slice {
    int worker, begin, end;
  };
  std::vector<std::vector<Entry>> buffers(
      static_cast<std::size_t>(pool != nullptr ? pool->threads() : 1));
  std::vector<Slice> slices(static_cast<std::size_t>(ne));
  runtime::harvest_commit<Slice>(
      pool, ws, ne,
      [&](graph::DijkstraWorkspace& wws, int worker, int r, Slice& slice) {
        std::vector<Entry>& buf = buffers[static_cast<std::size_t>(worker)];
        const graph::SpView sp =
            wws.bounded(h, endpoints[static_cast<std::size_t>(r)], bound, settle);
        const std::size_t begin = buf.size();
        std::size_t near_end = begin;
        for (int v : sp.touched()) {
          const int q = index_of[static_cast<std::size_t>(v)];
          if (q == -1) continue;
          buf.push_back({q, sp.dist(v)});
          if (buf.back().second <= settle) near_end = buf.size();
        }
        buf.resize(near_end);
        slice = {worker, static_cast<int>(begin), static_cast<int>(near_end)};
      },
      [&](int r, const Slice& slice) { slices[static_cast<std::size_t>(r)] = slice; });
  const auto row_of = [&](int endpoint) {
    const Slice& sl =
        slices[static_cast<std::size_t>(index_of[static_cast<std::size_t>(endpoint)])];
    return std::span<const Entry>(buffers[static_cast<std::size_t>(sl.worker)].data() + sl.begin,
                                  static_cast<std::size_t>(sl.end - sl.begin));
  };

  // Enumerate only pairs that can possibly conflict. Both §2.2.5 pairings
  // need sp(e.u, f.u) or sp(e.u, f.v) within `settle`, so every conflict
  // partner of edge a = {e.u, e.v} has an endpoint in e.u's row — the
  // all-pairs O(k^2) sweep becomes output-sensitive in the ball sizes. J
  // gets a's partners in the order the full t1·max_w row first lists an
  // endpoint of theirs. A row is a prefix of that full row and holds each
  // partner's near endpoint, so the first one it lists is that one too.
  std::vector<double> du(static_cast<std::size_t>(ne)), dv(static_cast<std::size_t>(ne));
  std::vector<int> du_stamp(static_cast<std::size_t>(ne), -1);
  std::vector<int> dv_stamp(static_cast<std::size_t>(ne), -1);
  std::vector<int> seen(static_cast<std::size_t>(k), -1);
  for (int a = 0; a < k; ++a) {
    const PhaseEdge& e = added[static_cast<std::size_t>(a)];
    const std::span<const Entry> row_u = row_of(e.u);
    for (const auto& [q, d] : row_u) {
      du[static_cast<std::size_t>(q)] = d;
      du_stamp[static_cast<std::size_t>(q)] = a;
    }
    for (const auto& [q, d] : row_of(e.v)) {
      dv[static_cast<std::size_t>(q)] = d;
      dv_stamp[static_cast<std::size_t>(q)] = a;
    }
    const auto d_from_u = [&](int q) {
      return du_stamp[static_cast<std::size_t>(q)] == a ? du[static_cast<std::size_t>(q)]
                                                        : graph::kInf;
    };
    const auto d_from_v = [&](int q) {
      return dv_stamp[static_cast<std::size_t>(q)] == a ? dv[static_cast<std::size_t>(q)]
                                                        : graph::kInf;
    };
    for (const auto& [q, dq] : row_u) {
      for (int b : edges_of[static_cast<std::size_t>(q)]) {
        if (b <= a || seen[static_cast<std::size_t>(b)] == a) continue;
        seen[static_cast<std::size_t>(b)] = a;
        const PhaseEdge& f = added[static_cast<std::size_t>(b)];
        const int fu = index_of[static_cast<std::size_t>(f.u)];
        const int fv = index_of[static_cast<std::size_t>(f.v)];
        // Conditions (i)+(ii) of §2.2.5, tried under both endpoint pairings
        // (sp is symmetric, so each pairing shares one connection sum S).
        const double s1 = d_from_u(fu) + d_from_v(fv);
        const double s2 = d_from_u(fv) + d_from_v(fu);
        const bool pairing1 = s1 + f.w <= t1 * e.w && s1 + e.w <= t1 * f.w;
        const bool pairing2 = s2 + f.w <= t1 * e.w && s2 + e.w <= t1 * f.w;
        if (pairing1 || pairing2) j.add_edge(a, b, 1.0);
      }
    }
  }
  return j;
}

std::vector<int> redundant_edge_removal(graph::DijkstraWorkspace& ws, const graph::CsrView& h,
                                        const std::vector<PhaseEdge>& added, double t1,
                                        FnRef<std::vector<int>(const graph::Graph&)> mis,
                                        runtime::WorkerPool* pool) {
  const graph::Graph j = redundancy_conflict_graph(ws, h, added, t1, pool);
  if (j.m() == 0) return {};
  const std::vector<int> keep = mis(j);
  std::vector<char> kept(static_cast<std::size_t>(j.n()), 0);
  for (int v : keep) kept[static_cast<std::size_t>(v)] = 1;
  std::vector<int> remove;
  for (int v = 0; v < j.n(); ++v) {
    // Only nodes participating in a redundant pair are in V(J) per the
    // paper; isolated nodes here correspond to non-participating edges and
    // are always kept.
    if (!kept[static_cast<std::size_t>(v)] && j.degree(v) > 0) remove.push_back(v);
  }
  return remove;
}

}  // namespace detail

namespace {

using detail::PhaseEdge;

/// Per-phase counters (deterministic at every thread count — they mirror
/// the serial-order PhaseStats fields) and phase spans. The span names are
/// the declared phase schema of the relaxed family in builtin_algorithms.
struct RgMetrics {
  obs::MetricId edges_examined = obs::counter_id("rg.edges_examined");
  obs::MetricId edges_already = obs::counter_id("rg.edges_already_in_spanner");
  obs::MetricId edges_covered = obs::counter_id("rg.edges_covered");
  obs::MetricId edges_candidate = obs::counter_id("rg.edges_candidate");
  obs::MetricId queries = obs::counter_id("rg.queries");
  obs::MetricId edges_added = obs::counter_id("rg.edges_added");
  obs::MetricId edges_removed = obs::counter_id("rg.edges_removed");
  obs::MetricId heap_pushes = obs::counter_id("rg.heap_pushes");
  obs::MetricId heap_pops = obs::counter_id("rg.heap_pops");
  obs::MetricId phase0 = obs::span_id("rg.phase0");
  obs::MetricId bins_span = obs::span_id("rg.bins");
  obs::MetricId snapshot_span = obs::span_id("rg.snapshot");
  obs::MetricId cover_span = obs::span_id("rg.cover");
  obs::MetricId filter_span = obs::span_id("rg.filter");
  obs::MetricId select_span = obs::span_id("rg.select");
  obs::MetricId cluster_graph_span = obs::span_id("rg.cluster_graph");
  obs::MetricId queries_span = obs::span_id("rg.queries");
  obs::MetricId redundancy_span = obs::span_id("rg.redundancy");
};

const RgMetrics& rg_metrics() {
  static const RgMetrics m;
  return m;
}

std::function<double(double)> make_transform(const RelaxedGreedyOptions& opts) {
  if (opts.weight_transform) return opts.weight_transform;
  return [](double len) { return len; };
}

/// Phase 0 (§2.1): components of G_0 are cliques (Lemma 1); span each with
/// SEQ-GREEDY and merge. Each component's chosen edge set is a pure function
/// of (members, weights), so with a pool the per-component SEQ-GREEDY runs
/// are harvested in parallel (dynamically scheduled — component sizes are
/// skewed) and the spanner edges committed in component order, bit-identical
/// to the serial path.
PhaseStats process_short_edges(const ubg::UbgInstance& inst, const std::vector<graph::Edge>& bin0,
                               const std::function<double(double)>& transform,
                               const Params& params, int clique_cap, graph::Graph& spanner,
                               int* component_count, graph::DijkstraWorkspace& ws,
                               runtime::WorkerPool* pool) {
  PhaseStats st;
  st.bin = 0;
  st.w_hi = params.alpha / inst.g.n();
  st.edges_in_bin = static_cast<int>(bin0.size());
  graph::Graph g0(inst.g.n());
  for (const graph::Edge& e : bin0) g0.add_edge(e.u, e.v, e.w);
  const std::vector<std::vector<int>> groups = graph::connected_components(g0).groups();
  const auto weight = [&](int u, int v) {
    return transform(std::max(inst.points.distance(u, v), 1e-12));
  };
  std::vector<const std::vector<int>*> work;
  for (const std::vector<int>& members : groups) {
    if (members.size() >= 2) work.push_back(&members);
  }
  std::vector<std::vector<graph::Edge>> chosen(work.size());
  runtime::scatter_commit(
      pool, ws, static_cast<int>(work.size()),
      [&](graph::DijkstraWorkspace&, int, int c) {
        const std::vector<int>& members = *work[static_cast<std::size_t>(c)];
        if (static_cast<int>(members.size()) <= clique_cap) {
          chosen[static_cast<std::size_t>(c)] = seq_greedy_clique(members, weight, params.t);
        } else {
          // Safety valve for adversarially dense components: greedy over the
          // component-internal UBG edges (a superset of spanner needs; see
          // options doc). Edges leaving the component belong to later bins.
          std::vector<char> in_comp(static_cast<std::size_t>(inst.g.n()), 0);
          for (int u : members) in_comp[static_cast<std::size_t>(u)] = 1;
          graph::Graph local(inst.g.n());
          for (int u : members) {
            for (const graph::Neighbor& nb : inst.g.neighbors(u)) {
              if (u < nb.to && in_comp[static_cast<std::size_t>(nb.to)]) {
                local.add_edge(u, nb.to, weight(u, nb.to));
              }
            }
          }
          chosen[static_cast<std::size_t>(c)] = seq_greedy(local, params.t).edges();
        }
      },
      [&](int c) {
        for (const graph::Edge& e : chosen[static_cast<std::size_t>(c)]) {
          if (spanner.add_edge(e.u, e.v, e.w)) ++st.added;
        }
      });
  if (component_count != nullptr) *component_count = static_cast<int>(work.size());
  return st;
}

}  // namespace

namespace detail {

RelaxedGreedyResult run_relaxed_phases(const ubg::UbgInstance& inst, const Params& params,
                                       const RelaxedGreedyOptions& opts, PhaseSteps steps) {
  params.validate();
  if (std::abs(params.alpha - inst.config.alpha) > 1e-12) {
    throw std::invalid_argument("relaxed greedy: params.alpha != instance alpha");
  }
  const int n = inst.g.n();
  const auto transform = make_transform(opts);

  // Shortest-path scratch for the whole run: one workspace (caller-owned
  // when opts.workspace is set, so repeated runs reuse the same buffers) and
  // one CSR snapshot of G'_{i-1} per phase for the read-heavy cover/cluster
  // passes.
  graph::DijkstraWorkspace run_ws;
  graph::DijkstraWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : run_ws;
  graph::CsrView csr;

  // Worker team for the embarrassingly parallel passes (null: serial).
  // Every result is bit-identical across thread counts — see
  // RelaxedGreedyOptions.
  runtime::WorkerPool* const pool = opts.worker_pool;

  // Materialize edges with Euclidean lengths and active weights.
  const std::vector<graph::Edge> ge = inst.g.edges();
  std::vector<graph::Edge> weighted;
  std::vector<double> lens;
  weighted.reserve(ge.size());
  lens.reserve(ge.size());
  for (const graph::Edge& e : ge) {
    weighted.push_back({e.u, e.v, transform(e.w)});
    lens.push_back(e.w);  // generator stores Euclidean lengths as weights
  }

  const BinSchema schema(params.alpha, params.r, n);
  const auto bins = [&] {
    const obs::Span span(rg_metrics().bins_span);
    return group_edges_by_bin(weighted, schema, lens, pool);
  }();

  RelaxedGreedyResult result{graph::Graph(n), params, {}, 0, 0,
                             static_cast<int>(bins.size())};

  // Phase 0.
  {
    const obs::Span span(rg_metrics().phase0);
    result.phases.push_back(process_short_edges(inst, bins[0], transform, params,
                                                opts.phase0_clique_cap, result.spanner,
                                                &result.phase0_components, ws, pool));
    obs::counter_add(rg_metrics().edges_examined, result.phases.back().edges_in_bin);
    obs::counter_add(rg_metrics().edges_added, result.phases.back().added);
  }

  const detail::CoveredCone cone(params.theta);

  // Phases i >= 1, skipping empty bins (recomputation is from G' alone, so
  // skipping is a pure optimization).
  for (int i = 1; i < static_cast<int>(bins.size()); ++i) {
    const auto& bin = bins[static_cast<std::size_t>(i)];
    if (bin.empty()) continue;
    ++result.nonempty_bins;

    PhaseStats st;
    st.bin = i;
    st.w_lo = schema.W(i - 1);
    st.w_hi = schema.W(i);
    st.edges_in_bin = static_cast<int>(bin.size());

    const double w_prev = transform(schema.W(i - 1));
    const double radius = params.delta * w_prev;

    // (i) cluster cover of G'_{i-1} (the injected step), given a frozen CSR
    // snapshot of G'_{i-1} that the cluster graph reuses.
    {
      const obs::Span span(rg_metrics().snapshot_span);
      csr.assign(result.spanner);
    }
    const cluster::ClusterCover cover = [&] {
      const obs::Span span(rg_metrics().cover_span);
      return steps.cover(csr, radius, ws);
    }();
    st.clusters = static_cast<int>(cover.centers.size());

    // (ii) covered-edge filter + candidate selection on the G'_{i-1}
    // snapshot. Each edge's status is a pure function of (inst, G'_{i-1},
    // edge), so the θ-cone tests run in parallel; candidates are committed
    // in bin order.
    const std::vector<PhaseEdge> candidates = [&] {
      const obs::Span span(rg_metrics().filter_span);
      enum : char { kAlready, kCovered, kCandidate };
      struct Classified {
        char status;
        double len;  ///< Euclidean length, computed once.
      };
      std::vector<PhaseEdge> out;
      runtime::harvest_commit<Classified>(
          pool, ws, static_cast<int>(bin.size()),
          [&](graph::DijkstraWorkspace&, int, int i, Classified& c) {
            const graph::Edge& e = bin[static_cast<std::size_t>(i)];
            c = {kCandidate, 0.0};
            if (std::ranges::any_of(csr.neighbors(e.u),
                                    [&](const graph::Neighbor& nb) { return nb.to == e.v; })) {
              c.status = kAlready;
              return;
            }
            c.len = inst.points.distance(e.u, e.v);
            if (opts.covered_edge_filter &&
                detail::is_covered_edge(inst.points, inst.config.alpha, csr,
                                        {e.u, e.v, c.len, e.w}, cone)) {
              c.status = kCovered;
            }
          },
          [&](int i, const Classified& c) {
            const graph::Edge& e = bin[static_cast<std::size_t>(i)];
            if (c.status == kAlready) {
              ++st.already_in_spanner;
            } else if (c.status == kCovered) {
              ++st.covered;
            } else {
              out.push_back({e.u, e.v, c.len, e.w});
            }
          });
      return out;
    }();
    st.candidates = static_cast<int>(candidates.size());

    const std::vector<PhaseEdge> queries = [&] {
      const obs::Span span(rg_metrics().select_span);
      return detail::select_query_edges(candidates, cover, params.t,
                                        &st.max_query_edges_per_cluster);
    }();
    st.queries = static_cast<int>(queries.size());

    // (iii) cluster graph of G'_{i-1} (same snapshot as the cover).
    const cluster::ClusterGraph cg = [&] {
      const obs::Span span(rg_metrics().cluster_graph_span);
      return cluster::build_cluster_graph(csr, cover, w_prev, ws, pool);
    }();
    st.max_inter_degree = cg.max_inter_degree;
    st.max_inter_weight = cg.max_inter_weight;

    // (iv) shortest-path queries on H (lazy update: all answered before adds).
    const std::vector<PhaseEdge> to_add = [&] {
      const obs::Span span(rg_metrics().queries_span);
      return detail::answer_queries(ws, cg.h, inst.points, queries, params.t,
                                    &st.max_query_hops, pool);
    }();
    for (const PhaseEdge& e : to_add) result.spanner.add_edge(e.u, e.v, e.w);
    st.added = static_cast<int>(to_add.size());

    // (v) redundant edge removal.
    if (opts.redundancy_removal && to_add.size() >= 2) {
      const obs::Span span(rg_metrics().redundancy_span);
      const std::vector<int> removal =
          detail::redundant_edge_removal(ws, cg.h, to_add, params.t1, steps.mis, pool);
      for (int idx : removal) {
        const PhaseEdge& e = to_add[static_cast<std::size_t>(idx)];
        result.spanner.remove_edge(e.u, e.v);
      }
      st.removed = static_cast<int>(removal.size());
    }

    if (obs::enabled()) {
      const RgMetrics& m = rg_metrics();
      obs::counter_add(m.edges_examined, st.edges_in_bin);
      obs::counter_add(m.edges_already, st.already_in_spanner);
      obs::counter_add(m.edges_covered, st.covered);
      obs::counter_add(m.edges_candidate, st.candidates);
      obs::counter_add(m.queries, st.queries);
      obs::counter_add(m.edges_added, st.added);
      obs::counter_add(m.edges_removed, st.removed);
      const auto [pushes, pops] = runtime::take_heap_ops(ws, pool);
      obs::counter_add(m.heap_pushes, pushes);
      obs::counter_add(m.heap_pops, pops);
    }

    steps.after_phase(st);
    result.phases.push_back(st);
  }
  return result;
}

}  // namespace detail

RelaxedGreedyResult relaxed_greedy(const ubg::UbgInstance& inst, const Params& params,
                                   const RelaxedGreedyOptions& opts) {
  // §2.2.5 symmetry breaking: the deterministic pool-parallel Luby MIS, so
  // the redundancy pass — the last serial residue of the pipeline — runs on
  // the same worker team as everything else. The seed is a fixed constant:
  // the sequential algorithm is a deterministic function of the instance,
  // and any MIS of the conflict graph preserves the §2.2.5 guarantees.
  constexpr std::uint64_t kMisSeed = 0x10CA15FA2006ULL;
  return detail::run_relaxed_phases(
      inst, params, opts,
      {.cover = [](const graph::CsrView& csr, double radius, graph::DijkstraWorkspace& ws) {
         return cluster::sequential_cover(csr, radius, ws);
       },
       .mis = [&](const graph::Graph& j) {
         return mis::luby_mis_parallel(j, kMisSeed, nullptr, opts.worker_pool);
       },
       .after_phase = [](const PhaseStats&) {}});
}

}  // namespace localspan::core
