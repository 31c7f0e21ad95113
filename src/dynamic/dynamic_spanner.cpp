#include "dynamic/dynamic_spanner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace localspan::dynamic {

namespace {

/// Deduplicate a small id set in place.
void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Engine-level metrics. dyn.ball_size / dyn.regions / dyn.region_ball /
/// dyn.region_events and every counter are deterministic at any thread
/// count; the *_us/_ns series are wall-clock. dyn.region_harvest_us is the
/// per-region harvest cost the flat BatchStats sums away (the batch CLI
/// surfaces its p50/p99).
struct DynMetrics {
  obs::MetricId events = obs::counter_id("dyn.events");
  obs::MetricId batches = obs::counter_id("dyn.batches");
  obs::MetricId fallbacks = obs::counter_id("dyn.fallbacks");
  obs::MetricId edges_added = obs::counter_id("dyn.edges_added");
  obs::MetricId edges_removed = obs::counter_id("dyn.edges_removed");
  obs::MetricId merged_events = obs::counter_id("dyn.merged_events");
  obs::MetricId heap_pushes = obs::counter_id("dyn.heap_pushes");
  obs::MetricId heap_pops = obs::counter_id("dyn.heap_pops");
  obs::MetricId ball_size = obs::histogram_id("dyn.ball_size");
  obs::MetricId certify_scope = obs::histogram_id("dyn.certify_scope");
  obs::MetricId regions = obs::histogram_id("dyn.regions");
  obs::MetricId region_ball = obs::histogram_id("dyn.region_ball");
  obs::MetricId region_events = obs::histogram_id("dyn.region_events");
  obs::MetricId region_harvest_us = obs::histogram_id("dyn.region_harvest_us");
  obs::MetricId apply_span = obs::span_id("dyn.apply");
  obs::MetricId batch_span = obs::span_id("dyn.apply_batch");
  obs::MetricId ball_span = obs::span_id("dyn.ball");
  obs::MetricId splice_span = obs::span_id("dyn.splice");
  obs::MetricId certify_span = obs::span_id("dyn.certify");
  obs::MetricId region_span = obs::span_id("dyn.region_harvest");
  obs::MetricId full_span = obs::span_id("dyn.full_recompute");
};

const DynMetrics& dyn_metrics() {
  static const DynMetrics m;
  return m;
}

/// Drain heap tallies accumulated by engine-level searches (dirty-ball and
/// certify sweeps) into dyn.heap_*; the nested relaxed_greedy runs flush
/// their own workspaces into rg.heap_* at phase boundaries.
void flush_heap_ops(graph::DijkstraWorkspace& ws, runtime::WorkerPool* pool) {
  const auto [pushes, pops] = runtime::take_heap_ops(ws, pool);
  obs::counter_add(dyn_metrics().heap_pushes, pushes);
  obs::counter_add(dyn_metrics().heap_pops, pops);
}

}  // namespace

DynamicSpanner::DynamicSpanner(ubg::UbgInstance inst, const core::Params& params,
                               DynamicOptions opts)
    : inst_(std::move(inst)),
      params_(params),
      opts_(std::move(opts)),
      spanner_(0),
      // Cell side 1.0: connect_radius <= 1, so one adjacent-cell sweep
      // covers every possible radio link. Every initial node is live.
      grid_(inst_.points, 1.0) {
  params_.validate();
  if (std::abs(params_.alpha - inst_.config.alpha) > 1e-12) {
    throw std::invalid_argument("DynamicSpanner: params.alpha != instance alpha");
  }
  if (opts_.connect_radius < inst_.config.alpha - 1e-12 || opts_.connect_radius > 1.0 + 1e-12) {
    throw std::invalid_argument("DynamicSpanner: connect_radius must be in [alpha, 1]");
  }
  wmax_ = active_weight(1.0);
  if (!(wmax_ > 0.0) || !std::isfinite(wmax_)) {
    throw std::invalid_argument("DynamicSpanner: weight transform must map 1 to a positive weight");
  }
  witness_bound_ = params_.t * wmax_;
  core_radius_ = (params_.t + 1.0) * wmax_;
  ball_radius_ = core_radius_ + witness_bound_;
  if (opts_.ball_radius_override > 0.0) {
    ball_radius_ = opts_.ball_radius_override;
    core_radius_ = std::max(0.0, ball_radius_ - witness_bound_);
  }
  active_.assign(static_cast<std::size_t>(inst_.g.n()), 1);
  active_count_ = inst_.g.n();
  scratch_in_scope_.assign(static_cast<std::size_t>(inst_.g.n()), 0);
  local_id_.assign(static_cast<std::size_t>(inst_.g.n()), -1);
  in_core_.assign(static_cast<std::size_t>(inst_.g.n()), 0);
  // Every relaxed_greedy run (local repairs and full recomputes) shares one
  // workspace so the steady state reuses its buffers. One long-lived worker
  // team serves the local reruns and the certify sweep; spawning it once
  // keeps the per-event steady state thread- and allocation-free.
  opts_.greedy.workspace = &greedy_ws_;
  const int threads = runtime::resolve_threads(opts_.threads);
  if (threads > 1) pool_.emplace(threads);
  opts_.greedy.worker_pool = pool_ ? &*pool_ : nullptr;
  // Per-worker greedy options for the batch path's concurrent region
  // reruns: each worker repairs its regions with a *serial* relaxed_greedy
  // against its own pool workspace (no nested dispatch). Built once here so
  // a warmed apply_batch never copies the std::function weight transform.
  if (pool_) {
    worker_greedy_opts_.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      core::RelaxedGreedyOptions o = opts_.greedy;
      o.workspace = &pool_->workspace(w);
      o.worker_pool = nullptr;
      worker_greedy_opts_.push_back(std::move(o));
    }
  }
  rebuild();
}

double DynamicSpanner::active_weight(double len) const {
  return opts_.greedy.weight_transform ? opts_.greedy.weight_transform(len) : len;
}

geom::Point DynamicSpanner::parked_position(int v) const {
  // Dead slots sit on the negative side of axis 0, 2.0 apart — beyond
  // distance 1 of the deployment quadrant and of each other, so the
  // instance stays a valid α-UBG with the slot correctly isolated.
  geom::Point p(inst_.config.dim);
  p[0] = -(2.0 + 2.0 * v);
  return p;
}

bool DynamicSpanner::is_active(int v) const {
  return v >= 0 && v < inst_.g.n() && active_[static_cast<std::size_t>(v)] != 0;
}

void DynamicSpanner::ensure_slot(int v) {
  while (inst_.g.n() <= v) {
    const int id = inst_.g.add_vertex();
    inst_.points.push_back(parked_position(id));
    active_.push_back(0);
    spanner_.add_vertex();
    ++inst_.config.n;
    scratch_in_scope_.push_back(0);
    local_id_.push_back(-1);
    in_core_.push_back(0);
  }
}

void DynamicSpanner::connect_neighbors(int node, std::vector<int>* touched) {
  grid_.for_neighbors_within(node, opts_.connect_radius, [&](int u, double d) {
    if (u == node) return;
    inst_.g.add_edge(node, u, std::max(d, 1e-12));
    touched->push_back(u);
  });
}

void DynamicSpanner::check_position(const geom::Point& pos) const {
  if (pos.dim() != inst_.config.dim) {
    throw std::invalid_argument("DynamicSpanner: event position dimension mismatch");
  }
  for (int k = 0; k < pos.dim(); ++k) {
    if (!std::isfinite(pos[k]) || pos[k] < 0.0) {
      throw std::invalid_argument(
          "DynamicSpanner: positions must be finite and non-negative (the deployment quadrant)");
    }
  }
}

void DynamicSpanner::full_recompute() {
  const CommitNotifier notify(*this);
  rebuild();
}

void DynamicSpanner::rebuild() {
  const obs::Span span(dyn_metrics().full_span);
  spanner_ = core::relaxed_greedy(inst_, params_, opts_.greedy).spanner;
}

graph::SpView DynamicSpanner::ball(const std::vector<int>& seeds, double radius) const {
  const std::function<double(double)>& tf = opts_.greedy.weight_transform;
  return tf ? ws_.multi_bounded(inst_.g, seeds, radius, graph::TransformRef{&tf})
            : ws_.multi_bounded(inst_.g, seeds, radius);
}

void DynamicSpanner::ingest_event(const ChurnEvent& ev, int* spanner_removed,
                                  std::vector<int>* touched) {
  std::vector<int>& old_nbrs = scratch_old_nbrs_;
  old_nbrs.clear();
  switch (ev.kind) {
    case EventKind::kJoin: {
      if (ev.node < 0) throw std::invalid_argument("DynamicSpanner: negative node id");
      if (is_active(ev.node)) throw std::invalid_argument("DynamicSpanner: join of a live node");
      check_position(ev.pos);
      ensure_slot(ev.node);
      inst_.points.set(ev.node, ev.pos);
      active_[static_cast<std::size_t>(ev.node)] = 1;
      ++active_count_;
      grid_.insert(ev.node);
      touched->push_back(ev.node);
      connect_neighbors(ev.node, touched);
      break;
    }
    case EventKind::kLeave: {
      if (!is_active(ev.node)) throw std::invalid_argument("DynamicSpanner: leave of a dead node");
      for (const graph::Neighbor& nb : inst_.g.neighbors(ev.node)) old_nbrs.push_back(nb.to);
      for (int u : old_nbrs) {
        inst_.g.remove_edge(ev.node, u);
        if (spanner_.remove_edge(ev.node, u)) ++*spanner_removed;
        touched->push_back(u);
      }
      active_[static_cast<std::size_t>(ev.node)] = 0;
      --active_count_;
      grid_.remove(ev.node);
      inst_.points.set(ev.node, parked_position(ev.node));
      break;
    }
    case EventKind::kMove: {
      if (!is_active(ev.node)) throw std::invalid_argument("DynamicSpanner: move of a dead node");
      check_position(ev.pos);
      // All incident edges are recomputed: lengths changed, so weights must
      // too, and the local rerun re-derives the node's spanner edges anyway.
      for (const graph::Neighbor& nb : inst_.g.neighbors(ev.node)) old_nbrs.push_back(nb.to);
      for (int u : old_nbrs) {
        inst_.g.remove_edge(ev.node, u);
        if (spanner_.remove_edge(ev.node, u)) ++*spanner_removed;
        touched->push_back(u);
      }
      inst_.points.set(ev.node, ev.pos);
      grid_.move(ev.node);
      touched->push_back(ev.node);
      connect_neighbors(ev.node, touched);
      break;
    }
  }
  sort_unique(*touched);
  // Only live vertices seed the dirty ball (a departed node is isolated).
  std::erase_if(*touched, [this](int v) { return !is_active(v); });
}

bool DynamicSpanner::certify(const std::vector<int>& modified, int* scope_size_out) const {
  const obs::Span span(dyn_metrics().certify_span);
  const std::function<double(double)>& tf = opts_.greedy.weight_transform;
  // The scope is the touched list of one search from `modified`. in_scope
  // is all-0 between calls and scoped_ lists the entries to reset, so a
  // local certify costs O(|scope|) and a warmed one allocates nothing.
  scratch_scoped_.clear();
  if (!modified.empty()) {
    const graph::SpView sp = ball(modified, witness_bound_ + wmax_);
    for (int v : sp.touched()) {
      scratch_in_scope_[static_cast<std::size_t>(v)] = 1;
      scratch_scoped_.push_back(v);
    }
  }
  const int scope_count = modified.empty() ? inst_.g.n() : static_cast<int>(scratch_scoped_.size());
  if (scope_size_out != nullptr) *scope_size_out = scope_count;
  obs::histogram_record(dyn_metrics().certify_scope, scope_count);
  runtime::WorkerPool* const pool = opts_.greedy.worker_pool;
  const bool ok = core::certify(inst_.g, spanner_, {scratch_scoped_, scratch_in_scope_}, params_.t,
                                opts_.caps, tf, pool, &ws_)
                      .ok();
  for (int v : scratch_scoped_) scratch_in_scope_[static_cast<std::size_t>(v)] = 0;
  flush_heap_ops(ws_, pool);
  return ok;
}

RepairStats DynamicSpanner::apply(const ChurnEvent& ev) {
  const CommitNotifier notify(*this);
  const obs::Span span(dyn_metrics().apply_span);
  const BatchStats w = run_window(std::span<const ChurnEvent>(&ev, 1));
  return {.kind = ev.kind,
          .node = ev.node,
          .time = ev.time,
          .ball_size = w.ball_union,
          .sub_edges = w.sub_edges,
          .spanner_edges_removed = w.spanner_edges_removed,
          .spanner_edges_added = w.spanner_edges_added,
          .certify_scope = w.certify_scope,
          .check_ran = w.check_ran,
          .check_passed = w.check_passed,
          .fell_back = w.fell_back,
          .seconds = w.seconds};
}

std::vector<RepairStats> DynamicSpanner::apply_all(const ChurnTrace& trace) {
  if (trace.dim != inst_.config.dim) {
    throw std::invalid_argument("DynamicSpanner: trace dim does not match instance");
  }
  if (std::abs(trace.alpha - inst_.config.alpha) > 1e-12) {
    throw std::invalid_argument("DynamicSpanner: trace alpha does not match instance");
  }
  std::vector<RepairStats> out;
  out.reserve(trace.events.size());
  for (const ChurnEvent& ev : trace.events) out.push_back(apply(ev));
  return out;
}

BatchStats DynamicSpanner::apply_batch(std::span<const ChurnEvent> events) {
  const obs::Span span(dyn_metrics().batch_span);
  if (events.empty()) {
    region_of_event_.clear();
    return {};  // no mutation happened: the commit hook intentionally stays silent
  }
  const CommitNotifier notify(*this);
  const BatchStats st = run_window(events);
  obs::counter_add(dyn_metrics().batches, 1);
  return st;
}

double apply_windows(DynamicSpanner& engine, std::span<const ChurnEvent> events, int width,
                     const WindowHook& on_window) {
  if (width < 1) throw std::invalid_argument("apply_windows: window width must be >= 1");
  const auto w = static_cast<std::size_t>(width);
  double seconds = 0.0;
  int window = 0;
  for (std::size_t i = 0; i < events.size(); i += w) {
    const BatchStats st = engine.apply_batch(events.subspan(i, std::min(w, events.size() - i)));
    seconds += st.seconds;
    if (on_window) on_window(++window, st);
  }
  return seconds;
}

BatchStats DynamicSpanner::run_window(std::span<const ChurnEvent> events) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchStats st;
  st.events = static_cast<int>(events.size());
  region_of_event_.assign(events.size(), -1);
  if (batch_touched_.size() < events.size()) batch_touched_.resize(events.size());

  int ingested = 0;  // events whose mutations are applied
  try {
    // Phase 1: serial mutation replay in event order. The UBG and the
    // standing spanner receive exactly the mutation sequence a sequential
    // replay would apply — only the repairs are deferred.
    for (; ingested < st.events; ++ingested) {
      std::vector<int>& touched = batch_touched_[static_cast<std::size_t>(ingested)];
      touched.clear();
      ingest_event(events[static_cast<std::size_t>(ingested)], &st.spanner_edges_removed, &touched);
    }
    if (opts_.always_full_recompute) {
      rebuild();
    } else {
      repair_window(&st);
    }
  } catch (...) {
    // Events are validated before they mutate anything, so repairs are
    // pending only if some events were ingested (an event invalid for the
    // evolved topology, above all, fails later in the window); rebuilding
    // restores a certified spanner before the error propagates. The window
    // is not rolled back. A window that failed on its first event changed
    // nothing and keeps its spanner.
    if (ingested > 0) rebuild();
    throw;
  }

  st.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (obs::enabled()) {
    const DynMetrics& m = dyn_metrics();
    obs::counter_add(m.events, st.events);
    obs::counter_add(m.merged_events, st.merged_events);
    obs::counter_add(m.edges_added, st.spanner_edges_added);
    obs::counter_add(m.edges_removed, st.spanner_edges_removed);
    if (st.fell_back) obs::counter_add(m.fallbacks, 1);
  }
  return st;
}

void DynamicSpanner::repair_window(BatchStats* st) {
  const int count = st->events;
  // Seeds a later event deactivated are dropped: balls grow from the
  // *final* topology, where a departed vertex is isolated and parked and
  // its ex-neighbors (touched by its leave) carry the disturbance.
  for (int i = 0; i < count; ++i) {
    std::erase_if(batch_touched_[static_cast<std::size_t>(i)],
                  [this](int v) { return !is_active(v); });
  }

  // Phase 2: the union dirty ball. At a fixed radius, ball(∪ D_i) =
  // ∪ ball(D_i), so ONE multi-source bounded search from every live seed
  // of the window covers every per-event ball — this is the coalescing
  // payoff: a burst of k overlapping events costs one |U|-sized search
  // instead of k of them. The per-event balls are never materialized.
  // The merged modified set doubles as the deduplicated seed list; the
  // commit below appends the splice endpoints.
  batch_modified_.clear();
  for (int i = 0; i < count; ++i) {
    const std::vector<int>& seeds = batch_touched_[static_cast<std::size_t>(i)];
    batch_modified_.insert(batch_modified_.end(), seeds.begin(), seeds.end());
  }
  sort_unique(batch_modified_);
  batch_union_.clear();
  int nregions = 0;
  if (!batch_modified_.empty()) {
    const graph::SpView sp = [&] {
      const obs::Span span(dyn_metrics().ball_span);
      return ball(batch_modified_, ball_radius_);
    }();
    batch_union_.assign(sp.touched().begin(), sp.touched().end());
    std::sort(batch_union_.begin(), batch_union_.end());
    obs::histogram_record(dyn_metrics().ball_size,
                          static_cast<std::int64_t>(batch_union_.size()));
    flush_heap_ops(ws_, nullptr);

    // Phase 3: deterministic region partition, one union-find over the
    // window's events (node i) and U's vertices (node count + v). Uniting
    // both ends of every edge inside U and each event with its seeds makes
    // its classes U's connected components joined through shared events.
    // Overlapping per-event balls always share a component, so regions stay
    // vertex-disjoint and every event ball stays inside its region, which
    // is all the witness-locality argument needs. The smaller root wins, so
    // a class is rooted at its first event. The partition is a pure
    // function of the window; only U's entries are read, each set below.
    const std::size_t uf_size = static_cast<std::size_t>(count + inst_.g.n());
    if (region_uf_.size() < uf_size) region_uf_.resize(uf_size);
    for (int i = 0; i < count; ++i) region_uf_[static_cast<std::size_t>(i)] = i;
    for (int v : batch_union_) region_uf_[static_cast<std::size_t>(count + v)] = count + v;
    const auto find = [this](int a) {  // with path halving
      while (region_uf_[static_cast<std::size_t>(a)] != a) {
        int& parent = region_uf_[static_cast<std::size_t>(a)];
        a = parent = region_uf_[static_cast<std::size_t>(parent)];
      }
      return a;
    };
    const auto unite = [&](int a, int b) {
      a = find(a);
      b = find(b);
      if (a != b) region_uf_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    };
    for (int v : batch_union_) {
      for (const graph::Neighbor& nb : inst_.g.neighbors(v)) {
        if (v < nb.to && sp.reached(nb.to)) unite(count + v, count + nb.to);
      }
    }
    // Seeds are sources of the union search, so they are in U.
    for (int i = 0; i < count; ++i) {
      for (int s : batch_touched_[static_cast<std::size_t>(i)]) unite(i, count + s);
    }
    for (int i = 0; i < count; ++i) {
      if (batch_touched_[static_cast<std::size_t>(i)].empty()) continue;
      // i's root is its region's first event: i itself when it opens a new
      // region, else an earlier event, numbered already.
      const int root = find(i);
      if (root != i) ++st->merged_events;
      region_of_event_[static_cast<std::size_t>(i)] =
          root == i ? nregions++ : region_of_event_[static_cast<std::size_t>(root)];
    }
    st->regions = nregions;
    obs::histogram_record(dyn_metrics().regions, nregions);

    if (batch_regions_.size() < static_cast<std::size_t>(nregions)) {
      batch_regions_.resize(static_cast<std::size_t>(nregions));
    }
    for (int r = 0; r < nregions; ++r) {
      RegionScratch& rg = batch_regions_[static_cast<std::size_t>(r)];
      rg.events = 0;
      rg.ball.clear();
      rg.core.clear();
      rg.sub_edges = 0;
      rg.drops.clear();
      rg.adds.clear();
    }
    for (int r : region_of_event_) {
      if (r >= 0) ++batch_regions_[static_cast<std::size_t>(r)].events;
    }
    // One ascending pass over U fills every region's ball (already sorted)
    // and core. Every vertex of U is joined to a seed through U (a shortest
    // path from the nearest seed stays inside the ball), so its root is an
    // event. dist is the union search's min-over-seeds, and the minimizing
    // seed lies in the same region, so the per-region core is exact.
    for (int v : batch_union_) {
      const int root = find(count + v);
      RegionScratch& rg = batch_regions_[static_cast<std::size_t>(
          region_of_event_[static_cast<std::size_t>(root)])];
      rg.ball.push_back(v);
      if (sp.dist(v) <= core_radius_) rg.core.push_back(v);
    }
    st->ball_union = static_cast<int>(batch_union_.size());
  }

  // Phases 4+5, one scatter/commit: harvest every region's splice in
  // parallel, then commit serially in region order. Regions are
  // vertex-disjoint and all reads (final UBG, pre-commit spanner) are
  // frozen until the commit phase, so the harvested drops/adds are
  // schedule-independent; with the serial in-order commit the result is
  // bit-identical at every thread count.
  // Per-region harvest times (the flat BatchStats sums them away).
  // Enabled-mode only — the disabled path stays alloc-free.
  const bool obs_on = obs::enabled();
  std::vector<std::int64_t> harvest_us;
  if (obs_on) harvest_us.assign(static_cast<std::size_t>(nregions), 0);
  // local_id_ and in_core_ are shared by concurrent harvests, race-free: a
  // harvest writes only its own ball's entries and reads those of its ball
  // vertices' G-neighbours and spanner neighbours (the spanner is a
  // subgraph of G). An edge with both ends in U unites them, so each such
  // neighbour lies in the same region's ball or outside U, where nobody
  // writes.
  const auto harvest_region = [&](int r, const core::RelaxedGreedyOptions& gopts) {
    const obs::Span span(dyn_metrics().region_span);
    const auto h0 = std::chrono::steady_clock::now();
    RegionScratch& rg = batch_regions_[static_cast<std::size_t>(r)];
    for (std::size_t j = 0; j < rg.ball.size(); ++j) {
      local_id_[static_cast<std::size_t>(rg.ball[j])] = static_cast<int>(j);
    }
    for (int v : rg.core) in_core_[static_cast<std::size_t>(v)] = 1;
    int sub_edges = 0;
    for (int v : rg.ball) {
      for (const graph::Neighbor& nb : inst_.g.neighbors(v)) {
        if (v < nb.to && local_id_[static_cast<std::size_t>(nb.to)] >= 0) ++sub_edges;
      }
    }
    rg.sub_edges = sub_edges;
    // An edgeless sub-instance repairs to an edgeless spanner, and the
    // standing spanner (a subgraph of the UBG) then has no core-internal
    // edges either — the splice is a no-op and the rerun is skipped. The
    // skip also keys the alloc-free steady state: relaxed_greedy
    // allocates its result graph, this path does not.
    if (sub_edges > 0) {
      // The α-UBG induced on the ball is itself a valid α-UBG over the
      // ball's points, so the whole static pipeline applies unchanged.
      ubg::UbgInstance sub{inst_.config, geom::Points(inst_.points.dim()),
                           graph::Graph(static_cast<int>(rg.ball.size()))};
      sub.config.n = static_cast<int>(rg.ball.size());
      sub.points.reserve(sub.config.n);
      for (int v : rg.ball) sub.points.push_back(inst_.points.row(v));
      for (int v : rg.ball) {
        for (const graph::Neighbor& nb : inst_.g.neighbors(v)) {
          if (v < nb.to && local_id_[static_cast<std::size_t>(nb.to)] >= 0) {
            sub.g.add_edge(local_id_[static_cast<std::size_t>(v)],
                           local_id_[static_cast<std::size_t>(nb.to)], nb.w);
          }
        }
      }
      const graph::Graph local = core::relaxed_greedy(sub, params_, gopts).spanner;
      // The local result replaces the core-internal standing edges; edges
      // crossing the core boundary stay so distant witnesses survive.
      for (int v : rg.ball) {
        if (!in_core_[static_cast<std::size_t>(v)]) continue;
        for (const graph::Neighbor& nb : spanner_.neighbors(v)) {
          if (v < nb.to && in_core_[static_cast<std::size_t>(nb.to)]) {
            rg.drops.emplace_back(v, nb.to);
          }
        }
      }
      for (const graph::Edge& e : local.edges()) {
        rg.adds.push_back({rg.ball[static_cast<std::size_t>(e.u)],
                           rg.ball[static_cast<std::size_t>(e.v)], e.w});
      }
    }
    for (int v : rg.ball) local_id_[static_cast<std::size_t>(v)] = -1;
    for (int v : rg.core) in_core_[static_cast<std::size_t>(v)] = 0;
    if (obs_on) {
      harvest_us[static_cast<std::size_t>(r)] = std::chrono::duration_cast<std::chrono::microseconds>(
                                                    std::chrono::steady_clock::now() - h0)
                                                    .count();
    }
  };

  // Region sizes are skewed (one merged burst region next to many
  // singletons), so the harvest is scheduled dynamically; each worker
  // reruns serially with its own workspace — no nested dispatch. With a
  // serial engine, or a single region, the harvest runs on the caller
  // with the engine-level greedy options instead (pool-parallel *inside*
  // the one rerun when a team exists); relaxed_greedy is bit-identical at
  // every thread count, so nothing observable changes.
  runtime::WorkerPool* const tm = opts_.greedy.worker_pool;
  const bool parallel_regions = tm != nullptr && tm->threads() > 1 && nregions > 1;
  {
    const obs::Span splice_span(dyn_metrics().splice_span);
    runtime::scatter_commit(
        parallel_regions ? tm : nullptr, ws_, nregions,
        [&](graph::DijkstraWorkspace&, int worker, int r) {
          harvest_region(r, parallel_regions
                                ? worker_greedy_opts_[static_cast<std::size_t>(worker)]
                                : opts_.greedy);
        },
        [&](int r) {
          RegionScratch& rg = batch_regions_[static_cast<std::size_t>(r)];
          if (obs_on) {
            const DynMetrics& m = dyn_metrics();
            obs::histogram_record(m.region_ball, static_cast<std::int64_t>(rg.ball.size()));
            obs::histogram_record(m.region_events, rg.events);
            obs::histogram_record(m.region_harvest_us, harvest_us[static_cast<std::size_t>(r)]);
          }
          st->max_region_ball = std::max(st->max_region_ball, static_cast<int>(rg.ball.size()));
          st->sub_edges += rg.sub_edges;
          for (const auto& [u, v] : rg.drops) {
            spanner_.remove_edge(u, v);
            ++st->spanner_edges_removed;
            batch_modified_.push_back(u);
            batch_modified_.push_back(v);
          }
          for (const graph::Edge& e : rg.adds) {
            if (spanner_.add_edge(e.u, e.v, e.w)) {
              ++st->spanner_edges_added;
              batch_modified_.push_back(e.u);
              batch_modified_.push_back(e.v);
            }
          }
        });
  }
  sort_unique(batch_modified_);

  // Phase 6: one merged-scope certification replaces the per-event
  // passes; on failure the engine falls back to a full recompute.
  if (!batch_modified_.empty() && opts_.check != CheckLevel::kOff) {
    st->check_ran = true;
    st->check_passed = opts_.check == CheckLevel::kFull
                           ? certify({}, &st->certify_scope)
                           : certify(batch_modified_, &st->certify_scope);
    if (!st->check_passed) {
      rebuild();
      st->fell_back = true;
    }
  }
}

}  // namespace localspan::dynamic
