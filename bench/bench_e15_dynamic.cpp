/// E15 — dynamic topology maintenance: incremental local repair vs full
/// recompute under churn.
///
/// For each (n, trace model) cell the same event trace is applied twice to
/// the same seed instance: once through the DynamicSpanner's dirty-ball
/// repair (with the per-event local certification on, as deployed), and once
/// through the rebuild-from-scratch baseline. Reported: per-event wall time
/// for both modes, the speedup,
/// mean dirty-ball and certify-scope sizes (the locality the paper
/// promises), and fallback count (0 = the locality argument held on every
/// event).
///
/// The n=100000 row is the scale smoke leg for the epoch-stamped workspace:
/// incremental repair only (a rebuild baseline is pointless at that
/// size), proving per-event cost stays ball-sized when the network is 50x
/// larger than the balls.
///
/// The meta block records `alloc_free_steady_state`: a counting-allocator
/// probe (global operator new/delete override below) verifies that a
/// warmed-up workspace search and a warmed-up local certify perform zero
/// heap allocations — the property that makes repair cost O(|ball|) in
/// memory traffic, not just in work.
///
/// The baseline is timed on a prefix of the trace (the mean is stable after
/// a few events) — `timed` in the table says how many events the baseline
/// mean covers.
///
/// LOCALSPAN_BENCH_QUICK=1 trims sizes/events for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <chrono>

#include "bench_util.hpp"
#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/sp_workspace.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

using namespace localspan;
namespace bu = localspan::benchutil;

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps the
// counter, so a window around a warmed-up hot path measures its true
// allocation count (zero is the target).
// ---------------------------------------------------------------------------
namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

// The replacement operator new allocates with std::malloc, so operator
// delete frees with std::free — GCC's new/delete-pair analysis cannot see
// through the replacement and flags the (correct) pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must be replaced too (std::stable_sort's temporary
// buffer allocates through them; a half-replaced set trips ASan's
// alloc-dealloc-mismatch check).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

struct CellResult {
  std::size_t events = 0;
  std::size_t baseline_timed = 0;
  double inc_ms_per_event = 0.0;
  double full_ms_per_event = 0.0;
  double mean_ball = 0.0;
  double mean_scope = 0.0;  ///< mean certify touched-set size.
  int max_ball = 0;
  int fallbacks = 0;
  bool baselines_ran = true;  ///< false on the scale smoke leg.
};

dynamic::ChurnTrace make_trace(const ubg::UbgInstance& inst, const std::string& model,
                               int events, std::uint64_t seed) {
  if (model == "burst") {
    // Regional failure + rejoin: every node inside the radius leaves at once
    // and rejoins later — the batched-ingestion showcase, where one window
    // coalesces the whole burst into a single repair region. `events` is
    // ignored; the radius dictates the burst size. The radius is chosen
    // large: window cost scales with the repair region (~the disk), events
    // with 2x the disk population, so throughput *rises* with burst size —
    // interior leaves whose whole neighborhood departs in the same window
    // need no repair at all.
    dynamic::RegionalFailureConfig cfg;
    cfg.radius = 12.0;
    cfg.seed = seed;
    return dynamic::regional_failure(inst, cfg);
  }
  if (model == "waypoint") {
    dynamic::WaypointConfig cfg;
    // Cap movers at events/2 so duration >= 2 sample periods per mover —
    // uncapped, large n drives duration below one sample_dt and the trace
    // degenerates to zero events.
    cfg.movers = std::max(2, std::min(events / 2, inst.g.n() / 256));
    cfg.speed = 0.25;
    cfg.sample_dt = 0.25;
    cfg.duration = cfg.sample_dt * events / cfg.movers;
    cfg.seed = seed;
    return dynamic::random_waypoint(inst, cfg);
  }
  dynamic::PoissonChurnConfig cfg;
  cfg.events = events;
  cfg.seed = seed;
  return dynamic::poisson_churn(inst, cfg);
}

CellResult run_cell(const ubg::UbgInstance& inst, const core::Params& params,
                    const dynamic::ChurnTrace& trace, std::size_t baseline_events,
                    bool incremental_only) {
  CellResult res;
  res.events = trace.events.size();
  res.baselines_ran = !incremental_only;

  // Incremental mode, per-event certification on — the deployed config.
  {
    dynamic::DynamicSpanner engine(inst, params);
    double seconds = 0.0;
    long long balls = 0;
    long long scopes = 0;
    for (const dynamic::RepairStats& st : engine.apply_all(trace)) {
      seconds += st.seconds;
      balls += st.ball_size;
      scopes += st.certify_scope;
      res.max_ball = std::max(res.max_ball, st.ball_size);
      if (st.fell_back) ++res.fallbacks;
    }
    const auto count = static_cast<double>(std::max<std::size_t>(1, res.events));
    res.inc_ms_per_event = 1e3 * seconds / count;
    res.mean_ball = static_cast<double>(balls) / count;
    res.mean_scope = static_cast<double>(scopes) / count;
  }
  if (incremental_only) return res;

  // Full-recompute baseline on a prefix of the same trace.
  {
    dynamic::DynamicOptions opts;
    opts.always_full_recompute = true;
    opts.check = dynamic::CheckLevel::kOff;
    dynamic::DynamicSpanner engine(inst, params, opts);
    res.baseline_timed = std::min(baseline_events, trace.events.size());
    double seconds = 0.0;
    for (std::size_t i = 0; i < res.baseline_timed; ++i) {
      seconds += engine.apply(trace.events[i]).seconds;
    }
    res.full_ms_per_event = 1e3 * seconds / static_cast<double>(std::max<std::size_t>(1, res.baseline_timed));
  }
  return res;
}

/// Counting-allocator probe for the artifact's `alloc_free_steady_state`
/// field: after warm-up, a bounded workspace search and a scoped certify
/// must both allocate nothing.
bool alloc_free_steady_state(const core::Params& params) {
  const ubg::UbgInstance inst = bu::standard_instance(192, 0.75, 7);

  // Workspace search: warm with the exact search that is counted (a
  // different source could have a larger ball and legitimately grow the
  // touched/heap buffers past the warm-up's high-water mark).
  graph::DijkstraWorkspace ws(inst.g.n());
  static_cast<void>(ws.bounded(inst.g, 1, 0.5));
  const long long before_search = g_allocs.load();
  static_cast<void>(ws.bounded(inst.g, 1, 0.5));
  const long long search_allocs = g_allocs.load() - before_search;

  // Local certify: warm the engine scratch with a trace, then count — once
  // with the serial engine and once at threads=4, so the parallel certify
  // sweep (per-worker workspaces + pool dispatch) proves the same property.
  const auto certify_allocs_for = [&](int threads, bool* ok) {
    dynamic::DynamicOptions opts;
    opts.threads = threads;
    dynamic::DynamicSpanner engine(inst, params, opts);
    const dynamic::ChurnTrace trace = make_trace(inst, "poisson", 6, 7);
    static_cast<void>(engine.apply_all(trace));
    int live = 0;
    while (live < engine.instance().g.n() && !engine.is_active(live)) ++live;
    if (live == engine.instance().g.n()) {
      std::printf("alloc probe: no live node after warm-up trace\n");
      *ok = false;
      return 1LL;
    }
    const std::vector<int> modified{live};  // outside the counting window
    static_cast<void>(engine.certify(modified));
    const long long before_certify = g_allocs.load();
    *ok = engine.certify(modified);
    return g_allocs.load() - before_certify;
  };
  bool ok_serial = false;
  bool ok_parallel = false;
  const long long certify_allocs = certify_allocs_for(1, &ok_serial);
  const long long certify4_allocs = certify_allocs_for(4, &ok_parallel);

  if (search_allocs != 0 || certify_allocs != 0 || certify4_allocs != 0) {
    std::printf("alloc probe: search=%lld certify=%lld certify@4threads=%lld allocations "
                "after warm-up\n",
                search_allocs, certify_allocs, certify4_allocs);
  }
  return ok_serial && ok_parallel && search_allocs == 0 && certify_allocs == 0 &&
         certify4_allocs == 0;
}

/// Measured cost of the observability layer itself: the batched-repair
/// workload (the hottest instrumented path — spans, counters and histograms
/// fire on every window) run with obs disabled and enabled, min-of-reps wall
/// each. collect_bench gates the overhead at <= 3% in full mode — the
/// "always-on" claim is that compiling the probes in and leaving them off
/// costs one predictable branch per probe site.
struct ObsOverhead {
  double off_ms = 0.0;
  double on_ms = 0.0;
  double overhead_pct = 0.0;  ///< max(0, (on-off)/off*100).
  std::string obs_json;       ///< snapshot of the enabled run, for the artifact.
};

ObsOverhead measure_obs_overhead(const core::Params& params, bool quick) {
  const int n = quick ? 384 : 2048;
  const int events = quick ? 12 : 256;
  const int batch = quick ? 4 : 64;
  const int reps = 3;
  const ubg::UbgInstance inst = bu::standard_instance(n, 0.75, 7);
  const dynamic::ChurnTrace trace = make_trace(inst, "poisson", events, 7);

  // Serial engine: thread-pool scheduling noise would swamp a single-digit
  // percent measurement.
  const auto run_once_ms = [&] {
    dynamic::DynamicOptions opts;
    opts.threads = 1;
    dynamic::DynamicSpanner engine(inst, params, opts);
    const auto t0 = std::chrono::steady_clock::now();
    static_cast<void>(dynamic::apply_windows(engine, trace.events, batch));
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto min_of_reps = [&] {
    double best = run_once_ms();
    for (int r = 1; r < reps; ++r) best = std::min(best, run_once_ms());
    return best;
  };

  const bool was_enabled = obs::enabled();
  ObsOverhead res;
  obs::set_enabled(false);
  res.off_ms = min_of_reps();
  obs::set_enabled(true);
  obs::reset();
  res.on_ms = min_of_reps();
  res.obs_json = obs::to_json(obs::snapshot());
  obs::reset();
  obs::set_enabled(was_enabled);
  res.overhead_pct =
      std::max(0.0, 100.0 * (res.on_ms - res.off_ms) / std::max(res.off_ms, 1e-9));
  return res;
}

}  // namespace

int main() {
  const bool quick = std::getenv("LOCALSPAN_BENCH_QUICK") != nullptr;
  const std::vector<int> ns = quick ? std::vector<int>{192, 384}
                                    : std::vector<int>{256, 1024, 2048, 16384};
  const int scale_n = 100000;  ///< workspace scale leg, incremental only.
  const int events = quick ? 12 : 32;
  const int scale_events = quick ? 6 : 16;
  const std::size_t baseline_events = quick ? 3 : 8;
  const double eps = 0.5;
  const double alpha = 0.75;

  const core::Params params = core::Params::practical_params(eps, alpha);

  bu::JsonReport report("E15");
  report.meta("eps", eps);
  report.meta("alpha", alpha);
  report.meta("events", static_cast<long long>(events));
  report.meta("quick", std::string(quick ? "yes" : "no"));
  // The machine's core count, so collect_bench can tell a genuine scaling
  // regression from a one-core container (where every speedup column is
  // honestly ~1.0 and the speedup gate must be skipped, not failed).
  report.meta("nproc", static_cast<long long>(runtime::hardware_threads()));
  report.meta("alloc_free_steady_state",
              std::string(alloc_free_steady_state(params) ? "yes" : "no"));
  {
    // Observability cost: the same batched workload with probes off vs on.
    // obs_enabled records the ambient LOCALSPAN_OBS state the *tables* below
    // ran under; the off/on pair is measured explicitly either way.
    const bool ambient_obs = obs::enabled();
    const ObsOverhead ov = measure_obs_overhead(params, quick);
    report.meta("obs_enabled", std::string(ambient_obs ? "yes" : "no"));
    report.meta("obs_off_ms", ov.off_ms);
    report.meta("obs_on_ms", ov.on_ms);
    report.meta("obs_overhead_pct", ov.overhead_pct);
    report.set_obs(ov.obs_json);
  }

  bu::Table table({"n", "model", "threads", "events", "inc ev/s", "inc ms/ev", "full ms/ev",
                   "speedup", "mean |B|", "max |B|", "mean scope", "ball frac", "timed",
                   "fallbacks"});
  const auto add_row = [&](int n, const char* model, const CellResult& res) {
    const std::string na = "n/a";
    table.add_row({bu::fmt_int(n), model, bu::fmt_int(runtime::default_threads()),
                   bu::fmt_int(static_cast<long long>(res.events)),
                   bu::fmt(1e3 / std::max(res.inc_ms_per_event, 1e-9), 1),
                   bu::fmt(res.inc_ms_per_event),
                   res.baselines_ran ? bu::fmt(res.full_ms_per_event) : na,
                   res.baselines_ran
                       ? bu::fmt(res.full_ms_per_event / std::max(res.inc_ms_per_event, 1e-9), 2)
                       : na,
                   bu::fmt(res.mean_ball, 1), bu::fmt_int(res.max_ball),
                   bu::fmt(res.mean_scope, 1), bu::fmt(res.mean_ball / n),
                   bu::fmt_int(static_cast<long long>(res.baseline_timed)),
                   bu::fmt_int(res.fallbacks)});
  };
  for (int n : ns) {
    const ubg::UbgInstance inst = bu::standard_instance(n, alpha, 7);
    for (const char* model : {"poisson", "waypoint"}) {
      const dynamic::ChurnTrace trace = make_trace(inst, model, events, 7);
      add_row(n, model, run_cell(inst, params, trace, baseline_events, false));
    }
  }
  {
    // Scale smoke leg: 10^5 nodes, incremental repair only. The point is the
    // per-event cost staying ball-sized, not another rebuild race.
    const ubg::UbgInstance inst = bu::standard_instance(scale_n, alpha, 7);
    const dynamic::ChurnTrace trace = make_trace(inst, "poisson", scale_events, 7);
    add_row(scale_n, "poisson", run_cell(inst, params, trace, 0, true));
  }
  report.print("E15: incremental repair vs full recompute under churn", table);

  // Batched churn ingestion (apply_batch): batch-size × threads sweep. Each
  // cell replays the same trace through windowed apply_batch and reports
  // per-event cost against a sequential apply() baseline timed on a prefix
  // of the same trace (fresh engine, same seed instance). The burst model is
  // the coalescing showcase: a regional failure + rejoin collapses into one
  // repair region, so the whole window costs one union-ball search, one
  // rerun and one certify. collect_bench validates this table and requires
  // the n=100000 burst leg to sustain >= 10^4 events/s.
  {
    bu::Table batch_table({"n", "model", "batch", "threads", "events", "windows", "regions/win",
                           "mean |RB|", "batch ms/ev", "batch ev/s", "seq ms/ev", "vs seq",
                           "seq timed", "fallbacks"});
    const auto seq_ms_per_event = [&](const ubg::UbgInstance& inst,
                                      const dynamic::ChurnTrace& trace, std::size_t prefix) {
      dynamic::DynamicSpanner engine(inst, params);
      const std::size_t timed = std::min(prefix, trace.events.size());
      double seconds = 0.0;
      for (std::size_t i = 0; i < timed; ++i) seconds += engine.apply(trace.events[i]).seconds;
      return 1e3 * seconds / static_cast<double>(std::max<std::size_t>(1, timed));
    };
    const auto add_batch_row = [&](int n, const char* model, const ubg::UbgInstance& inst,
                                   const dynamic::ChurnTrace& trace, int batch, int threads,
                                   double seq_ms, std::size_t seq_timed) {
      dynamic::DynamicOptions opts;
      opts.threads = threads;
      dynamic::DynamicSpanner engine(inst, params, opts);
      long long regions = 0;
      long long ball_union = 0;
      int windows = 0;
      int fallbacks = 0;
      const std::vector<dynamic::ChurnEvent>& evs = trace.events;
      const double seconds = dynamic::apply_windows(
          engine, evs, batch, [&](int window, const dynamic::BatchStats& st) {
            regions += st.regions;
            ball_union += st.ball_union;
            windows = window;
            if (st.fell_back) ++fallbacks;
          });
      const auto count = static_cast<double>(std::max<std::size_t>(1, evs.size()));
      const double ms_ev = 1e3 * seconds / count;
      batch_table.add_row(
          {bu::fmt_int(n), model, bu::fmt_int(batch), bu::fmt_int(threads),
           bu::fmt_int(static_cast<long long>(evs.size())), bu::fmt_int(windows),
           bu::fmt(static_cast<double>(regions) / std::max(windows, 1), 2),
           bu::fmt(static_cast<double>(ball_union) / std::max(windows, 1), 1), bu::fmt(ms_ev, 4),
           bu::fmt(1e3 / std::max(ms_ev, 1e-9), 1), bu::fmt(seq_ms),
           bu::fmt(seq_ms / std::max(ms_ev, 1e-9), 2),
           bu::fmt_int(static_cast<long long>(seq_timed)), bu::fmt_int(fallbacks)});
    };
    // Threads to sweep: serial always; the parallel point only where the
    // hardware can actually run one (a 1-core container reports honest
    // serial numbers instead of scheduler-noise "speedups").
    std::vector<int> batch_threads{1};
    if (runtime::hardware_threads() >= 2) {
      batch_threads.push_back(std::min(4, runtime::hardware_threads()));
    }
    {
      // Dispersed churn: events rarely coalesce, so the win is bounded (one
      // certify per window instead of per event).
      const int n = quick ? 384 : 2048;
      const int batch_events = quick ? 12 : 256;
      const std::size_t seq_prefix = quick ? 6 : 64;
      const ubg::UbgInstance inst = bu::standard_instance(n, alpha, 7);
      const dynamic::ChurnTrace trace = make_trace(inst, "poisson", batch_events, 7);
      const std::size_t seq_timed = std::min(seq_prefix, trace.events.size());
      const double seq_ms = seq_ms_per_event(inst, trace, seq_prefix);
      for (const int batch : quick ? std::vector<int>{4} : std::vector<int>{8, 32}) {
        for (const int threads : batch_threads) {
          add_batch_row(n, "poisson", inst, trace, batch, threads, seq_ms, seq_timed);
        }
      }
    }
    if (!quick) {
      // Scale legs: dispersed churn and the coalesced burst at n=100000.
      const ubg::UbgInstance inst = bu::standard_instance(scale_n, alpha, 7);
      {
        const dynamic::ChurnTrace trace = make_trace(inst, "poisson", 512, 7);
        const std::size_t seq_timed = std::min<std::size_t>(32, trace.events.size());
        const double seq_ms = seq_ms_per_event(inst, trace, 32);
        for (const int threads : batch_threads) {
          add_batch_row(scale_n, "poisson", inst, trace, 64, threads, seq_ms, seq_timed);
        }
      }
      {
        const dynamic::ChurnTrace trace = make_trace(inst, "burst", 0, 7);
        const std::size_t seq_timed = std::min<std::size_t>(32, trace.events.size());
        const double seq_ms = seq_ms_per_event(inst, trace, 32);
        // The whole burst in ONE window: splitting a mass failure across
        // windows makes early windows repair around nodes doomed to leave
        // in the next one, destroying the amortization being measured.
        const int burst_batch = static_cast<int>(trace.events.size());
        for (const int threads : batch_threads) {
          add_batch_row(scale_n, "burst", inst, trace, burst_batch, threads, seq_ms, seq_timed);
        }
      }
    }
    report.print("E15: batched churn ingestion (apply_batch), batch x threads", batch_table);
  }

  // Static-build thread scaling: the full relaxed construction (the
  // per-event rebuild-baseline cost driver the ROADMAP names) at 1..8
  // worker threads. The topology is bit-identical at every thread count
  // (tests/test_parallel.cpp), so the speedup column is pure wall clock.
  // collect_bench validates the threads/speedup columns are present.
  {
    bu::Table scaling({"n", "threads", "build s", "speedup"});
    const int build_n = quick ? 384 : 16384;
    const std::vector<int> thread_counts = quick ? std::vector<int>{1, 2}
                                                 : std::vector<int>{1, 2, 4, 8};
    const ubg::UbgInstance inst = bu::standard_instance(build_n, alpha, 7);
    double serial_s = 0.0;
    for (int t : thread_counts) {
      std::optional<runtime::WorkerPool> pool;
      if (t > 1) pool.emplace(t);
      core::RelaxedGreedyOptions opts;
      opts.worker_pool = pool ? &*pool : nullptr;
      const auto t0 = std::chrono::steady_clock::now();
      static_cast<void>(core::relaxed_greedy(inst, params, opts).spanner.m());
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (t == 1) serial_s = s;
      scaling.add_row({bu::fmt_int(build_n), bu::fmt_int(t), bu::fmt(s),
                       bu::fmt(serial_s / std::max(s, 1e-9), 2)});
    }
    report.print("E15: static relaxed build, thread scaling", scaling);
  }
  return report.write() ? 0 : 1;
}
