#pragma once
/// \file obs.hpp
/// Deterministic, near-zero-overhead observability: lock-free per-thread
/// counters/gauges, log-bucketed latency/size histograms, and RAII scoped
/// spans exporting Chrome-trace-event JSON (chrome://tracing / Perfetto).
///
/// Design rules (enforced by tests/test_obs.cpp):
///   * One runtime switch. `LOCALSPAN_OBS` env (unset/"0" = off) seeds
///     `enabled()`; `set_enabled()` flips it at runtime. When off, every
///     probe is ONE inlined relaxed load + predictable branch — the
///     counting-allocator suites keep proving hot paths allocate nothing.
///   * Lock-free hot path. Each thread owns a fixed-capacity slab of
///     relaxed atomics (single writer, scrape-time readers — TSan-clean);
///     the only lock is taken at registration, thread retirement and
///     scrape time, never per probe. A warmed thread's probes (counter
///     bump, histogram record, span begin/end) allocate nothing.
///   * Deterministic aggregation. Counter/gauge/histogram-bucket scrapes
///     are integer sums over slabs — independent of thread count and of
///     summation order. Slabs of exited threads are folded into retired
///     totals (and their trace events preserved), so nothing is lost when
///     a WorkerPool is destroyed. Wall-clock fields (span ns, histogram
///     sums of recorded durations) are inherently nondeterministic and
///     excluded from the determinism contract.
///
/// Metric names are dot-scoped by layer: `rg.*` (relaxed greedy),
/// `cover.*`/`cg.*` (cluster machinery), `dyn.*` (dynamic engine),
/// `pool.*` (WorkerPool), `net.*` (mis::luby_mis_parallel's analytic
/// synchronous rounds), `net.async.*` (AsyncNetwork/ReliableNetwork),
/// `io.*` (trace IO), `stretch.*` (graph::max_edge_stretch).
/// Register once per site via a function-local static:
///
///     static const obs::MetricId id = obs::counter_id("rg.edges_added");
///     obs::counter_add(id, st.added);

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace localspan::obs {

using MetricId = int;

namespace detail {
extern std::atomic<bool> g_enabled;
void counter_add_slow(MetricId id, std::int64_t delta) noexcept;
void gauge_set_slow(MetricId id, std::int64_t value) noexcept;
void histogram_record_slow(MetricId id, std::int64_t value) noexcept;
void span_end_slow(MetricId id, std::int64_t start_ns) noexcept;
[[nodiscard]] std::int64_t now_ns() noexcept;
}  // namespace detail

/// The one switch. Reads a process-global relaxed atomic; callers treat the
/// result as advisory (a concurrent flip may land mid-operation — the slabs
/// tolerate that by construction).
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Override the `LOCALSPAN_OBS` default at runtime (CLI does this when
/// `--obs-json`/`--trace` is passed; tests toggle it around builds).
void set_enabled(bool on) noexcept;

/// Registration: idempotent name -> id lookup (same name => same id).
/// Allocates and locks — do it once per site via a function-local static,
/// never inside a hot loop. Throws std::length_error if a fixed capacity
/// (see obs.cpp) is exhausted.
[[nodiscard]] MetricId counter_id(const std::string& name);
[[nodiscard]] MetricId gauge_id(const std::string& name);
[[nodiscard]] MetricId histogram_id(const std::string& name);
[[nodiscard]] MetricId span_id(const std::string& name);

/// Monotonically accumulating value (edges added, messages delivered, ...).
inline void counter_add(MetricId id, std::int64_t delta) noexcept {
  if (enabled()) detail::counter_add_slow(id, delta);
}

/// Last-write-wins level (current region count, configured threads, ...).
/// Scrapes take the max across threads so a snapshot is order-independent.
inline void gauge_set(MetricId id, std::int64_t value) noexcept {
  if (enabled()) detail::gauge_set_slow(id, value);
}

/// Log-bucketed distribution (base sqrt(2): quantiles carry <= 2^(1/4)
/// relative bucketing error). Values < 0 clamp to the zero bucket.
inline void histogram_record(MetricId id, std::int64_t value) noexcept {
  if (enabled()) detail::histogram_record_slow(id, value);
}

/// RAII scoped timer. Construction arms only when `enabled()`; destruction
/// bumps the span's count/total-ns slots and appends one Chrome trace event
/// to the owning thread's fixed buffer (silently counted as dropped when
/// full). Disarmed cost: one load + branch at each end.
class Span {
 public:
  explicit Span(MetricId id) noexcept : id_(enabled() ? id : -1) {
    if (id_ >= 0) start_ns_ = detail::now_ns();
  }
  ~Span() {
    if (id_ >= 0) detail::span_end_slow(id_, start_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricId id_;
  std::int64_t start_ns_ = 0;
};

/// Name the calling thread's trace track ("main", "worker 3", ...).
/// Unconditional (works before enablement) and cheap; call once per thread.
void set_thread_label(const char* label) noexcept;

struct HistogramSummary {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;  ///< bucket geometric midpoints — see class comment.
  double p90 = 0.0;
  double p99 = 0.0;
};

struct SpanStat {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
};

/// A scrape: every registered metric, aggregated across all threads that
/// ever recorded (live + retired), name-sorted within each section.
struct Snapshot {
  bool obs_enabled = false;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
  std::vector<SpanStat> spans;
};

[[nodiscard]] Snapshot snapshot();

/// Span aggregates only (cheap scrape for before/after phase diffing —
/// the registry's BuildResult::phase_breakdown uses this).
[[nodiscard]] std::vector<SpanStat> span_totals();

/// The snapshot as a JSON object ({"enabled":..., "counters":{...},
/// "gauges":{...}, "histograms":{...}, "spans":{...}}) — shared by
/// `--obs-json` and the bench `obs` meta block.
[[nodiscard]] std::string to_json(const Snapshot& snap);

/// Chrome trace event JSON: {"traceEvents":[...]} with one thread_name
/// metadata event per track followed by complete ("ph":"X") events sorted
/// by start timestamp (microseconds, globally monotone). Loadable in
/// chrome://tracing and Perfetto.
[[nodiscard]] std::string trace_json();

/// Zero every counter/gauge/histogram/span slot and drop all buffered and
/// retired trace events. Call only while no instrumented work is running.
void reset() noexcept;

}  // namespace localspan::obs
