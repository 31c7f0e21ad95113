/// \file obs.cpp
/// Slab-per-thread observability backend. See obs.hpp for the contract.
///
/// Layout: a leaked singleton Registry holds the name tables, the list of
/// live slabs (one per thread that ever recorded), retired integer totals,
/// preserved trace events of exited threads, and a slab free list so a
/// process that churns WorkerPools reuses slab memory instead of growing.
/// Hot-path writes touch only the calling thread's slab with relaxed
/// atomics (single writer; the scraper reads relaxed — no torn values, no
/// TSan reports). Trace events publish through a release store of the
/// per-slab event count; the scraper's acquire load makes the event bytes
/// visible.

#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "io/json.hpp"

namespace localspan::obs {

namespace {

constexpr int kMaxCounters = 192;
constexpr int kMaxGauges = 32;
constexpr int kMaxHistograms = 48;
constexpr int kMaxSpans = 64;
constexpr int kHistBuckets = 128;  ///< base-sqrt(2) buckets cover all int64.
constexpr int kMaxEvents = 16384;  ///< per-thread trace buffer (then drop).
constexpr int kLabelCap = 32;

struct TraceEvent {
  std::int32_t span = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// One thread's metric storage. Owner writes relaxed; scraper reads
/// relaxed (integers — order-independent sums). ~0.5 MB, heap-allocated.
struct Slab {
  std::atomic<std::int64_t> counters[kMaxCounters] = {};
  std::atomic<std::int64_t> gauges[kMaxGauges] = {};
  std::atomic<std::int64_t> hist[kMaxHistograms][kHistBuckets] = {};
  std::atomic<std::int64_t> hist_sum[kMaxHistograms] = {};
  std::atomic<std::int64_t> hist_max[kMaxHistograms] = {};
  std::atomic<std::int64_t> span_count[kMaxSpans] = {};
  std::atomic<std::int64_t> span_ns[kMaxSpans] = {};
  TraceEvent events[kMaxEvents];
  std::atomic<std::int32_t> event_count{0};
  std::atomic<std::int64_t> events_dropped{0};
  char label[kLabelCap] = {};  ///< guarded by Registry::mu.
  int tid = 0;

  void zero() noexcept {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : gauges) g.store(0, std::memory_order_relaxed);
    for (auto& row : hist) {
      for (auto& b : row) b.store(0, std::memory_order_relaxed);
    }
    for (auto& s : hist_sum) s.store(0, std::memory_order_relaxed);
    for (auto& m : hist_max) m.store(0, std::memory_order_relaxed);
    for (auto& c : span_count) c.store(0, std::memory_order_relaxed);
    for (auto& n : span_ns) n.store(0, std::memory_order_relaxed);
    event_count.store(0, std::memory_order_relaxed);
    events_dropped.store(0, std::memory_order_relaxed);
  }
};

/// Integer totals folded out of retired slabs (plain fields; Registry::mu).
struct RetiredTotals {
  std::int64_t counters[kMaxCounters] = {};
  std::int64_t gauges[kMaxGauges] = {};
  std::int64_t hist[kMaxHistograms][kHistBuckets] = {};
  std::int64_t hist_sum[kMaxHistograms] = {};
  std::int64_t hist_max[kMaxHistograms] = {};
  std::int64_t span_count[kMaxSpans] = {};
  std::int64_t span_ns[kMaxSpans] = {};
  std::int64_t events_dropped = 0;
};

/// Trace events preserved from an exited thread.
struct RetiredTrack {
  int tid = 0;
  std::string label;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  std::vector<std::string> span_names;
  std::vector<Slab*> live;
  std::vector<Slab*> free_list;
  RetiredTotals retired;
  std::vector<RetiredTrack> retired_tracks;
  int next_tid = 0;
  std::chrono::steady_clock::time_point anchor = std::chrono::steady_clock::now();
};

/// Leaked: slabs of still-live threads may outlast static destruction.
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

MetricId intern(std::vector<std::string>& names, const std::string& name, int cap,
                const char* kind) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<MetricId>(i);
  }
  if (static_cast<int>(names.size()) >= cap) {
    throw std::length_error(std::string("obs: ") + kind + " capacity exhausted at '" + name + "'");
  }
  names.push_back(name);
  return static_cast<MetricId>(names.size() - 1);
}

Slab* acquire_slab() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  Slab* s;
  if (!r.free_list.empty()) {
    s = r.free_list.back();
    r.free_list.pop_back();
  } else {
    s = new Slab;
  }
  s->tid = r.next_tid++;
  s->label[0] = '\0';
  r.live.push_back(s);
  return s;
}

void retire_slab(Slab* s) noexcept {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  RetiredTotals& t = r.retired;
  for (int i = 0; i < kMaxCounters; ++i) {
    t.counters[i] += s->counters[i].load(std::memory_order_relaxed);
  }
  for (int i = 0; i < kMaxGauges; ++i) {
    t.gauges[i] = std::max(t.gauges[i], s->gauges[i].load(std::memory_order_relaxed));
  }
  for (int i = 0; i < kMaxHistograms; ++i) {
    for (int b = 0; b < kHistBuckets; ++b) {
      t.hist[i][b] += s->hist[i][b].load(std::memory_order_relaxed);
    }
    t.hist_sum[i] += s->hist_sum[i].load(std::memory_order_relaxed);
    t.hist_max[i] = std::max(t.hist_max[i], s->hist_max[i].load(std::memory_order_relaxed));
  }
  for (int i = 0; i < kMaxSpans; ++i) {
    t.span_count[i] += s->span_count[i].load(std::memory_order_relaxed);
    t.span_ns[i] += s->span_ns[i].load(std::memory_order_relaxed);
  }
  t.events_dropped += s->events_dropped.load(std::memory_order_relaxed);
  const int n = s->event_count.load(std::memory_order_acquire);
  if (n > 0) {
    RetiredTrack track;
    track.tid = s->tid;
    track.label = s->label;
    track.events.assign(s->events, s->events + n);
    r.retired_tracks.push_back(std::move(track));
  }
  r.live.erase(std::remove(r.live.begin(), r.live.end(), s), r.live.end());
  s->zero();
  r.free_list.push_back(s);
}

struct SlabOwner {
  Slab* s = nullptr;
  ~SlabOwner() {
    if (s != nullptr) retire_slab(s);
  }
};

Slab* my_slab() {
  thread_local SlabOwner owner;
  if (owner.s == nullptr) owner.s = acquire_slab();  // once per thread.
  return owner.s;
}

/// Single-writer add: cheaper than fetch_add, identical semantics here.
inline void bump(std::atomic<std::int64_t>& slot, std::int64_t delta) noexcept {
  slot.store(slot.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

/// Base-sqrt(2) bucket index: 0 holds v <= 0; bucket 1 + 2b + half holds
/// [2^b, 1.5*2^b) (half=0) and [1.5*2^b, 2^(b+1)) (half=1).
int bucket_index(std::int64_t v) noexcept {
  if (v <= 0) return 0;
  const auto u = static_cast<std::uint64_t>(v);
  const int b = std::bit_width(u) - 1;
  const int half = (b >= 1 && u >= (std::uint64_t{3} << (b - 1))) ? 1 : 0;
  const int idx = 1 + 2 * b + half;
  return idx < kHistBuckets ? idx : kHistBuckets - 1;
}

/// Geometric midpoint of the bucket's [lo, hi) range — the quantile
/// representative (relative error <= 2^(1/4) by construction).
double bucket_rep(int idx) noexcept {
  if (idx <= 0) return 0.0;
  const int b = (idx - 1) / 2;
  const int half = (idx - 1) % 2;
  const double lo = half != 0 ? 3.0 * std::ldexp(1.0, b - 1) : std::ldexp(1.0, b);
  const double hi = half != 0 ? std::ldexp(1.0, b + 1) : 3.0 * std::ldexp(1.0, b - 1);
  return std::sqrt(lo * hi);
}

double quantile_from_buckets(const std::int64_t* buckets, std::int64_t count, double q) noexcept {
  if (count <= 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count)));
  std::int64_t seen = 0;
  for (int i = 0; i < kHistBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank && buckets[i] > 0) return bucket_rep(i);
    if (seen >= rank) {
      // rank fell on an empty tail of a bucket run; keep scanning for the
      // next populated bucket (can only happen with rank<=0 edge cases).
      for (int j = i; j < kHistBuckets; ++j) {
        if (buckets[j] > 0) return bucket_rep(j);
      }
      return 0.0;
    }
  }
  for (int j = kHistBuckets - 1; j >= 0; --j) {
    if (buckets[j] > 0) return bucket_rep(j);
  }
  return 0.0;
}

bool env_default() noexcept {
  const char* e = std::getenv("LOCALSPAN_OBS");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

/// Microseconds with nanosecond fraction, formatted without locale or
/// floating-point round-trip concerns.
void append_us(std::string& out, std::int64_t ns) {
  if (ns < 0) ns = 0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{env_default()};

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              reg().anchor)
      .count();
}

void counter_add_slow(MetricId id, std::int64_t delta) noexcept {
  if (id < 0 || id >= kMaxCounters) return;
  bump(my_slab()->counters[id], delta);
}

void gauge_set_slow(MetricId id, std::int64_t value) noexcept {
  if (id < 0 || id >= kMaxGauges) return;
  my_slab()->gauges[id].store(value, std::memory_order_relaxed);
}

void histogram_record_slow(MetricId id, std::int64_t value) noexcept {
  if (id < 0 || id >= kMaxHistograms) return;
  Slab* s = my_slab();
  bump(s->hist[id][bucket_index(value)], 1);
  bump(s->hist_sum[id], value > 0 ? value : 0);
  auto& mx = s->hist_max[id];
  if (value > mx.load(std::memory_order_relaxed)) {
    mx.store(value, std::memory_order_relaxed);
  }
}

void span_end_slow(MetricId id, std::int64_t start_ns) noexcept {
  if (id < 0 || id >= kMaxSpans) return;
  const std::int64_t dur = now_ns() - start_ns;
  Slab* s = my_slab();
  bump(s->span_count[id], 1);
  bump(s->span_ns[id], dur > 0 ? dur : 0);
  const std::int32_t i = s->event_count.load(std::memory_order_relaxed);
  if (i < kMaxEvents) {
    s->events[i] = TraceEvent{id, start_ns, dur > 0 ? dur : 0};
    s->event_count.store(i + 1, std::memory_order_release);
  } else {
    bump(s->events_dropped, 1);
  }
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricId counter_id(const std::string& name) {
  return intern(reg().counter_names, name, kMaxCounters, "counter");
}

MetricId gauge_id(const std::string& name) {
  return intern(reg().gauge_names, name, kMaxGauges, "gauge");
}

MetricId histogram_id(const std::string& name) {
  return intern(reg().hist_names, name, kMaxHistograms, "histogram");
}

MetricId span_id(const std::string& name) {
  return intern(reg().span_names, name, kMaxSpans, "span");
}

void set_thread_label(const char* label) noexcept {
  Slab* s = my_slab();  // before the lock: acquire_slab locks the same mutex.
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::snprintf(s->label, kLabelCap, "%s", label);
}

Snapshot snapshot() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  Snapshot out;
  out.obs_enabled = enabled();

  const auto nc = static_cast<int>(r.counter_names.size());
  const auto ng = static_cast<int>(r.gauge_names.size());
  const auto nh = static_cast<int>(r.hist_names.size());
  const auto ns = static_cast<int>(r.span_names.size());

  std::vector<std::int64_t> counters(r.retired.counters, r.retired.counters + nc);
  std::vector<std::int64_t> gauges(r.retired.gauges, r.retired.gauges + ng);
  std::vector<std::vector<std::int64_t>> hist(nh);
  std::vector<std::int64_t> hist_sum(r.retired.hist_sum, r.retired.hist_sum + nh);
  std::vector<std::int64_t> hist_max(r.retired.hist_max, r.retired.hist_max + nh);
  for (int i = 0; i < nh; ++i) {
    hist[i].assign(r.retired.hist[i], r.retired.hist[i] + kHistBuckets);
  }
  std::vector<std::int64_t> span_count(r.retired.span_count, r.retired.span_count + ns);
  std::vector<std::int64_t> span_ns(r.retired.span_ns, r.retired.span_ns + ns);

  for (const Slab* s : r.live) {
    for (int i = 0; i < nc; ++i) counters[i] += s->counters[i].load(std::memory_order_relaxed);
    for (int i = 0; i < ng; ++i) {
      gauges[i] = std::max(gauges[i], s->gauges[i].load(std::memory_order_relaxed));
    }
    for (int i = 0; i < nh; ++i) {
      for (int b = 0; b < kHistBuckets; ++b) {
        hist[i][b] += s->hist[i][b].load(std::memory_order_relaxed);
      }
      hist_sum[i] += s->hist_sum[i].load(std::memory_order_relaxed);
      hist_max[i] = std::max(hist_max[i], s->hist_max[i].load(std::memory_order_relaxed));
    }
    for (int i = 0; i < ns; ++i) {
      span_count[i] += s->span_count[i].load(std::memory_order_relaxed);
      span_ns[i] += s->span_ns[i].load(std::memory_order_relaxed);
    }
  }

  for (int i = 0; i < nc; ++i) out.counters.emplace_back(r.counter_names[i], counters[i]);
  for (int i = 0; i < ng; ++i) out.gauges.emplace_back(r.gauge_names[i], gauges[i]);
  for (int i = 0; i < nh; ++i) {
    HistogramSummary h;
    for (int b = 0; b < kHistBuckets; ++b) h.count += hist[i][b];
    h.sum = hist_sum[i];
    h.max = hist_max[i];
    h.mean = h.count > 0 ? static_cast<double>(h.sum) / static_cast<double>(h.count) : 0.0;
    // Bucket midpoints can overshoot the true top order statistic; the exact
    // max is tracked separately, so clamp the quantiles to it (keeps the
    // p50 <= p90 <= p99 <= max invariant readable and stays deterministic —
    // the max is an integer aggregate like the bucket counts).
    const auto max_d = static_cast<double>(h.max);
    h.p50 = std::min(quantile_from_buckets(hist[i].data(), h.count, 0.50), max_d);
    h.p90 = std::min(quantile_from_buckets(hist[i].data(), h.count, 0.90), max_d);
    h.p99 = std::min(quantile_from_buckets(hist[i].data(), h.count, 0.99), max_d);
    out.histograms.emplace_back(r.hist_names[i], h);
  }
  for (int i = 0; i < ns; ++i) {
    out.spans.push_back(SpanStat{r.span_names[i], span_count[i], span_ns[i]});
  }

  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  std::sort(out.spans.begin(), out.spans.end(),
            [](const SpanStat& a, const SpanStat& b) { return a.name < b.name; });
  return out;
}

std::vector<SpanStat> span_totals() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto ns = static_cast<int>(r.span_names.size());
  std::vector<SpanStat> out(static_cast<std::size_t>(ns));
  for (int i = 0; i < ns; ++i) {
    out[i].name = r.span_names[i];
    out[i].count = r.retired.span_count[i];
    out[i].total_ns = r.retired.span_ns[i];
  }
  for (const Slab* s : r.live) {
    for (int i = 0; i < ns; ++i) {
      out[i].count += s->span_count[i].load(std::memory_order_relaxed);
      out[i].total_ns += s->span_ns[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"enabled\": ";
  out += snap.obs_enabled ? "true" : "false";
  out += ",\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    io::append_json_escaped(out, snap.counters[i].first);
    out += "\": " + std::to_string(snap.counters[i].second);
  }
  out += snap.counters.empty() ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    io::append_json_escaped(out, snap.gauges[i].first);
    out += "\": " + std::to_string(snap.gauges[i].second);
  }
  out += snap.gauges.empty() ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSummary& h = snap.histograms[i].second;
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    io::append_json_escaped(out, snap.histograms[i].first);
    out += "\": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"mean\": ";
    append_double(out, h.mean);
    out += ", \"p50\": ";
    append_double(out, h.p50);
    out += ", \"p90\": ";
    append_double(out, h.p90);
    out += ", \"p99\": ";
    append_double(out, h.p99);
    out += "}";
  }
  out += snap.histograms.empty() ? "}" : "\n  }";
  out += ",\n  \"spans\": {";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanStat& s = snap.spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    io::append_json_escaped(out, s.name);
    out += "\": {\"count\": " + std::to_string(s.count);
    out += ", \"total_ns\": " + std::to_string(s.total_ns) + "}";
  }
  out += snap.spans.empty() ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::string trace_json() {
  struct Track {
    int tid;
    std::string label;
  };
  struct Ev {
    int tid;
    TraceEvent e;
  };
  std::vector<Track> tracks;
  std::vector<Ev> events;
  std::vector<std::string> span_names;
  {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    span_names = r.span_names;
    for (const RetiredTrack& t : r.retired_tracks) {
      tracks.push_back(Track{t.tid, t.label});
      for (const TraceEvent& e : t.events) events.push_back(Ev{t.tid, e});
    }
    for (const Slab* s : r.live) {
      const int n = s->event_count.load(std::memory_order_acquire);
      tracks.push_back(Track{s->tid, s->label});
      for (int i = 0; i < n; ++i) events.push_back(Ev{s->tid, s->events[i]});
    }
  }
  std::sort(tracks.begin(), tracks.end(),
            [](const Track& a, const Track& b) { return a.tid < b.tid; });
  std::stable_sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    return a.e.start_ns < b.e.start_ns;
  });

  std::string out;
  out.reserve(256 + events.size() * 96);
  out += "{\"traceEvents\": [\n";
  bool first = true;
  for (const Track& t : tracks) {
    out += first ? "" : ",\n";
    first = false;
    out += R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": )" + std::to_string(t.tid) +
           R"(, "args": {"name": ")";
    io::append_json_escaped(out, t.label.empty() ? "thread " + std::to_string(t.tid) : t.label);
    out += "\"}}";
  }
  for (const Ev& ev : events) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"";
    const auto id = static_cast<std::size_t>(ev.e.span);
    io::append_json_escaped(out, id < span_names.size() ? span_names[id] : "span?");
    out += R"(", "ph": "X", "pid": 1, "tid": )" + std::to_string(ev.tid) + ", \"ts\": ";
    append_us(out, ev.e.start_ns);
    out += ", \"dur\": ";
    append_us(out, ev.e.dur_ns);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void reset() noexcept {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired = RetiredTotals{};
  r.retired_tracks.clear();
  for (Slab* s : r.live) s->zero();
  for (Slab* s : r.free_list) s->zero();
}

}  // namespace localspan::obs
