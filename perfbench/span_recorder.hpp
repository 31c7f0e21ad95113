#pragma once
/// \file span_recorder.hpp
/// Bench-side tracing for bench_localspan: spans recorded from outside the
/// library, around the calls the benchmark makes into each layer's public
/// functions.
///
/// Every thread that records owns one Track, registered once under a lock;
/// after that a span costs no lock. A Scope pushes itself on its thread's
/// open stack, so its parent is whatever span was open when it began.
/// emit() adds an already-finished span as a child of the open one; the
/// benchmark uses it to split one library call into parts the call reports
/// itself (construct time inside a registry build, repair time inside a
/// batch whose commit hook publishes). Spans stay in memory until the run
/// ends. While recording is off a Scope costs one load and one branch, so
/// the untraced passes that produce the end-to-end metrics run the same code.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;  ///< string literal.
  int parent;        ///< index of the enclosing span on the same track, -1 for a root.
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Track {
  std::string label;
  std::vector<SpanRecord> spans;
  std::vector<int> open;  ///< indices of the spans still open, innermost last.
};

class Recorder {
 public:
  [[nodiscard]] static Recorder& get() {
    static Recorder r;
    return r;
  }

  /// Drop every track, then record from now on. Call from the main thread,
  /// which becomes the first track ("main") and the one wall time is
  /// attributed against.
  void start() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      tracks_.clear();
    }
    current() = nullptr;
    start_ns_ = now_ns();
    on_.store(true, std::memory_order_relaxed);
    attach("main");
  }

  void stop() {
    end_ns_ = now_ns();
    on_.store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] bool on() const noexcept { return on_.load(std::memory_order_relaxed); }

  /// Give the calling thread its own track (no-op while recording is off).
  void attach(const std::string& label) {
    if (!on()) return;
    const std::lock_guard<std::mutex> lk(mu_);
    tracks_.push_back(std::make_unique<Track>());
    tracks_.back()->label = label;
    current() = tracks_.back().get();
  }

  [[nodiscard]] static Track*& current() noexcept {
    thread_local Track* track = nullptr;
    return track;
  }

  /// Tracks in registration order; read only after every recording thread
  /// has been joined.
  [[nodiscard]] const std::vector<std::unique_ptr<Track>>& tracks() const { return tracks_; }
  [[nodiscard]] std::int64_t start_ns() const noexcept { return start_ns_; }
  [[nodiscard]] std::int64_t end_ns() const noexcept { return end_ns_; }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Track>> tracks_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
};

/// RAII span on the calling thread's track.
class Scope {
 public:
  explicit Scope(const char* name) noexcept {
    Track* t = Recorder::current();
    if (t == nullptr || !Recorder::get().on()) return;
    track_ = t;
    index_ = static_cast<int>(t->spans.size());
    t->spans.push_back({name, t->open.empty() ? -1 : t->open.back(), now_ns(), 0});
    t->open.push_back(index_);
  }
  ~Scope() {
    if (track_ == nullptr) return;
    track_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    track_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Track* track_ = nullptr;
  int index_ = -1;
};

/// Record a finished span [start, end] as a child of the innermost open one.
inline void emit(const char* name, std::int64_t start, std::int64_t end) {
  Track* t = Recorder::current();
  if (t == nullptr || !Recorder::get().on()) return;
  t->spans.push_back({name, t->open.empty() ? -1 : t->open.back(), start, end});
}

struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;  ///< duration minus the time its child spans cover.
};

/// Inclusive and self time per span name. On the main track the self times
/// plus `unattributed_ns` (wall time no root span covers) add up to the
/// recorded wall time exactly; the other tracks are reported on their own.
struct Attribution {
  std::int64_t wall_ns = 0;
  std::int64_t unattributed_ns = 0;
  std::map<std::string, SpanTotals> main;
  std::map<std::string, SpanTotals> other;
};

[[nodiscard]] inline Attribution attribute(const Recorder& rec) {
  Attribution a;
  a.wall_ns = rec.end_ns() - rec.start_ns();
  std::int64_t roots_ns = 0;
  for (std::size_t k = 0; k < rec.tracks().size(); ++k) {
    const Track& t = *rec.tracks()[k];
    std::vector<std::int64_t> self(t.spans.size());
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      self[i] += t.spans[i].end_ns - t.spans[i].start_ns;
      if (t.spans[i].parent >= 0) {
        self[static_cast<std::size_t>(t.spans[i].parent)] -= t.spans[i].end_ns - t.spans[i].start_ns;
      } else if (k == 0) {
        roots_ns += t.spans[i].end_ns - t.spans[i].start_ns;
      }
    }
    std::map<std::string, SpanTotals>& out = k == 0 ? a.main : a.other;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      SpanTotals& s = out[t.spans[i].name];
      ++s.count;
      s.incl_ns += t.spans[i].end_ns - t.spans[i].start_ns;
      s.self_ns += self[i];
    }
  }
  a.unattributed_ns = a.wall_ns - roots_ns;
  return a;
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
/// per span, one track per recording thread. `op` numbers the root span a
/// span belongs to, so the spans of one command, event or query share it.
[[nodiscard]] inline std::string chrome_trace(const Recorder& rec) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (std::size_t k = 0; k < rec.tracks().size(); ++k) {
    const Track& t = *rec.tracks()[k];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", k, t.label.c_str());
    out += buf;
    first = false;
    std::vector<int> op(t.spans.size());
    int roots = 0;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      op[i] = s.parent < 0 ? roots++ : op[static_cast<std::size_t>(s.parent)];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%d}}",
                    s.name, k, 1e-3 * static_cast<double>(s.start_ns - rec.start_ns()),
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns), op[i]);
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
