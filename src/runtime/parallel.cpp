#include "runtime/parallel.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/obs.hpp"

namespace localspan::runtime {

namespace {

constexpr int kMaxThreads = 256;

/// Registered once on first use (allocates); every later probe is slab-only.
struct PoolMetrics {
  obs::MetricId dispatches = obs::counter_id("pool.dispatches");
  obs::MetricId tasks = obs::counter_id("pool.tasks");
  obs::MetricId idle_ns = obs::counter_id("pool.idle_ns");
  obs::MetricId chunk = obs::span_id("pool.chunk");
};

const PoolMetrics& pool_metrics() {
  static const PoolMetrics m;
  return m;
}

std::int64_t mono_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int clamp_threads(long v) noexcept {
  if (v < 1) return 1;
  if (v > kMaxThreads) return kMaxThreads;
  return static_cast<int>(v);
}

int read_env_default() noexcept {
  const char* env = std::getenv("LOCALSPAN_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1) return 1;  // malformed => serial
  return clamp_threads(v);
}

}  // namespace

int hardware_threads() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : clamp_threads(static_cast<long>(hc));
}

int default_threads() noexcept {
  static const int cached = read_env_default();
  return cached;
}

int resolve_threads(int requested) noexcept {
  return requested > 0 ? clamp_threads(requested) : default_threads();
}

WorkerPool::WorkerPool(int threads) : threads_(threads) {
  if (threads < 1) throw std::invalid_argument("WorkerPool: threads must be >= 1");
  errors_.resize(static_cast<std::size_t>(threads_));
  workspaces_.resize(static_cast<std::size_t>(threads_));
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  try {
    for (int t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t] { worker_loop(t); });
    }
  } catch (...) {
    // A spawn failure mid-loop (thread-limited container) must not unwind
    // into ~vector<std::thread> with joinable threads — that would
    // std::terminate. Shut the spawned workers down and propagate.
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
      cv_start_.notify_all();
    }
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
    cv_start_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
}

std::pair<int, int> WorkerPool::chunk(int begin, int end, int worker) const noexcept {
  const auto total = static_cast<long long>(end) - begin;
  const int lo = begin + static_cast<int>(total * worker / threads_);
  const int hi = begin + static_cast<int>(total * (worker + 1) / threads_);
  return {lo, hi};
}

void WorkerPool::dispatch(TaskFn fn, void* ctx, int begin, int end) {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    task_fn_ = fn;
    task_ctx_ = ctx;
    task_begin_ = begin;
    task_end_ = end;
    unfinished_ = threads_ - 1;
    ++generation_;
    cv_start_.notify_all();
  }
  obs::counter_add(pool_metrics().dispatches, 1);
  // The calling thread is worker 0.
  try {
    const auto [lo, hi] = chunk(begin, end, 0);
    if (lo < hi) {
      const obs::Span span(pool_metrics().chunk);
      obs::counter_add(pool_metrics().tasks, 1);
      fn(ctx, 0, lo, hi);
    }
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_done_.wait(lk, [this] { return unfinished_ == 0; });
    task_fn_ = nullptr;
    task_ctx_ = nullptr;
  }
  // Deterministic error propagation: the lowest worker index wins.
  for (std::exception_ptr& err : errors_) {
    if (err) {
      const std::exception_ptr first = err;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void WorkerPool::worker_loop(int worker) {
  {
    char label[32];
    std::snprintf(label, sizeof(label), "worker %d", worker);
    obs::set_thread_label(label);  // unconditional: named even if obs is
                                   // enabled only after the pool spawned.
  }
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mutex_);
  while (true) {
    const bool timing = obs::enabled();
    const std::int64_t idle_t0 = timing ? mono_ns() : 0;
    cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (timing) obs::counter_add(pool_metrics().idle_ns, mono_ns() - idle_t0);
    if (stop_) return;
    seen = generation_;
    const TaskFn fn = task_fn_;
    void* ctx = task_ctx_;
    const int begin = task_begin_;
    const int end = task_end_;
    lk.unlock();
    std::exception_ptr err;
    try {
      const auto [lo, hi] = chunk(begin, end, worker);
      if (lo < hi) {
        const obs::Span span(pool_metrics().chunk);
        obs::counter_add(pool_metrics().tasks, 1);
        fn(ctx, worker, lo, hi);
      }
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    if (err) errors_[static_cast<std::size_t>(worker)] = err;
    if (--unfinished_ == 0) cv_done_.notify_one();
  }
}

}  // namespace localspan::runtime
