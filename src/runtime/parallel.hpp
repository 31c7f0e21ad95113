#pragma once
/// \file parallel.hpp
/// A small deterministic task runtime for the embarrassingly parallel hot
/// loops of the construction pipeline.
///
/// The paper's algorithm is *local* by design: per-vertex proximity balls,
/// per-edge redundancy ball harvests and per-vertex certification are
/// independent computations (the structure incremental/asynchronous
/// topology-control work exploits — Kluge et al., Koyuncu–Jafarkhani). The
/// runtime turns that locality into multicore speedup without giving up the
/// repo's determinism contract:
///
///   * `WorkerPool` — a fixed-size pool. `for_each(begin, end, fn)` splits
///     the index range into one *contiguous, statically computed* chunk per
///     worker (worker t always gets chunk t); the calling thread executes
///     chunk 0. Dispatch is a function pointer + context pointer, so a
///     warmed-up `for_each` performs **zero heap allocations** — the
///     property the counting-allocator suites enforce end-to-end. Each
///     worker also owns a `graph::DijkstraWorkspace`, so every search loop
///     hands each worker its own epoch-stamped scratch and the
///     zero-steady-state-allocation property survives parallel execution.
///   * `for_each_with_workspace`, `harvest_commit`, `scatter_commit` — the
///     pass shapes every parallel consumer is written against, once.
///
/// Determinism contract: every parallel consumer in the repo computes
/// *state-independent* per-item results in the parallel phase and commits
/// them in the serial item order (or reduces with an order-insensitive
/// exact operation like max on doubles or AND on bools). Results are
/// therefore **bit-identical** for every thread count, which
/// `tests/test_parallel.cpp` asserts across the scenario matrix.
///
/// Thread-count resolution: explicit request > `LOCALSPAN_THREADS` env
/// default > 1. A request of 0 means "use the default"; the default is 1
/// when the env var is unset, so nothing parallelizes unless asked to. A
/// command resolves its count once, at an edge — `api::AlgorithmRegistry::
/// build`, the `dynamic::DynamicSpanner` and `serve::QueryEngine`
/// constructors, the CLI — and owns the one pool; every library pass below
/// borrows a `WorkerPool*`, where null means serial.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/sp_workspace.hpp"

namespace localspan::runtime {

/// std::thread::hardware_concurrency(), never below 1.
[[nodiscard]] int hardware_threads() noexcept;

/// The process default: LOCALSPAN_THREADS when set to a positive integer
/// (clamped to [1, 256]), else 1. Read once and cached.
[[nodiscard]] int default_threads() noexcept;

/// Resolve a requested thread count: > 0 is used as given (clamped to
/// [1, 256]); <= 0 means "use default_threads()".
[[nodiscard]] int resolve_threads(int requested) noexcept;

/// Fixed-size thread pool with deterministic static chunking, plus one
/// shortest-path workspace per worker. Workspaces are as long-lived as the
/// pool, so repeated parallel passes (the dynamic engine's per-event
/// certify above all) reuse warm buffers and allocate nothing.
///
/// Single-client: one `for_each` at a time, issued from one owner thread
/// (the repo's consumers never nest dispatches). Worker t executes the t-th
/// contiguous chunk of the range; the caller doubles as worker 0. An
/// exception thrown by `fn` is captured and rethrown on the calling thread
/// (the lowest-index worker's exception wins, deterministically). Every
/// call dispatches, on a one-thread pool too: the serial path of a pass is
/// the helpers' (for_each_with_workspace, harvest_commit, scatter_commit).
class WorkerPool {
 public:
  /// Spawns `threads - 1` workers (the caller is worker 0).
  /// \throws std::invalid_argument when threads < 1.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Worker `worker`'s private workspace (index 0 is the calling thread's).
  [[nodiscard]] graph::DijkstraWorkspace& workspace(int worker) {
    return workspaces_[static_cast<std::size_t>(worker)];
  }

  /// Run fn(worker, i) for every i in [begin, end), worker in [0, threads).
  /// Allocation-free once the pool exists; blocks until every chunk is done.
  template <class Fn>
  void for_each(int begin, int end, Fn&& fn) {
    if (end - begin <= 0) return;
    using F = std::remove_reference_t<Fn>;
    dispatch(
        [](void* ctx, int worker, int b, int e) {
          F& f = *static_cast<F*>(ctx);  // F carries Fn's const qualification
          for (int i = b; i < e; ++i) f(worker, i);
        },
        const_cast<void*>(static_cast<const void*>(&fn)), begin, end);
  }

  /// Run fn(worker, i) for every i in [begin, end) with *dynamic* scheduling:
  /// workers pull the next index from a shared atomic counter instead of
  /// owning a static chunk. Use for skewed per-item costs (variable-size
  /// dirty-region repairs), where static chunking would idle most of the
  /// pool behind one expensive item. The item→worker assignment is NOT
  /// deterministic, so fn must compute a state-independent result into an
  /// item-owned slot; with serial in-order commits afterwards the observable
  /// outcome stays bit-identical at every thread count. Unlike for_each,
  /// error attribution across workers is schedule-dependent (an exception is
  /// still rethrown on the caller, but which one wins is not deterministic).
  template <class Fn>
  void for_each_dynamic(int begin, int end, Fn&& fn) {
    if (end - begin <= 0) return;
    using F = std::remove_reference_t<Fn>;
    struct Ctx {
      F* fn;
      std::atomic<int>* next;
      int end;
    };
    next_item_.store(begin, std::memory_order_relaxed);
    Ctx ctx{&fn, &next_item_, end};
    dispatch(
        [](void* c, int worker, int, int) {
          Ctx& x = *static_cast<Ctx*>(c);
          while (true) {
            const int i = x.next->fetch_add(1, std::memory_order_relaxed);
            if (i >= x.end) return;
            (*x.fn)(worker, i);
          }
        },
        &ctx, begin, end);
  }

 private:
  using TaskFn = void (*)(void* ctx, int worker, int chunk_begin, int chunk_end);

  /// Worker t's contiguous chunk of [begin, end).
  [[nodiscard]] std::pair<int, int> chunk(int begin, int end, int worker) const noexcept;

  void dispatch(TaskFn fn, void* ctx, int begin, int end);
  void worker_loop(int worker);

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  TaskFn task_fn_ = nullptr;
  void* task_ctx_ = nullptr;
  int task_begin_ = 0;
  int task_end_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped per dispatch; workers wait on it.
  int unfinished_ = 0;
  bool stop_ = false;
  std::atomic<int> next_item_{0};  ///< work counter for for_each_dynamic.
  std::vector<std::exception_ptr> errors_;  ///< one slot per worker.
  std::vector<graph::DijkstraWorkspace> workspaces_;  ///< one per worker.
};

/// Run fn(workspace, i) over [begin, end): on `pool`'s workers with their
/// private workspaces when a pool of several is provided, else serially on
/// `serial_ws`. Both paths call the identical fn, so consumers written
/// against this helper are bit-identical at every thread count by
/// construction (fn must compute a state-independent result per item;
/// commit order is the caller's).
template <class Fn>
void for_each_with_workspace(WorkerPool* pool, graph::DijkstraWorkspace& serial_ws, int begin,
                             int end, Fn&& fn) {
  if (pool == nullptr || pool->threads() == 1 || end - begin <= 1) {
    for (int i = begin; i < end; ++i) fn(serial_ws, i);
  } else {
    pool->for_each(begin, end,
                   [&](int worker, int i) { fn(pool->workspace(worker), i); });
  }
}

/// Harvest/commit over items [0, count) with a per-item result `Slot`, on
/// the static schedule: `harvest(workspace, worker, i, slot)` computes item
/// i's result, `commit(i, slot)` applies it on the calling thread in item
/// order. With no pool or a team of one the pass streams (harvest i, commit
/// i, one reused Slot on `serial_ws`, no per-item buffer); with several
/// workers each item has its own Slot and the commits follow the parallel
/// harvests. A harvest that reads nothing a commit changes gives the same
/// commits either way; one that does must tell the two apart itself
/// (ext::fault_tolerant_greedy).
template <class Slot, class Harvest, class Commit>
void harvest_commit(WorkerPool* pool, graph::DijkstraWorkspace& serial_ws, int count,
                    Harvest&& harvest, Commit&& commit) {
  if (pool == nullptr || pool->threads() == 1 || count <= 1) {
    Slot slot{};
    for (int i = 0; i < count; ++i) {
      harvest(serial_ws, 0, i, slot);
      commit(i, slot);
    }
    return;
  }
  std::vector<Slot> slots(static_cast<std::size_t>(count));
  pool->for_each(0, count, [&](int worker, int i) {
    harvest(pool->workspace(worker), worker, i, slots[static_cast<std::size_t>(i)]);
  });
  for (int i = 0; i < count; ++i) commit(i, slots[static_cast<std::size_t>(i)]);
}

/// Drain the heap push/pop tallies (`DijkstraWorkspace::take_heap_ops`) of
/// `serial_ws` and of every worker workspace of `pool`. A search's tally does
/// not depend on which workspace ran it, so the totals read the same at
/// every thread count.
inline std::pair<long long, long long> take_heap_ops(graph::DijkstraWorkspace& serial_ws,
                                                     WorkerPool* pool) {
  auto [pushes, pops] = serial_ws.take_heap_ops();
  for (int w = 0; pool != nullptr && w < pool->threads(); ++w) {
    const auto [a, b] = pool->workspace(w).take_heap_ops();
    pushes += a;
    pops += b;
  }
  return {pushes, pops};
}

/// Scatter/commit for variable-size item work (the batched-churn region
/// repair above all). `harvest(workspace, worker, i)` computes a
/// state-independent result for item i into an item-owned slot; items are
/// scheduled *dynamically* because their costs are skewed (one big repair
/// region next to many tiny ones) and static chunking would serialize the
/// pool behind the big one. `commit(i)` then runs serially in item order on
/// the calling thread. Without a pool, or with a team of one, the pass
/// streams: harvest i, then commit i. Because no harvest reads what an
/// earlier item's commit changes and the commit order is fixed, the
/// combined effect is bit-identical at every thread count even though the
/// parallel execution order is not.
template <class Harvest, class Commit>
void scatter_commit(WorkerPool* pool, graph::DijkstraWorkspace& serial_ws, int count,
                    Harvest&& harvest, Commit&& commit) {
  if (pool == nullptr || pool->threads() == 1 || count <= 1) {
    for (int i = 0; i < count; ++i) {
      harvest(serial_ws, 0, i);
      commit(i);
    }
    return;
  }
  pool->for_each_dynamic(
      0, count, [&](int worker, int i) { harvest(pool->workspace(worker), worker, i); });
  for (int i = 0; i < count; ++i) commit(i);
}

}  // namespace localspan::runtime
