#pragma once
/// \file query_engine.hpp
/// The serve-layer front end: publishes immutable topology snapshots (one
/// per dynamic-engine commit) and hands reader threads stretch-bounded
/// distance/route queries against the latest one.
///
///   writer thread                         reader threads (T of them)
///   ─────────────                         ──────────────────────────
///   DynamicSpanner::apply_batch(window)   Reader r = engine.reader();
///     └─ commit hook ──► QueryEngine::    r.distance(u, v) / r.route(u, v)
///        publish: freeze CsrView and        └─ share the current snapshot
///        liveness, build RoutingOracle,        (SnapshotStore::acquire),
///        SnapshotStore::publish (swap the      answer from oracle labels or
///        shared pointer under its mutex)       exact-Dijkstra fallback, let go
///
/// The writer builds every snapshot outside any lock; writer and readers
/// meet only on the store's mutex, held for one pointer copy or swap. A
/// snapshot is freed when the last reader holding it lets go. Every
/// reader owns a private `DijkstraWorkspace`, so fallback searches are
/// allocation-free once warm and the workspace's stale-view stamping keeps
/// a query from leaking state into the next.
///
/// Query semantics (see oracle.hpp for the bound's derivation):
///   * distance(u, v): the oracle label estimate when it is trustworthy
///     (finite and above the near threshold) — stretch ≤ stretch_bound();
///     otherwise an exact bounded Dijkstra, whose radius the estimate caps
///     when available. Counted as serve.oracle_hits / serve.oracle_fallbacks.
///   * route(u, v): a label-guided descent — the oracle estimate bounds an
///     early-exit Dijkstra, so the search explores the ellipse the bound
///     carves out instead of a full ball, and returns the exact shortest
///     path on the snapshot.

#include <cstdint>
#include <optional>
#include <vector>

#include "dynamic/dynamic_spanner.hpp"
#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"
#include "serve/snapshot.hpp"

namespace localspan::serve {

struct ServeOptions {
  /// Label-build parallelism for publish (runtime::resolve_threads
  /// semantics: 0 = LOCALSPAN_THREADS default). Labels are bit-identical at
  /// every thread count.
  int threads = 0;
};

/// One snapshot store + publish pipeline. Publishing is single-writer (the
/// thread driving the dynamic engine); readers are arbitrary threads, each
/// holding its own `Reader`. Readers borrow the engine and must not
/// outlive it; a `ReadGuard` they hand out may.
class QueryEngine {
 public:
  explicit QueryEngine(ServeOptions opts = {});

  /// Build and publish a snapshot of the dynamic engine's current state.
  /// Returns the new epoch. Called manually or through attach().
  std::uint64_t publish(const dynamic::DynamicSpanner& engine);

  /// Publish a static spanner (benches, tests): every vertex active.
  std::uint64_t publish(const graph::Graph& spanner, double stretch_t);

  /// Wire the engine's commit hook to republish here on every window
  /// commit. The hook holds a reference to this QueryEngine — detach (or
  /// destroy the dynamic engine) before destroying this object.
  void attach(dynamic::DynamicSpanner& engine);

  [[nodiscard]] const SnapshotStore& store() const noexcept { return store_; }
  [[nodiscard]] SnapshotStore& store() noexcept { return store_; }

  struct DistanceAnswer {
    double distance = graph::kInf;
    bool via_oracle = false;  ///< answered from labels alone (no search).
  };

  struct RouteAnswer {
    double distance = graph::kInf;
    int hops = -1;
    bool reachable = false;
    bool via_oracle = false;  ///< the search radius came from the oracle.
  };

  /// A reader thread's context: the engine plus a private search
  /// workspace. Create one per thread (reader()); not thread-safe itself.
  class Reader {
   public:
    explicit Reader(QueryEngine& engine) : engine_(&engine) {}

    /// Stretch-bounded distance query against the current snapshot.
    [[nodiscard]] DistanceAnswer distance(int u, int v);

    /// Exact shortest path on the current snapshot, oracle-pruned. When
    /// `path_out` is non-null it receives the vertex sequence u..v
    /// (cleared first; left empty when unreachable).
    [[nodiscard]] RouteAnswer route(int u, int v, std::vector<int>* path_out = nullptr);

    /// Hold the current snapshot explicitly (advanced use: batch several
    /// reads against one consistent topology).
    [[nodiscard]] SnapshotStore::ReadGuard pin() const { return engine_->store_.acquire(); }

   private:
    QueryEngine* engine_ = nullptr;
    graph::DijkstraWorkspace ws_;
  };

  /// A reader context for the calling (or a soon-to-run) thread.
  [[nodiscard]] Reader reader() { return Reader(*this); }

 private:
  std::uint64_t publish_snapshot(std::unique_ptr<TopologySnapshot> snap);

  SnapshotStore store_;
  graph::DijkstraWorkspace build_ws_;            ///< serial label-build scratch.
  std::optional<runtime::WorkerPool> pool_;      ///< engaged when threads > 1.
};

}  // namespace localspan::serve
