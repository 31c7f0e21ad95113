#pragma once
/// \file dynamic_spanner.hpp
/// Incremental maintenance of the relaxed-greedy spanner under topology
/// churn — the dynamic counterpart of core/relaxed_greedy.hpp.
///
/// The paper's algorithm is local: every decision about an edge {u,v} is a
/// function of an O(1)-radius neighborhood (cluster covers reach δW_{i-1},
/// witness paths reach t·|uv| <= t, and all edge lengths are <= 1). The
/// engine exploits exactly that locality. After a window of events — one
/// for apply(), any number for apply_batch() — changes the UBG at a touched
/// vertex set D it
///
///   1. computes the *dirty ball* B = { v : d(v, D) <= R } and its core
///      C = { v : d(v, D) <= K } (weighted distances in the active weight,
///      i.e. through the §1.6 transform when one is configured), split into
///      vertex-disjoint repair regions,
///   2. re-runs the full relaxed-greedy machinery on the α-UBG induced on
///      each region's ball,
///   3. splices: drops standing spanner edges with both endpoints in C and
///      inserts every edge of the local results,
///   4. re-certifies with core::certify (locally: stretch <= t on every UBG
///      edge whose witness could have been disturbed, and the degree cap)
///      and falls back to a full recompute if certification fails.
///
/// With wmax = transform(1) (the heaviest possible edge), witness paths
/// weigh at most W = t·wmax, and the radii K = (t+1)·wmax, R = K + W make
/// the splice provably safe: an edge {x,y} whose old witness traversed a
/// dropped edge (a core edge, or a UBG edge incident to D) satisfies
/// d(x,D) <= K + W and d(y,D) <= K + W, so both endpoints lie in B and the
/// local rerun supplies a fresh witness; every other edge keeps its old
/// witness untouched. The step-4 checker therefore acts as a safety net for
/// engineering drift (and as the enforcement point for the degree cap,
/// which the union splice does not re-derive), not as the correctness
/// argument.

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "dynamic/churn.hpp"
#include "geom/grid.hpp"
#include "graph/graph.hpp"
#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"
#include "ubg/generator.hpp"

#include <memory>
#include <optional>

namespace localspan::dynamic {

/// How much re-certification runs after each event.
enum class CheckLevel {
  kOff,    ///< trust the locality argument; no per-event certification.
  kLocal,  ///< certify stretch and degree where a disturbed witness could serve.
  kFull,   ///< the full certificate: every guarantee, lightness included.
};

struct DynamicOptions {
  /// Passed through to every local rerun and to full recomputes, so the
  /// dynamic spanner honors ablations and the §1.6 weight transform. The
  /// engine sets `workspace` and `worker_pool` to its own.
  core::RelaxedGreedyOptions greedy;

  /// Deterministic gray-zone rule applied to event-incident pairs: connect
  /// iff distance <= connect_radius, with alpha <= connect_radius <= 1.
  /// (A probabilistic generation-time policy cannot be replayed for nodes it
  /// has never seen; the engine's rule takes over at the churn boundary.)
  double connect_radius = 1.0;

  /// Overrides the dirty-ball radius R outright when > 0 — for experiments
  /// on the locality/correctness trade-off and for exercising the fallback
  /// path in tests. The core shrinks to K = max(0, R - t·wmax).
  double ball_radius_override = 0.0;

  /// What each repair certifies; a failed certificate always falls back to
  /// a full recompute.
  CheckLevel check = CheckLevel::kLocal;

  /// Baseline mode: rebuild the spanner from scratch after every event
  /// instead of repairing locally (what the E15 bench races against).
  bool always_full_recompute = false;

  /// Degree/lightness caps enforced by the checker (lightness at kFull
  /// only, in transformed units: w(spanner) / w(MSF(reweighted UBG))).
  core::VerifyCaps caps;

  /// Worker threads for the parallel passes: the local reruns / full
  /// recomputes and the per-vertex certify sweep. 0 = the process
  /// default (LOCALSPAN_THREADS env, else 1). The maintained spanner is
  /// bit-identical at every thread count; the engine owns one long-lived
  /// pool, so the steady state spawns no threads and the warmed certify
  /// still allocates nothing.
  int threads = 0;
};

/// Per-event repair telemetry (the E15 bench aggregates these): apply()'s
/// one-event window BatchStats, mapped field for field.
struct RepairStats {
  EventKind kind = EventKind::kJoin;
  int node = 0;
  double time = 0.0;

  int ball_size = 0;             ///< |B|.
  int sub_edges = 0;             ///< UBG edges induced on B (local rerun size).
  int spanner_edges_removed = 0; ///< dropped: UBG-departed + core replacement.
  int spanner_edges_added = 0;   ///< inserted from the local rerun.
  int certify_scope = 0;         ///< vertices the certification pass visited.

  bool check_ran = false;
  bool check_passed = true;
  bool fell_back = false;

  double seconds = 0.0;  ///< wall time of the event's window.
};

/// Whole-window repair telemetry for apply_batch (the E15 batch sweep
/// aggregates these). Deliberately flat — no heap-owning members — so a
/// warmed batch cycle can return it without allocating.
struct BatchStats {
  int events = 0;          ///< events ingested in this window.
  int regions = 0;         ///< disjoint repair regions after the ball union.
  int merged_events = 0;   ///< events folded into a region opened by an earlier event.
  int ball_union = 0;      ///< total vertices across the (disjoint) region balls.
  int max_region_ball = 0; ///< largest region ball.
  int sub_edges = 0;       ///< UBG edges across all region sub-instances.
  int spanner_edges_removed = 0;  ///< UBG-departed + core replacement drops.
  int spanner_edges_added = 0;    ///< inserted from the local reruns.
  int certify_scope = 0;   ///< vertices the one merged certification pass visited.
  bool check_ran = false;
  bool check_passed = true;
  bool fell_back = false;
  double seconds = 0.0;    ///< wall time of the whole apply_batch() call.
};

/// A standing spanner over a mutable α-UBG instance.
///
/// Node lifecycle: ids are slots. Live slots carry a position inside the
/// deployment box (all coordinates >= 0); dead slots are parked at distinct
/// far-away positions (coordinate 0 negative) so the instance remains a
/// *valid* α-UBG at all times — parked nodes are beyond distance 1 of
/// everything and therefore correctly isolated, and every algorithm in the
/// static stack treats them as trivial components.
class DynamicSpanner {
 public:
  /// Takes ownership of the instance, computes the initial spanner with the
  /// standard static pipeline. \throws std::invalid_argument on parameter
  /// violations (including connect_radius outside [alpha, 1]).
  DynamicSpanner(ubg::UbgInstance inst, const core::Params& params, DynamicOptions opts = {});

  /// Neither copyable nor movable: opts_.greedy.workspace points at this
  /// object's own greedy_ws_, which a defaulted copy/move would silently
  /// re-aim at the source object.
  DynamicSpanner(const DynamicSpanner&) = delete;
  DynamicSpanner& operator=(const DynamicSpanner&) = delete;
  DynamicSpanner(DynamicSpanner&&) = delete;
  DynamicSpanner& operator=(DynamicSpanner&&) = delete;

  /// Apply one event: the apply_batch() pipeline on a one-event window.
  /// \throws std::invalid_argument on an event invalid for the current
  /// topology (join of a live node, leave/move of a dead one, position
  /// outside the deployment quadrant, dimension mismatch), engine untouched.
  RepairStats apply(const ChurnEvent& ev);

  /// Apply a whole trace in order. \throws std::invalid_argument when the
  /// trace header does not match the instance (dim/alpha).
  std::vector<RepairStats> apply_all(const ChurnTrace& trace);

  /// Ingest a whole window of events at once. Semantics match a sequential
  /// replay of the window — the same UBG mutations in the same order, a
  /// certifier-equivalent spanner at the end — but the repair work is
  /// *coalesced*: ONE multi-source bounded search from every seed of the
  /// window computes the union dirty ball U = ∪ ball(D_i) on the final
  /// topology, one union-find over U's vertices and the window's events
  /// (uniting the ends of every edge inside U, and each event with its
  /// seeds) splits U into disjoint repair regions — U's connected
  /// components joined through shared events, so overlapping balls always
  /// share a region — the regions are repaired in parallel on the
  /// engine-owned worker team (regions are vertex-disjoint, so their local
  /// reruns read frozen state and are independent by the witness-locality
  /// argument at the top of this file), splices are committed serially in
  /// deterministic region order, and ONE merged-scope certification pass
  /// replaces the per-event passes. The resulting spanner is bit-identical
  /// at every thread count; apply() is the one-event window.
  ///
  /// \throws std::invalid_argument on the first event invalid for the
  /// topology at its position in the window (same per-event rules as
  /// apply()). Events before it are already ingested at that point, so the
  /// engine restores a certified state with a full recompute before
  /// rethrowing; the batch is not rolled back. An invalid first event
  /// leaves the engine untouched.
  BatchStats apply_batch(std::span<const ChurnEvent> events);

  /// Rebuild the spanner from scratch with the static pipeline (also the
  /// certification-failure fallback).
  void full_recompute();

  /// Install a post-commit hook, invoked after every *completed* top-level
  /// mutation — apply() (so once per event under apply_all), a non-empty
  /// apply_batch() (once per window), or a direct full_recompute() — with
  /// the engine in a consistent state. The serve layer's QueryEngine uses
  /// this to republish an immutable topology snapshot on window commit. The hook runs on the
  /// mutating thread with the engine borrowed const; it must not mutate the
  /// engine and must not throw. It is NOT invoked when a mutation exits by
  /// exception (even though apply_batch restores a certified state before
  /// rethrowing): the read side then simply keeps serving the previous
  /// snapshot.
  void set_commit_hook(std::function<void(const DynamicSpanner&)> hook) {
    commit_hook_ = std::move(hook);
  }

  [[nodiscard]] const ubg::UbgInstance& instance() const noexcept { return inst_; }
  [[nodiscard]] const graph::Graph& spanner() const noexcept { return spanner_; }
  [[nodiscard]] const core::Params& params() const noexcept { return params_; }
  [[nodiscard]] bool is_active(int v) const;
  [[nodiscard]] int active_count() const noexcept { return active_count_; }

  /// The dirty-ball radius R and core radius K in active weight.
  [[nodiscard]] double ball_radius() const noexcept { return ball_radius_; }
  [[nodiscard]] double core_radius() const noexcept { return core_radius_; }

  /// The certification pass alone: core::certify of the standing spanner,
  /// on the engine's pool, in the units of the configured weight transform.
  /// A non-empty `modified` gives the local certificate (stretch and
  /// degree) over the vertices within t·wmax + wmax of it, enumerated from
  /// one search's touched list, so it costs O(|scope|) and never walks all
  /// n vertices. An empty `modified` gives the full certificate that
  /// CheckLevel::kFull runs: every guarantee, lightness included. If
  /// `scope_size_out` is non-null it receives the number of vertices in
  /// scope. Exposed for tests and benches. A warmed local certify
  /// allocates nothing.
  [[nodiscard]] bool certify(const std::vector<int>& modified,
                             int* scope_size_out = nullptr) const;

  /// Region index per event of the most recent window (apply() runs a
  /// one-event window), in event order (-1: the event touched no live
  /// vertex and joined no region). Region indices number the disjoint
  /// repair regions in their deterministic commit order (ascending
  /// first-member-event). Exposed for the partition-determinism tests.
  [[nodiscard]] const std::vector<int>& last_region_of_event() const noexcept {
    return region_of_event_;
  }

 private:
  /// RAII around each public mutator: the hook fires when the mutation
  /// completes normally, and never during stack unwinding (a hook must not
  /// run — let alone throw — mid-propagation). The window body rebuilds
  /// through rebuild(), which never notifies, so each mutation fires once.
  struct CommitNotifier {
    explicit CommitNotifier(DynamicSpanner& e) noexcept
        : eng(e), exceptions_on_entry(std::uncaught_exceptions()) {}
    ~CommitNotifier() {
      if (eng.commit_hook_ && std::uncaught_exceptions() == exceptions_on_entry) {
        eng.commit_hook_(eng);
      }
    }
    CommitNotifier(const CommitNotifier&) = delete;
    CommitNotifier& operator=(const CommitNotifier&) = delete;
    DynamicSpanner& eng;
    int exceptions_on_entry;
  };

  [[nodiscard]] double active_weight(double len) const;
  [[nodiscard]] geom::Point parked_position(int v) const;
  void ensure_slot(int v);
  void check_position(const geom::Point& pos) const;

  /// full_recompute() without the commit notification.
  void rebuild();

  /// One bounded search from `seeds` in the active weight, on ws_.
  [[nodiscard]] graph::SpView ball(const std::vector<int>& seeds, double radius) const;

  /// Add UBG edges between `node` (live, position set) and every live node
  /// within connect_radius, appending the connected partners to `touched`.
  /// Discovery walks the maintained spatial hash.
  void connect_neighbors(int node, std::vector<int>* touched);

  /// Mutate the UBG for one event (validated first, so an invalid event
  /// throws before any change): appends the touched live vertex set D into
  /// `*touched` (empty on entry) and counts dropped standing-spanner edges
  /// into `*spanner_removed`. Allocation-free once the scratch is warm.
  void ingest_event(const ChurnEvent& ev, int* spanner_removed, std::vector<int>* touched);

  /// The window body apply() and apply_batch() share (`events` non-empty).
  BatchStats run_window(std::span<const ChurnEvent> events);
  /// Its repair phases: union ball, regions, harvest/commit, certify.
  void repair_window(BatchStats* st);

  ubg::UbgInstance inst_;
  core::Params params_;
  DynamicOptions opts_;
  graph::Graph spanner_;
  std::vector<char> active_;
  int active_count_ = 0;
  geom::Grid grid_;           ///< spatial hash over the LIVE nodes only.
  double wmax_ = 1.0;         ///< transform(1): heaviest possible edge weight.
  double witness_bound_ = 0;  ///< W = t·wmax.
  double core_radius_ = 0;    ///< K.
  double ball_radius_ = 0;    ///< R = K + W (unless overridden).

  // Repair/certify scratch, reused across windows (no O(n) allocation or
  // initialization per event). Entries touched by one window are reset
  // before the next; the certify buffers are mutable because certify() is
  // logically const.
  mutable std::vector<char> scratch_in_scope_; ///< 0 outside the current scope.
  mutable std::vector<int> scratch_scoped_;    ///< scope members (reset list).
  std::vector<int> scratch_old_nbrs_;          ///< ingest_event neighbor snapshot.

  // ---- Window scratch (apply and apply_batch), reused across windows so a
  // warmed steady-state window allocates nothing. Indexed per event / per
  // region / per vertex; cleared or reset between windows.
  std::vector<std::vector<int>> batch_touched_;  ///< per-event seed sets D_i.
  std::vector<int> batch_union_;      ///< union dirty ball U (ascending node ids).
  /// The region partition: one union-find over U's vertices and the
  /// window's events (in a window of k events, event i is node i and
  /// vertex v is node k + v).
  std::vector<int> region_uf_;
  std::vector<int> region_of_event_;  ///< last window: event -> region (-1 none).
  /// One disjoint repair region: its member-event count, the union
  /// ball/core, and the harvested splice (drops/adds) awaiting its serial
  /// in-order commit.
  struct RegionScratch {
    int events = 0;
    std::vector<int> ball;  ///< sorted; disjoint from every other region's.
    std::vector<int> core;  ///< sorted subset of ball.
    int sub_edges = 0;
    std::vector<std::pair<int, int>> drops;  ///< core-internal standing edges.
    std::vector<graph::Edge> adds;           ///< local rerun edges, global ids.
  };
  std::vector<RegionScratch> batch_regions_;
  std::vector<int> batch_modified_;  ///< merged modified set for the one certify.
  /// Region-extraction scratch, sized to n and reset after each region:
  /// local ids (-1 outside the region's ball) and core flags (0 outside its
  /// core). Concurrent harvests share them (see repair_window).
  std::vector<int> local_id_;
  std::vector<char> in_core_;
  /// Per-worker relaxed-greedy options for concurrent region reruns: each
  /// points at that worker's pool workspace and is forced serial
  /// (worker_pool = nullptr) so regions never nest dispatches. Built once
  /// at construction; empty when no team is engaged.
  std::vector<core::RelaxedGreedyOptions> worker_greedy_opts_;

  /// Epoch-stamped shortest-path workspace for the dirty-ball, scope and
  /// witness searches; sized once, O(|ball| log |ball|) per search with no
  /// steady-state allocation. Mutable for the same reason as the scratch.
  mutable graph::DijkstraWorkspace ws_;
  /// Workspace handed to relaxed_greedy (local reruns and full recomputes)
  /// via opts_.greedy.workspace, so repeated repairs reuse one set of
  /// search buffers.
  graph::DijkstraWorkspace greedy_ws_;
  /// Long-lived worker team (engaged when the resolved thread count > 1):
  /// opts_.greedy.worker_pool points at it, so relaxed_greedy, the region
  /// harvest and the certify sweep reuse the same threads and per-worker
  /// workspaces across events.
  std::optional<runtime::WorkerPool> pool_;

  /// Post-commit notification (see set_commit_hook / CommitNotifier).
  std::function<void(const DynamicSpanner&)> commit_hook_;
};

/// Hook for apply_windows: the window's number (from 1) and its stats.
using WindowHook = std::function<void(int window, const BatchStats&)>;

/// The one churn-window loop: feed `events` to engine.apply_batch in
/// consecutive windows of `width` events (the last may be shorter), hand
/// each window's stats to `on_window` when it is set, and return the summed
/// BatchStats::seconds. \throws std::invalid_argument when width < 1;
/// apply_batch's errors propagate.
double apply_windows(DynamicSpanner& engine, std::span<const ChurnEvent> events, int width,
                     const WindowHook& on_window = {});

}  // namespace localspan::dynamic
