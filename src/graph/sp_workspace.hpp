#pragma once
/// \file sp_workspace.hpp
/// Output-sensitive shortest-path machinery: an epoch-stamped Dijkstra
/// workspace plus frozen CSR adjacency snapshots.
///
/// Most shortest-path questions in the paper are *radius-bounded* — cluster
/// covers explore to δW_{i-1}, queries to t·|xy|, dynamic repair to the
/// dirty-ball radius R — so the ball a search settles is usually tiny
/// compared to n. A dense Dijkstra pays O(n) to allocate and initialize
/// its dist/parent arrays per call, which makes the *memory traffic*
/// global even when the *work* is local. The
/// `DijkstraWorkspace` removes that: dist/parent entries are validated by an
/// epoch stamp, a search touches only the ball it settles, reset is O(1)
/// (bump the epoch), and the heap/touched buffers are reused so a warmed-up
/// workspace performs **zero allocations** per search. A bounded search
/// therefore costs O(|ball| log |ball|), independent of n.
///
/// The one exception is routing's point-to-point sp(s, d), whose ball is
/// the whole disk of radius sp(s, d). `distance(g, u, v, bound, potential)`
/// answers it goal-directed: heap keys are g(x) + h(x) with the admissible
/// potential h(x) = ρ·|xv| of `EuclideanPotential`, so the search settles
/// roughly an ellipse around the segment instead of the disk. It stops only
/// when the smallest key exceeds g(v)·(1 + 1e-9), which makes the answer
/// bit-for-bit the plain search's (the argument is at `run`). Every other
/// search uses `ZeroPotential`, which compiles to the plain loop.
///
/// A per-edge witness check reads only a few distances from each ball:
/// u's checked neighbours. `bounded_to_all` marks such a target set in an
/// epoch-stamped lane and stops once the last target settles, else drains
/// to the radius. A settled distance does not depend on when the search
/// stops, so every target reads the full search's value bit for bit. The
/// set is a compile-time mode like the potential: the other searches
/// compile to the loop without it.
///
/// Searches return a sparse `SpView` (touched-vertex list + O(1) stamped
/// lookup); the dense reference the workspace is tested against lives in
/// tests/dijkstra_reference.hpp.
///
/// The priority queue is a d-ary heap with a compile-time arity
/// (`BasicDijkstraWorkspace<Arity>`; the production alias uses 4). A 4-ary
/// heap halves the sift-down depth of a binary heap — fewer dependent
/// cache-missing levels per pop — while the four children of a node share
/// one or two cache lines, so the extra comparisons are nearly free. The
/// pop order among *equal* keys can differ between arities, but every
/// full-drain bounded search settles the exact same ball with the exact
/// same distances regardless of pop order, which the d-ary-vs-binary
/// equivalence suite in tests/test_sp_workspace.cpp pins down.
///
/// `CsrView` complements the workspace for read-heavy passes: frozen
/// offsets-plus-flat-neighbor-array adjacency (a Graph snapshot, or an edge
/// list laid out), so loops that sweep many adjacency lists (metrics, covers,
/// cluster graphs) stop chasing one heap pointer per vertex of `vector<vector<Neighbor>>`.
/// `SoaPoints` (soa_points.hpp) does the same for the geometry: positions in
/// a flat structure-of-arrays buffer instead of one 72-byte Point per node.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <ranges>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/soa_points.hpp"

namespace localspan::graph {

/// Frozen CSR (compressed sparse row) adjacency, snapshot from a Graph or
/// laid out from an edge list. Neighbor spans are bitwise-identical in
/// content and order to the source's; later mutations are not tracked.
class CsrView {
 public:
  CsrView() = default;
  template <class G>
  explicit CsrView(const G& g) {
    assign(g);
  }

  /// Re-snapshot. Reuses the flat buffers (no allocation once capacity has
  /// grown to the workload's high-water mark). Templated over the graph type
  /// so tests can exercise the mutation check with a deterministic stand-in
  /// for a concurrent writer.
  ///
  /// \throws std::logic_error when the graph mutated while the snapshot was
  /// being taken (vertex count or half-edge totals no longer consistent) —
  /// a snapshot of a graph another thread is editing is silently torn
  /// otherwise.
  template <class G>
  void assign(const G& g) {
    const int n = g.n();
    const int m_before = g.m();
    offsets_.clear();
    nbrs_.clear();
    offsets_.reserve(static_cast<std::size_t>(n) + 1);
    nbrs_.reserve(2 * static_cast<std::size_t>(m_before));
    offsets_.push_back(0);
    for (int u = 0; u < n; ++u) {
      const std::span<const Neighbor> row = g.neighbors(u);
      nbrs_.insert(nbrs_.end(), row.begin(), row.end());
      offsets_.push_back(static_cast<int>(nbrs_.size()));
    }
    if (g.n() != n || g.m() != m_before ||
        nbrs_.size() != 2 * static_cast<std::size_t>(m_before)) {
      throw std::logic_error("CsrView::assign: graph mutated during snapshot");
    }
  }

  /// The graph `Graph::add_edge` of each of `edges` in list order builds on
  /// n edgeless vertices, laid out by one counting sort into the reused
  /// buffers. The edges must be distinct, loop-free and in range.
  void assign(int n, std::span<const Edge> edges) {
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge& e : edges) {
      ++offsets_[static_cast<std::size_t>(e.u) + 1];
      ++offsets_[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t u = 1; u < offsets_.size(); ++u) offsets_[u] += offsets_[u - 1];
    nbrs_.resize(2 * edges.size());
    // offsets_[u] is row u's cursor; it ends on row u+1's start.
    for (const Edge& e : edges) {
      nbrs_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(e.u)]++)] = {e.v, e.w};
      nbrs_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(e.v)]++)] = {e.u, e.w};
    }
    std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
    offsets_[0] = 0;
  }

  [[nodiscard]] int n() const noexcept { return static_cast<int>(offsets_.size()) - 1; }
  /// Stored half-edges: 2·|E|.
  [[nodiscard]] std::size_t half_edges() const noexcept { return nbrs_.size(); }

  [[nodiscard]] std::span<const Neighbor> neighbors(int u) const {
    const auto i = static_cast<std::size_t>(u);
    return {nbrs_.data() + offsets_[i], nbrs_.data() + offsets_[i + 1]};
  }

 private:
  std::vector<int> offsets_{0};  ///< offsets_[u]..offsets_[u+1] index nbrs_.
  std::vector<Neighbor> nbrs_;
};

/// Identity weight transform — the default, and a distinct *type*, so the
/// relaxation loop compiles to a plain load with no indirect call and no
/// per-edge empty-std::function branch.
struct IdentityWeight {
  double operator()(double w) const noexcept { return w; }
};

/// Adapts a user-supplied std::function weight transform to the same
/// template parameter. Construct it only when a transform is configured, so
/// the identity path keeps its direct-load loop.
struct TransformRef {
  const std::function<double(double)>* fn;
  double operator()(double w) const { return (*fn)(w); }
};

/// The default search potential: h ≡ 0, i.e. plain Dijkstra. A distinct
/// type, like `IdentityWeight`, so `run` compiles the plain loop for it.
struct ZeroPotential {
  double operator()(int /*v*/, int /*goal*/) const noexcept { return 0.0; }
};

/// The default target set of `run`: none. A distinct type, like
/// `ZeroPotential`, so `run` compiles the loop without the target lane.
struct NoTargets {};

/// h(x) = ρ·|x goal| for goal-directed `distance`. With ρ ≤ w/|uv| on every
/// edge, the triangle inequality makes h a lower bound on sp(x, goal) for any
/// edge weights, Euclidean or not. Build it with `euclidean_potential`.
struct EuclideanPotential {
  const SoaPoints* pts;
  double rho;
  double operator()(int v, int goal) const noexcept { return rho * pts->distance(v, goal); }
};

/// ρ = min over g's edges of w/|uv| (zero-length edges skipped; none usable
/// gives ρ = 0), shaved by 1e-12 so rounding cannot lift h above sp.
/// \throws std::invalid_argument when `pts` does not have one row per vertex.
template <class G>
EuclideanPotential euclidean_potential(const G& g, const SoaPoints& pts) {
  if (pts.n() != g.n()) throw std::invalid_argument("euclidean_potential: size mismatch");
  double rho = kInf;
  for (int u = 0; u < g.n(); ++u) {
    for (const Neighbor& nb : g.neighbors(u)) {
      const double len = nb.to > u ? pts.distance(u, nb.to) : 0.0;  // each edge once
      if (len > 0.0) rho = std::min(rho, nb.w / len);
    }
  }
  return {&pts, rho == kInf ? 0.0 : rho * (1.0 - 1e-12)};
}

namespace detail {

/// The epoch-stamped search state every heap arity shares. Kept outside the
/// `BasicDijkstraWorkspace<Arity>` template so `SpView` can borrow it
/// without itself becoming templated on the arity (views flow through
/// cluster/serve/dynamic code that must not care how the frontier is
/// ordered). The arrays are structure-of-arrays on purpose: a stamped
/// lookup touches only the 4-byte stamp lane, not a padded per-vertex
/// record.
struct SpState {
  std::vector<std::uint32_t> stamp_;  ///< stamp_[v] == epoch_now_ => entry valid.
  std::vector<double> dist_;
  std::vector<int> parent_;
  std::vector<int> touched_;  ///< vertices stamped by the current search.
  std::uint32_t epoch_now_ = 0;
  std::uint64_t token_ = 0;  ///< search counter, invalidates outstanding views.
  int n_ = 0;                ///< vertex count of the current search's graph.

  [[nodiscard]] bool stamped(int v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_now_;
  }
};

}  // namespace detail

template <int Arity>
class BasicDijkstraWorkspace;

/// Sparse result of a workspace search. Views borrow the workspace's
/// arrays: a view is valid until the next search on the same workspace
/// (accessors throw std::logic_error afterwards — the error path that
/// catches accidental reuse across searches or graphs).
///
/// For full-drain searches (bounded/multi_bounded/full) every touched
/// vertex is settled, so dist/reached are exact. A target early-exit
/// search (bounded_to, distance) stops as soon as the target settles:
/// reached/dist/touched may then include frontier vertices whose
/// distances are still tentative upper bounds — read only the target and
/// its tree ancestors from such a view. A target-set search
/// (bounded_to_all) is the same: it holds tentative frontier distances
/// once it stops, and only its targets (and their tree ancestors) read
/// exact values. A `bounded` search cut at `settle` is exact within
/// `settle` and tentative past it.
class SpView {
 public:
  SpView() = default;

  /// Was v settled (within the bound) by this search? (After a target
  /// early-exit search: was v *stamped* — see the class comment.)
  [[nodiscard]] bool reached(int v) const;

  /// sp(sources, v), or kInf if v was not settled within the bound.
  /// (After a target early-exit search, non-ancestors of the target may
  /// report tentative upper bounds — see the class comment.)
  [[nodiscard]] double dist(int v) const;

  /// Parent of v on the shortest-path tree, -1 at sources/unreached.
  [[nodiscard]] int parent(int v) const;

  /// Settled vertices in settle order (sources first). O(|ball|) to scan.
  /// (After a target early-exit search this may include not-yet-settled
  /// frontier vertices — see the class comment.)
  [[nodiscard]] std::span<const int> touched() const;

  /// Hop count of the tree path to v, or -1 if unreached.
  [[nodiscard]] int path_hops(int v) const;

 private:
  template <int Arity>
  friend class BasicDijkstraWorkspace;
  SpView(const detail::SpState* st, std::uint64_t token) : st_(st), token_(token) {}

  void check() const;  ///< throws std::logic_error when the view is stale.

  const detail::SpState* st_ = nullptr;
  std::uint64_t token_ = 0;
};

/// Reusable epoch-stamped state for Dijkstra-shaped searches, with a d-ary
/// heap frontier of compile-time `Arity` (see the file comment for why the
/// production alias is 4-ary).
///
/// One workspace serves any sequence of graphs (it sizes itself to the
/// largest n seen; growth is the only allocation). Typical use: own one
/// per long-lived engine or per algorithm invocation, and thread it through
/// every bounded search on the hot path.
template <int Arity>
class BasicDijkstraWorkspace {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  BasicDijkstraWorkspace() = default;
  /// Pre-size for graphs up to n vertices (optional; searches auto-grow).
  explicit BasicDijkstraWorkspace(int n) { grow(n); }

  /// Single-source search bounded by `radius` (pass kInf for unbounded).
  ///
  /// With `settle` < radius the search is that same search cut short: it
  /// queues exactly what the radius search queues but stops once the
  /// smallest key exceeds `settle`. Its heap operations are a prefix of the
  /// radius search's, so every vertex within `settle` settles in the same
  /// order and the touched list is a prefix of that search's. Touched
  /// vertices past `settle` keep tentative distances (upper bounds).
  template <class G>
  SpView bounded(const G& g, int src, double radius, double settle = kInf) {
    check_radius(radius);
    const int srcs[1] = {src};
    return run(g, srcs, radius, -1, IdentityWeight{}, ZeroPotential{}, settle);
  }

  /// Single-source search bounded by `radius` that stops as soon as `target`
  /// is settled (the view still answers dist/parent/path_hops for the target
  /// and every vertex settled before it).
  template <class G>
  SpView bounded_to(const G& g, int src, int target, double radius) {
    check_radius(radius);
    if (target < 0 || target >= g.n()) {
      throw std::invalid_argument("dijkstra: target out of range");
    }
    const int srcs[1] = {src};
    return run(g, srcs, radius, target, IdentityWeight{});
  }

  /// Single-source search bounded by `radius` that stops once every vertex
  /// of `targets` (a range of vertex ids; duplicates are fine) has settled,
  /// else drains to `radius` as `bounded` does. Each target reads the exact
  /// distance of the `bounded` search, or kInf past `radius`; the rest of
  /// the view may be tentative (see SpView).
  template <class G, std::ranges::input_range Targets>
  SpView bounded_to_all(const G& g, int src, Targets&& targets, double radius) {
    check_radius(radius);
    const int srcs[1] = {src};
    return run(g, srcs, radius, -1, IdentityWeight{}, ZeroPotential{}, kInf,
               std::forward<Targets>(targets));
  }

  /// Multi-source bounded search; dist(v) = min over sources of sp(s, v).
  template <class G>
  SpView multi_bounded(const G& g, std::span<const int> sources, double radius) {
    check_radius(radius);
    return run(g, sources, radius, -1, IdentityWeight{});
  }

  /// Multi-source bounded search with every stored edge weight mapped
  /// through `weight` before use. `weight` is a template parameter: a
  /// stateless functor inlines into the relaxation loop, and only genuinely
  /// dynamic transforms (e.g. a user-supplied std::function) pay a call.
  template <class G, class WeightFn>
  SpView multi_bounded(const G& g, std::span<const int> sources, double radius,
                       WeightFn&& weight) {
    check_radius(radius);
    return run(g, sources, radius, -1, std::forward<WeightFn>(weight));
  }

  /// sp(u, v), or kInf if it exceeds `bound`. Early-exits once v is settled
  /// or the frontier minimum passes the bound. Semantics match
  /// graph::sp_distance; cost is O(|ball| log |ball|) with no allocation
  /// once warm. Under an admissible `potential` (see `run`) the search is
  /// goal-directed and returns the same value bit for bit; a `bound` at or
  /// above sp(u, v), such as the weight of a known u–v path, then also
  /// shrinks it.
  template <class G, class Potential = ZeroPotential>
  double distance(const G& g, int u, int v, double bound = kInf,
                  const Potential& potential = {}) {
    if (v < 0 || v >= g.n()) throw std::invalid_argument("sp_distance: target out of range");
    if (u == v) return 0.0;
    const int srcs[1] = {u};
    const SpView view = run(g, srcs, bound, v, IdentityWeight{}, potential);
    const double d = view.dist(v);
    return d <= bound ? d : kInf;
  }

  /// The number of searches started (SpView staleness token). Test hook.
  [[nodiscard]] std::uint64_t searches() const noexcept { return st_.token_; }

  /// Drain the accumulated heap push/pop tallies since the last take (plain
  /// increments in the hot loop — this header stays observability-agnostic;
  /// callers flush them into obs counters at phase boundaries).
  [[nodiscard]] std::pair<long long, long long> take_heap_ops() noexcept {
    const std::pair<long long, long long> out{heap_pushes_, heap_pops_};
    heap_pushes_ = 0;
    heap_pops_ = 0;
    return out;
  }

  /// Is a search currently running? The workspace is single-owner: two
  /// concurrent searches would silently corrupt each other's stamps, so
  /// run() enforces this with a cheap in-use flag (two relaxed atomic ops
  /// per search) and throws std::logic_error on re-entrant or concurrent
  /// use — e.g. a weight transform that calls back into the same workspace,
  /// or two threads sharing one workspace instead of a per-worker pool.
  [[nodiscard]] bool in_use() const noexcept {
    return in_use_.v.load(std::memory_order_relaxed);
  }

  /// Test hook for the epoch-wraparound path: exhaust the epoch counter so
  /// the next search must rebase every stamp. Production code never needs
  /// this (2^32 searches away); tests cover the rebase with it.
  void debug_exhaust_epochs() noexcept { st_.epoch_now_ = kEpochMax; }

 private:
  struct HeapItem {
    double d;
    int v;
  };

  /// std::atomic is neither copyable nor movable; the flag is per-object
  /// state that must not travel with copies/moves, so this wrapper keeps
  /// the workspace's defaulted special members intact (a copied or moved
  /// workspace starts idle).
  struct InUseFlag {
    std::atomic<bool> v{false};
    InUseFlag() = default;
    InUseFlag(const InUseFlag&) noexcept {}
    InUseFlag& operator=(const InUseFlag&) noexcept { return *this; }
  };

  /// RAII single-owner enforcement around one search.
  struct InUseGuard {
    explicit InUseGuard(InUseFlag& f) : flag(f) {
      if (flag.v.exchange(true, std::memory_order_acquire)) {
        throw std::logic_error(
            "DijkstraWorkspace: concurrent or re-entrant search on a single-owner workspace");
      }
    }
    ~InUseGuard() { flag.v.store(false, std::memory_order_release); }
    InUseGuard(const InUseGuard&) = delete;
    InUseGuard& operator=(const InUseGuard&) = delete;
    InUseFlag& flag;
  };

  static constexpr std::uint32_t kEpochMax = std::numeric_limits<std::uint32_t>::max();

  static void check_radius(double radius) {
    if (radius < 0.0) throw std::invalid_argument("dijkstra: negative radius");
  }

  void grow(int n) {
    if (static_cast<int>(st_.stamp_.size()) < n) {
      st_.stamp_.resize(static_cast<std::size_t>(n), 0);
      st_.dist_.resize(static_cast<std::size_t>(n));
      st_.parent_.resize(static_cast<std::size_t>(n));
    }
  }

  /// O(1) amortized reset: bump the epoch so every stamp goes stale. On the
  /// (rare) counter wrap, rebase all stamps to 0 — O(capacity), once per
  /// 2^32 - 1 searches.
  void begin(int n) {
    ++st_.token_;
    grow(n);
    st_.n_ = n;
    if (st_.epoch_now_ == kEpochMax) {
      std::fill(st_.stamp_.begin(), st_.stamp_.end(), 0);
      std::fill(target_.begin(), target_.end(), 0);
      st_.epoch_now_ = 0;
    }
    ++st_.epoch_now_;
    st_.touched_.clear();
    heap_.clear();
  }

  void heap_push(double d, int v) {
    ++heap_pushes_;
    heap_.push_back({d, v});
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t up = (i - 1) / static_cast<std::size_t>(Arity);
      if (heap_[up].d <= heap_[i].d) break;
      std::swap(heap_[up], heap_[i]);
      i = up;
    }
  }

  HeapItem heap_pop() {
    ++heap_pops_;
    const HeapItem top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t size = heap_.size();
    while (true) {
      const std::size_t first = static_cast<std::size_t>(Arity) * i + 1;
      if (first >= size) break;
      const std::size_t last = std::min(first + static_cast<std::size_t>(Arity), size);
      // First strict minimum wins, so the lowest-index child breaks ties —
      // the same rule the binary version used (left child on equal keys).
      std::size_t child = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c].d < heap_[child].d) child = c;
      }
      if (heap_[i].d <= heap_[child].d) break;
      std::swap(heap_[i], heap_[child]);
      i = child;
    }
    return top;
  }

  /// The one search loop. Heap keys are g(x) + h(x). With `ZeroPotential`
  /// that is plain Dijkstra: settle in key order, stop at `target` or past
  /// `radius`. With a target set it also stops when the last marked target
  /// is popped: the loop ran the full search's first pops unchanged, and a
  /// later relaxation adds a weight ≥ 0 to a distance ≥ the popped one, so
  /// it can never lower a settled value.
  ///
  /// Any other potential must be admissible (h(x) ≤ sp(x, target), up to
  /// relative rounding far below 1e-9); the search then returns exactly the
  /// plain value of g(target). Let stop = min(best, radius)·(1 + 1e-9),
  /// with best = g(target) so far. Relaxations with g ≥ best are pruned, an
  /// entry is queued only while its key ≤ stop, a vertex whose g improves is
  /// re-queued, and the loop runs until the smallest key exceeds stop. A
  /// caller that knows an s–target path passes its weight as `radius`, so
  /// the search never queues the frontier beyond that path. Why this is
  /// exact: the plain value F is the least left-to-right floating sum
  /// over all s–target paths (rounded addition is monotone, so Dijkstra
  /// finds that minimum whatever its tie order). Suppose best > F at the
  /// stop, and let P realize F with prefix sums p_j ≤ F < best. Its first
  /// vertex x_j not yet expanded with g ≤ p_j has been relaxed to g ≤ p_j
  /// by x_{j-1} with key ≤ p_j + h(x_j) ≤ F·(1 + O(hops·2^-52)) ≤ stop (the
  /// slack covers paths of up to ~10^6 hops). No prune fires, as
  /// p_j ≤ F ≤ radius, so it sits in the heap and the loop cannot have
  /// stopped. (x_j = target would give best ≤ F.) The slack only absorbs
  /// rounding in p_j, F and h; it never admits a longer path, because best
  /// only ever holds a real path's sum.
  template <class G, class WeightFn, class Potential = ZeroPotential, class Targets = NoTargets>
  SpView run(const G& g, std::span<const int> sources, double radius, int target,
             WeightFn&& weight, const Potential& h = {}, double settle = kInf,
             Targets&& targets = {}) {
    constexpr bool kGoal = !std::is_same_v<Potential, ZeroPotential>;
    constexpr bool kSet = !std::is_same_v<std::remove_cvref_t<Targets>, NoTargets>;
    const InUseGuard guard(in_use_);
    begin(g.n());
    if (kGoal && h_.size() < st_.dist_.size()) h_.resize(st_.dist_.size());
    int pending = 0;  // target-set form: marked targets not yet popped.
    if constexpr (kSet) {
      if (target_.size() < st_.stamp_.size()) target_.resize(st_.stamp_.size(), 0);
      for (const int x : targets) {
        if (x < 0 || x >= st_.n_) throw std::invalid_argument("dijkstra: target out of range");
        std::uint32_t& mark = target_[static_cast<std::size_t>(x)];
        if (mark != st_.epoch_now_) {
          mark = st_.epoch_now_;
          ++pending;
        }
      }
    }
    // key(x) = g(x) + h(x); h(x) is computed once, when x is first stamped.
    const auto key = [&](double gx, std::size_t x) { return kGoal ? gx + h_[x] : gx; };
    double best = kInf;  // goal-directed form: g(target) so far.
    double stop = kGoal ? radius * kGoalSlack : std::min(radius, settle);
    // An entry whose key already exceeds stop would never be expanded.
    const auto push = [&](double gx, std::size_t i, int x) {
      const double kx = key(gx, i);
      if (!kGoal || kx <= stop) heap_push(kx, x);
    };
    const auto stamp = [&](int x, double gx, int parent) {
      const auto i = static_cast<std::size_t>(x);
      st_.stamp_[i] = st_.epoch_now_;
      st_.dist_[i] = gx;
      if constexpr (kGoal) {
        h_[i] = h(x, target);  // distance() reads only the target's g
      } else {
        st_.parent_[i] = parent;
        st_.touched_.push_back(x);
      }
      push(gx, i, x);
    };
    for (int s : sources) {
      if (s < 0 || s >= st_.n_) throw std::invalid_argument("dijkstra: source out of range");
      if (!st_.stamped(s)) stamp(s, 0.0, -1);
    }
    while (!heap_.empty()) {
      const auto [k, v] = heap_pop();
      const double d = st_.dist_[static_cast<std::size_t>(v)];
      if (k > key(d, static_cast<std::size_t>(v))) continue;  // stale entry
      if (k > stop) break;
      if (v == target && !kGoal) break;
      if (v == target) continue;  // nothing past the target can improve best
      if constexpr (kSet) {
        if (target_[static_cast<std::size_t>(v)] == st_.epoch_now_ && --pending == 0) break;
      }
      for (const Neighbor& nb : g.neighbors(v)) {
        const double nd = d + weight(nb.w);
        if (nd > radius || (kGoal && nd >= best)) continue;
        const auto to = static_cast<std::size_t>(nb.to);
        if (st_.stamp_[to] != st_.epoch_now_) {
          stamp(nb.to, nd, v);
        } else if (nd < st_.dist_[to]) {
          st_.dist_[to] = nd;
          if constexpr (!kGoal) st_.parent_[to] = v;
          push(nd, to, nb.to);
        } else {
          continue;
        }
        if (kGoal && nb.to == target) {
          best = nd;
          stop = std::min(best, radius) * kGoalSlack;
        }
      }
    }
    heap_.clear();  // early breaks leave entries behind; keep capacity
    return SpView(&st_, st_.token_);
  }

  static constexpr double kGoalSlack = 1.0 + 1e-9;

  detail::SpState st_;
  std::vector<double> h_;  ///< potential lane, valid where st_ is stamped.
  std::vector<HeapItem> heap_;
  long long heap_pushes_ = 0;  ///< since the last take_heap_ops().
  long long heap_pops_ = 0;
  InUseFlag in_use_;  ///< single-owner enforcement (see in_use()).
  std::vector<std::uint32_t> target_;  ///< target_[v] == epoch_now_ => v is a target.
};

/// The production workspace: a 4-ary frontier (see the file comment).
using DijkstraWorkspace = BasicDijkstraWorkspace<4>;

inline void SpView::check() const {
  if (st_ == nullptr || token_ != st_->token_) {
    throw std::logic_error("SpView: stale view (the workspace ran a newer search)");
  }
}

inline bool SpView::reached(int v) const {
  check();
  if (v < 0 || v >= st_->n_) throw std::invalid_argument("SpView: vertex out of range");
  return st_->stamped(v);
}

inline double SpView::dist(int v) const { return reached(v) ? st_->dist_[static_cast<std::size_t>(v)] : kInf; }

inline int SpView::parent(int v) const { return reached(v) ? st_->parent_[static_cast<std::size_t>(v)] : -1; }

inline std::span<const int> SpView::touched() const {
  check();
  return st_->touched_;
}

inline int SpView::path_hops(int v) const {
  if (!reached(v)) return -1;
  int hops = 0;
  for (int cur = v; st_->parent_[static_cast<std::size_t>(cur)] != -1;
       cur = st_->parent_[static_cast<std::size_t>(cur)]) {
    ++hops;
  }
  return hops;
}

}  // namespace localspan::graph
