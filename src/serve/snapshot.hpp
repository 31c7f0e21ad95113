#pragma once
/// \file snapshot.hpp
/// Epoch-published topology snapshots: RCU-style single-writer /
/// multi-reader store with grace-period reclamation.
///
/// A `TopologySnapshot` is an immutable bundle of everything a reader
/// thread needs to answer queries — frozen `CsrView` adjacency, liveness
/// flags and the prebuilt `RoutingOracle` — stamped with a monotonically
/// increasing epoch. The writer (the thread driving
/// `DynamicSpanner`) builds the next snapshot off to the side, then
/// publishes it with one atomic pointer flip; readers that were routing on
/// snapshot N keep doing so undisturbed while new acquisitions see N+1.
///
/// Reclamation protocol (all the cross-thread atomics are seq_cst — the
/// argument below leans on the single total order S over them):
///
///   writer publish:   current_.store(new)  then  published_epoch_.store(e)
///   reader acquire:   e = published_epoch_.load(); slot.store(e);
///                     s = current_.load();  — s->epoch >= e always, because
///                     the pointer is published *before* the epoch.
///   reader release:   slot.store(kQuiescent)   [release]
///   writer reclaim:   min_e = min over slots (acquire loads, quiescent
///                     slots excluded); free limbo snapshot S iff
///                     S.epoch < min_e.
///
/// Safety: suppose the writer frees S while a reader holds it. The reader's
/// pin e satisfies e <= S.epoch (it loaded `published_epoch_` before
/// loading the pointer that yielded S, and epochs only grow), so the
/// reclaim scan cannot have observed the pin — in S the scan's load of the
/// slot precedes the reader's slot.store(e). But then the reader's
/// subsequent current_.load() follows the retirement of S
/// (current_.store(replacement) precedes the scan in S), so it cannot have
/// returned S — contradiction. The release/acquire pairing on the slot
/// additionally gives the happens-before edge TSan needs between the
/// reader's last access to S and the writer's free.
///
/// Reader discipline: one pinned snapshot per `ReaderSlot` at a time
/// (acquire-while-pinned throws, mirroring `DijkstraWorkspace`'s
/// single-owner rule), and any `SpView` a reader derives from a snapshot is
/// epoch-stamped by its workspace, so use-after-release is caught by
/// sp_workspace.hpp's stale-view errors rather than silent corruption.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/sp_workspace.hpp"
#include "serve/oracle.hpp"

namespace localspan::serve {

/// Immutable after publish; readers access it by const ref only.
struct TopologySnapshot {
  std::uint64_t epoch = 0;  ///< assigned by SnapshotStore::publish.
  int n = 0;
  graph::CsrView csr;         ///< frozen spanner adjacency.
  std::vector<char> active;   ///< liveness flag per vertex.
  double stretch_t = 0.0;     ///< spanner stretch target (1 + eps).
  RoutingOracle oracle;

  /// Integrity stamp over the scalar fields, written as the last step of
  /// snapshot construction. The concurrent-publish test recomputes it on
  /// every acquisition: a torn (half-built) snapshot cannot satisfy it.
  std::uint64_t checksum = 0;

  [[nodiscard]] std::uint64_t compute_checksum() const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ epoch;
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(n);
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(active.size());
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(oracle.levels());
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(oracle.total_label_entries());
    return h;
  }
  void seal() noexcept { checksum = compute_checksum(); }
};

/// One registered reader thread's announcement cell.
class ReaderSlot {
 public:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  [[nodiscard]] bool pinned() const noexcept {
    return epoch_.load(std::memory_order_relaxed) != kQuiescent;
  }

 private:
  friend class SnapshotStore;
  std::atomic<std::uint64_t> epoch_{kQuiescent};
  bool registered_ = false;  ///< guarded by SnapshotStore::slots_mutex_.
};

class SnapshotStore {
 public:
  SnapshotStore() = default;
  /// Joins outstanding ownership: all retired and the current snapshot are
  /// freed. Readers must be gone by now (the owning QueryEngine enforces
  /// this by construction order).
  ~SnapshotStore() = default;

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// RAII pin on one snapshot. Movable, not copyable; destruction (or
  /// release()) marks the slot quiescent again.
  class ReadGuard {
   public:
    ReadGuard() = default;
    ReadGuard(ReadGuard&& o) noexcept : snap_(o.snap_), slot_(o.slot_) {
      o.snap_ = nullptr;
      o.slot_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&& o) noexcept {
      if (this != &o) {
        release();
        snap_ = o.snap_;
        slot_ = o.slot_;
        o.snap_ = nullptr;
        o.slot_ = nullptr;
      }
      return *this;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() { release(); }

    void release() noexcept {
      if (slot_ != nullptr) {
        slot_->epoch_.store(ReaderSlot::kQuiescent, std::memory_order_release);
        slot_ = nullptr;
      }
      snap_ = nullptr;
    }

    [[nodiscard]] const TopologySnapshot& operator*() const noexcept { return *snap_; }
    [[nodiscard]] const TopologySnapshot* operator->() const noexcept { return snap_; }
    [[nodiscard]] const TopologySnapshot* get() const noexcept { return snap_; }
    [[nodiscard]] explicit operator bool() const noexcept { return snap_ != nullptr; }

   private:
    friend class SnapshotStore;
    ReadGuard(const TopologySnapshot* snap, ReaderSlot* slot) : snap_(snap), slot_(slot) {}
    const TopologySnapshot* snap_ = nullptr;
    ReaderSlot* slot_ = nullptr;
  };

  /// Writer side. Assigns the next epoch, seals the snapshot, flips the
  /// pointer, retires the predecessor and reclaims every retired snapshot
  /// whose grace period has elapsed. Serialized internally (callers may
  /// race, though the repo's engines publish from one thread).
  std::uint64_t publish(std::unique_ptr<TopologySnapshot> snap);

  /// Free retired snapshots no reader can still hold. publish() already
  /// does this; exposed so long reader-idle phases can drain limbo early.
  void try_reclaim();

  /// Reader side. Slots are registered once per reader thread and scanned
  /// by every reclaim, so a thread should hold its slot for its lifetime
  /// (QueryEngine::Reader does).
  [[nodiscard]] ReaderSlot* register_reader();
  void unregister_reader(ReaderSlot* slot);

  /// Pin the current snapshot. \throws std::logic_error before the first
  /// publish, or when `slot` already pins one (reader discipline).
  [[nodiscard]] ReadGuard acquire(ReaderSlot& slot);

  /// Latest published epoch (0 before the first publish).
  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return published_epoch_.load(std::memory_order_seq_cst);
  }

  // Introspection (tests, obs export).
  [[nodiscard]] int readers_registered() const;
  [[nodiscard]] int readers_pinned() const;
  [[nodiscard]] std::size_t retired_pending() const;
  [[nodiscard]] std::uint64_t reclaimed() const;

 private:
  void reclaim_locked();  ///< requires writer_mutex_.

  std::atomic<const TopologySnapshot*> current_{nullptr};
  std::atomic<std::uint64_t> published_epoch_{0};

  mutable std::mutex writer_mutex_;  ///< serializes publish/reclaim + guards below.
  std::unique_ptr<TopologySnapshot> current_owner_;
  std::vector<std::unique_ptr<TopologySnapshot>> limbo_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t reclaimed_ = 0;

  mutable std::mutex slots_mutex_;  ///< guards the slot table (not the atomics in it).
  std::vector<std::unique_ptr<ReaderSlot>> slots_;
};

}  // namespace localspan::serve
