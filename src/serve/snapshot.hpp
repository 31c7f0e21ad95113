#pragma once
/// \file snapshot.hpp
/// Epoch-published topology snapshots under shared ownership.
///
/// A `TopologySnapshot` is an immutable bundle of everything a reader
/// thread needs to answer queries — frozen `CsrView` adjacency, liveness
/// flags and the prebuilt `RoutingOracle` — stamped with a monotonically
/// increasing epoch. The writer (the thread driving `DynamicSpanner`)
/// builds the next snapshot off to the side, then publishes it by swapping
/// the store's `shared_ptr`; readers that were routing on snapshot N keep
/// doing so undisturbed while new acquisitions see N+1.
///
/// Reclamation is reference counting: `acquire()` copies the current
/// pointer under the store's mutex, so a snapshot lives until the store
/// and every reader holding it have let go, and the last one frees it —
/// usually the writer, as a query holds its snapshot for one answer. The
/// lock covers only the pointer copy or swap; nobody builds, searches or
/// frees under it. Any `SpView` a reader derives from a snapshot is
/// epoch-stamped by its workspace, so use after a newer search is caught
/// by sp_workspace.hpp's stale-view errors rather than silent corruption.

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

class SnapshotStore {
 public:
  /// A reader's hold on one published snapshot: the snapshot stays valid,
  /// however many newer ones are published, until its last holder lets go.
  using ReadGuard = std::shared_ptr<const TopologySnapshot>;

  /// Writer side. Assigns the next epoch, seals the snapshot and makes it
  /// current; the predecessor is dropped outside the lock, and freed there
  /// unless a reader still holds it. Callers may race (the repo's engines
  /// publish from one thread). Returns the new epoch.
  std::uint64_t publish(std::unique_ptr<TopologySnapshot> snap);

  /// Reader side: share the current snapshot. Any thread may call it, and
  /// a thread may hold several guards. \throws std::logic_error before the
  /// first publish.
  [[nodiscard]] ReadGuard acquire() const;

  /// Latest published epoch (0 before the first publish).
  [[nodiscard]] std::uint64_t current_epoch() const;

 private:
  mutable std::mutex mutex_;  ///< guards current_.
  ReadGuard current_;
};

}  // namespace localspan::serve
