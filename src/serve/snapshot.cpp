#include "serve/snapshot.hpp"

#include <stdexcept>

namespace localspan::serve {

std::uint64_t SnapshotStore::publish(std::unique_ptr<TopologySnapshot> snap) {
  if (snap == nullptr) throw std::invalid_argument("SnapshotStore::publish: null snapshot");
  TopologySnapshot& fresh = *snap;  // no reader sees it before the swap
  ReadGuard next(std::move(snap));
  std::uint64_t epoch = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    epoch = current_ == nullptr ? 1 : current_->epoch + 1;
    fresh.epoch = epoch;
    fresh.seal();
    current_.swap(next);
  }
  return epoch;  // `next` now holds the predecessor: dropped here
}

SnapshotStore::ReadGuard SnapshotStore::acquire() const {
  ReadGuard snap;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap = current_;
  }
  if (snap == nullptr) throw std::logic_error("SnapshotStore::acquire: nothing published yet");
  return snap;
}

std::uint64_t SnapshotStore::current_epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_ == nullptr ? 0 : current_->epoch;
}

}  // namespace localspan::serve
