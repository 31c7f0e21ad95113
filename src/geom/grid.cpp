#include "geom/grid.hpp"

#include <algorithm>

namespace localspan::geom {

Grid::Grid(const Points& points, double cell) : pts_(&points), cell_(cell) {
  if (!(cell > 0.0)) throw std::invalid_argument("Grid: cell size must be positive");
  const auto n = static_cast<std::size_t>(points.size());
  buckets_.reserve(n);
  present_.reserve(n);
  key_.reserve(n);
  for (int i = 0; i < points.size(); ++i) insert(i);
}

std::uint64_t Grid::key_of(Row p) const {
  std::uint64_t h = kHashBasis;
  for (const double x : p) h = hash_combine(h, static_cast<std::int64_t>(std::floor(x / cell_)));
  return h;
}

bool Grid::contains(int id) const {
  return id >= 0 && id < static_cast<int>(present_.size()) &&
         present_[static_cast<std::size_t>(id)] != 0;
}

void Grid::insert(int id) {
  if (id < 0 || id >= pts_->size()) throw std::invalid_argument("Grid: id has no position");
  if (contains(id)) throw std::invalid_argument("Grid: id already present");
  if (id >= static_cast<int>(present_.size())) {
    present_.resize(static_cast<std::size_t>(id) + 1, 0);
    key_.resize(static_cast<std::size_t>(id) + 1, 0);
  }
  const std::uint64_t key = key_of(pts_->row(id));
  buckets_[key].push_back(id);
  const auto slot = static_cast<std::size_t>(id);
  present_[slot] = 1;
  key_[slot] = key;
  ++count_;
}

void Grid::remove(int id) {
  if (!contains(id)) throw std::invalid_argument("Grid: id not present");
  const auto slot = static_cast<std::size_t>(id);
  auto it = buckets_.find(key_[slot]);
  std::vector<int>& bucket = it->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), id));
  if (bucket.empty()) buckets_.erase(it);
  present_[slot] = 0;
  --count_;
}

void Grid::move(int id) {
  if (!contains(id)) throw std::invalid_argument("Grid: id not present");
  if (key_of(pts_->row(id)) == key_[static_cast<std::size_t>(id)]) return;
  remove(id);
  insert(id);
}

}  // namespace localspan::geom
