#include "geom/grid.hpp"

#include <algorithm>

namespace localspan::geom {

Grid::Grid(int dim, double cell) : dim_(dim), cell_(cell) {
  if (dim < 2 || dim > kMaxDim) throw std::invalid_argument("Grid: bad dimension");
  if (!(cell > 0.0)) throw std::invalid_argument("Grid: cell size must be positive");
}

Grid::Grid(const std::vector<Point>& points, double cell)
    : Grid(points.empty() ? 2 : points.front().dim(), cell) {
  buckets_.reserve(points.size());
  present_.reserve(points.size());
  pos_.reserve(points.size());
  key_.reserve(points.size());
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    insert(i, points[static_cast<std::size_t>(i)]);
  }
}

void Grid::check_point(const Point& p) const {
  if (p.dim() != dim_) throw std::invalid_argument("Grid: point dimension mismatch");
}

std::uint64_t Grid::key_of(const Point& p) const {
  std::uint64_t h = kHashBasis;
  for (int k = 0; k < dim_; ++k) {
    h = hash_combine(h, static_cast<std::int64_t>(std::floor(p[k] / cell_)));
  }
  return h;
}

bool Grid::contains(int id) const {
  return id >= 0 && id < static_cast<int>(present_.size()) &&
         present_[static_cast<std::size_t>(id)] != 0;
}

void Grid::insert(int id, const Point& p) {
  if (id < 0) throw std::invalid_argument("Grid: negative id");
  check_point(p);
  if (contains(id)) throw std::invalid_argument("Grid: id already present");
  if (id >= static_cast<int>(present_.size())) {
    present_.resize(static_cast<std::size_t>(id) + 1, 0);
    pos_.resize(static_cast<std::size_t>(id) + 1, Point(dim_));
    key_.resize(static_cast<std::size_t>(id) + 1, 0);
  }
  const std::uint64_t key = key_of(p);
  buckets_[key].push_back(id);
  const auto slot = static_cast<std::size_t>(id);
  present_[slot] = 1;
  pos_[slot] = p;
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

void Grid::move(int id, const Point& p) {
  if (!contains(id)) throw std::invalid_argument("Grid: id not present");
  check_point(p);
  const auto slot = static_cast<std::size_t>(id);
  const std::uint64_t key = key_of(p);
  if (key == key_[slot]) {
    pos_[slot] = p;
    return;
  }
  remove(id);
  insert(id, p);
}

}  // namespace localspan::geom
