#pragma once
/// \file grid.hpp
/// Mutable spatial hash grid over the vertices of a position store.
///
/// Building the α-UBG edge set naively costs Θ(n²) distance checks; with
/// points bucketed into axis-aligned cells of side `cell`, all neighbors at
/// distance <= cell of a point lie in the 3^d adjacent cells, giving
/// near-linear construction for the uniform densities used throughout the
/// evaluation. This mirrors the "cells intersecting the unit ball" device in
/// the degree proof (Theorem 11, Fig 4).
///
/// The grid indexes vertex ids and reads their positions from the
/// `geom::Points` store it was built over; it keeps no copy. It starts with
/// every vertex indexed in id order, so every bucket lists its ids
/// ascending. The static builders (make_ubg, the gray-zone check, the
/// Gabriel and RNG baselines) then enumerate each vertex's neighbors; the
/// dynamic-topology engine removes, re-inserts and moves vertices one event
/// at a time (O(1) expected each), so a churn event's neighbor discovery
/// costs the 3^d adjacent cells instead of an Ω(n) scan.

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "geom/point.hpp"

namespace localspan::geom {

class Grid {
 public:
  /// Index every row of `points` under its id, in id order. `points` must
  /// outlive the grid; it may grow, and a caller that rewrites a row of an
  /// indexed id calls move() (or removes the id first).
  /// \param cell  cell side; queries are supported up to this radius.
  /// \throws std::invalid_argument on a non-positive cell.
  Grid(const Points& points, double cell);

  /// Index `id` at its stored position. \throws std::invalid_argument if
  /// `id` has no row or is already present.
  void insert(int id);

  /// Drop `id`. \throws std::invalid_argument if absent.
  void remove(int id);

  /// Re-index `id` at its rewritten position (equivalent to remove + insert,
  /// but skips the bucket churn when the cell is unchanged).
  /// \throws std::invalid_argument if absent.
  void move(int id);

  [[nodiscard]] bool contains(int id) const;
  [[nodiscard]] int size() const noexcept { return count_; }
  [[nodiscard]] double cell() const noexcept { return cell_; }
  [[nodiscard]] int dim() const noexcept { return pts_->dim(); }

  /// Invoke `fn(j, dist)` for every indexed vertex j within `radius` of
  /// vertex `id`'s position (`id` itself included when indexed, and any
  /// vertex at the same position — callers filter their own id).
  /// Cells are visited in a fixed order and each bucket in insertion order,
  /// so the enumeration is deterministic. Requires radius <= cell().
  /// \throws std::invalid_argument otherwise. Templated on the callback:
  /// this is the per-event hot path, so the capture stays on the stack (no
  /// std::function type erasure).
  template <typename Fn>
  void for_neighbors_within(int id, double radius, Fn&& fn) const {
    if (radius > cell_ * (1.0 + 1e-12)) {
      throw std::invalid_argument("Grid::for_neighbors_within: radius exceeds cell size");
    }
    const double r2 = radius * radius;
    for_each_adjacent_cell(pts_->row(id), [&](std::uint64_t key) {
      auto it = buckets_.find(key);
      if (it == buckets_.end()) return;
      for (int j : it->second) {
        const double d2 = pts_->sq_distance(id, j);
        if (d2 <= r2) fn(j, std::sqrt(d2));
      }
    });
  }

 private:
  // Cell keys: the d integer cell coordinates mixed into one 64-bit key.
  // Coordinates may be negative (dynamic slots park departed nodes on the
  // negative side of axis 0); exact collisions across distant cells are
  // tolerable (buckets just merge, and the distance check filters), but the
  // constants make them vanishingly rare.
  static constexpr std::uint64_t kHashBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kHashMix = 0x9E3779B97F4A7C15ULL;

  [[nodiscard]] static std::uint64_t hash_combine(std::uint64_t h, std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v) + kHashMix + (h << 6) + (h >> 2);
    return h;
  }

  /// Key of the cell containing p.
  [[nodiscard]] std::uint64_t key_of(Row p) const;

  /// Invoke `fn(key)` for each of the 3^dim cells adjacent to (and
  /// including) p's cell — every point within distance `cell` of p lies in
  /// one of them.
  template <typename Fn>
  void for_each_adjacent_cell(Row p, Fn&& fn) const {
    const int dim = pts_->dim();
    std::array<std::int64_t, kMaxDim> base{};
    for (int k = 0; k < dim; ++k) {
      base[static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(std::floor(p[static_cast<std::size_t>(k)] / cell_));
    }
    std::array<int, kMaxDim> off{};
    off.fill(-1);
    while (true) {
      std::uint64_t h = kHashBasis;
      for (int k = 0; k < dim; ++k) {
        h = hash_combine(h, base[static_cast<std::size_t>(k)] + off[static_cast<std::size_t>(k)]);
      }
      fn(h);
      int k = 0;
      for (; k < dim; ++k) {
        auto& o = off[static_cast<std::size_t>(k)];
        if (o < 1) {
          ++o;
          break;
        }
        o = -1;
      }
      if (k == dim) break;
    }
  }

  const Points* pts_;
  double cell_;
  int count_ = 0;
  std::unordered_map<std::uint64_t, std::vector<int>> buckets_;
  std::vector<char> present_;       // by id
  std::vector<std::uint64_t> key_;  // by id: bucket key (valid while present)
};

}  // namespace localspan::geom
