#pragma once
/// \file labels.hpp
/// Flat landmark-label storage for the cluster-cover routing oracle.
///
/// A distance oracle built on the §2 cluster covers stores, for every vertex
/// v and every cover level ℓ, the set of level-ℓ centers within graph
/// distance β·r_ℓ of v together with the exact shortest-path distance to
/// each. A two-vertex distance query is then a sorted-merge intersection of
/// two such label rows — O(|label(u)| + |label(v)|), no graph traversal.
///
/// This header owns only the *container*: a CSR-shaped (offsets + flat
/// entry array) structure, one per cover level, frozen after construction.
/// It is laid out from the level's cover balls by one counting sort by
/// vertex; the balls arrive in ascending center order, so every row comes
/// out sorted by center id and `min_common_distance` is a linear merge.
///
/// Everything here is plain value-semantic data: snapshots of it can be
/// published read-only to concurrent reader threads, and `operator==` gives
/// the bit-identity check the determinism suite runs across thread counts.

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace localspan::graph {

/// One landmark in a vertex's label: a cover center and the exact
/// shortest-path distance to it (in the spanner the label was built on).
struct LabelEntry {
  int center = -1;
  double dist = 0.0;

  bool operator==(const LabelEntry&) const = default;
};

/// `vertex` in the ball of `center`, at exact distance `dist`.
struct BallEntry {
  int center = -1;
  int vertex = -1;
  double dist = 0.0;
};

/// Frozen per-vertex landmark labels for one cover level.
class LandmarkLabels {
 public:
  LandmarkLabels() = default;

  /// Lay out an n-vertex level from its centers' balls, taken ball after
  /// ball in ascending center order: label(v) gets {c, d} per entry
  /// {c, v, d}, rows sorted by center, by one counting sort by vertex.
  void assign(int n, std::span<const BallEntry> balls);

  [[nodiscard]] int n() const noexcept { return static_cast<int>(offsets_.size()) - 1; }

  [[nodiscard]] std::span<const LabelEntry> at(int v) const {
    const auto i = static_cast<std::size_t>(v);
    return {entries_.data() + offsets_[i], entries_.data() + offsets_[i + 1]};
  }

  [[nodiscard]] long long total_entries() const noexcept {
    return static_cast<long long>(entries_.size());
  }

  /// Bit-identity across builds (the determinism contract's witness).
  bool operator==(const LandmarkLabels&) const = default;

 private:
  std::vector<int> offsets_{0};
  std::vector<LabelEntry> entries_;
};

/// min over centers c present in both rows of a.dist(c) + b.dist(c); kInf
/// when the rows share no center. Linear merge over the sorted rows.
[[nodiscard]] double min_common_distance(std::span<const LabelEntry> a,
                                         std::span<const LabelEntry> b) noexcept;

}  // namespace localspan::graph
