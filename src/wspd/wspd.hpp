#pragma once
/// \file wspd.hpp
/// Well-Separated Pair Decompositions and WSPD spanners (Callahan–Kosaraju).
///
/// §1.4 of the paper situates its contribution inside the computational-
/// geometry spanner line [2,3,4,5,12], whose second classical construction
/// (next to greedy) is the WSPD spanner: build a split tree over the point
/// set, decompose all pairs into O(s^d · n) well-separated set pairs, and
/// connect one representative pair per set pair. For separation
/// s >= 4(t+1)/(t-1) the result is a t-spanner of the COMPLETE Euclidean
/// graph with O(n) edges. We implement it as the §1.4 reference point
/// (experiment E14): unlike the paper's algorithm it is not a subgraph of
/// the wireless network G — it assumes any pair may be connected — which is
/// exactly the gap between CG spanners and topology control.

#include <vector>

#include "geom/point.hpp"
#include "graph/graph.hpp"

namespace localspan::wspd {

/// A fair-split tree over a point set (midpoint splits along the longest
/// box side; empty halves are skipped, singleton boxes become leaves).
class SplitTree {
 public:
  struct Node {
    std::vector<int> points;              ///< point ids in this subtree.
    geom::Point lo = geom::Point(2);      ///< bounding box corners (reassigned
    geom::Point hi = geom::Point(2);      ///< to the true dimension on build).
    int left = -1;
    int right = -1;
    int rep = -1;  ///< representative point id (first in subtree).

    [[nodiscard]] bool leaf() const noexcept { return left == -1; }
  };

  /// The tree reads positions from `pts`, which must outlive it.
  /// \throws std::invalid_argument on an empty point set.
  explicit SplitTree(const geom::Points& pts);

  [[nodiscard]] const Node& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int root() const noexcept { return root_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(nodes_.size()); }

  /// Radius of the node's bounding-box enclosing ball (half diagonal).
  [[nodiscard]] double radius(int i) const;

  /// Minimum distance between the bounding boxes of two nodes.
  [[nodiscard]] double box_distance(int a, int b) const;

  /// Distance between the bounding-box centers of two nodes.
  [[nodiscard]] double center_distance(int a, int b) const;

 private:
  int build(std::vector<int> idx);

  const geom::Points* pts_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

/// One well-separated pair: indices of two split-tree nodes whose point sets
/// are s-well-separated (ball radius r each, distance >= s·r).
struct WsPair {
  int a;
  int b;
};

/// Compute an s-WSPD of the point set underlying `tree`.
/// \throws std::invalid_argument unless s > 0.
[[nodiscard]] std::vector<WsPair> well_separated_pairs(const SplitTree& tree, double s);

/// The WSPD t-spanner of the complete Euclidean graph on `pts`:
/// separation s = 4(t+1)/(t-1), one representative edge per pair.
/// \throws std::invalid_argument unless t > 1.
[[nodiscard]] graph::Graph wspd_spanner(const geom::Points& pts, double t);

}  // namespace localspan::wspd
