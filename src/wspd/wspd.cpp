#include "wspd/wspd.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace localspan::wspd {

SplitTree::SplitTree(const geom::Points& pts) : pts_(&pts) {
  if (pts.empty()) throw std::invalid_argument("SplitTree: empty point set");
  std::vector<int> idx(static_cast<std::size_t>(pts.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  nodes_.reserve(2 * idx.size());
  root_ = build(std::move(idx));
}

int SplitTree::build(std::vector<int> idx) {
  const int dim = pts_->dim();
  Node nd;
  nd.lo = geom::Point(dim);
  nd.hi = geom::Point(dim);
  for (int k = 0; k < dim; ++k) {
    nd.lo[k] = 1e300;
    nd.hi[k] = -1e300;
  }
  for (int i : idx) {
    const geom::Row p = pts_->row(i);
    for (int k = 0; k < dim; ++k) {
      nd.lo[k] = std::min(nd.lo[k], p[static_cast<std::size_t>(k)]);
      nd.hi[k] = std::max(nd.hi[k], p[static_cast<std::size_t>(k)]);
    }
  }
  nd.rep = idx.front();
  nd.points = idx;

  // Leaf: single point or a degenerate (all-coincident) box.
  double longest = 0.0;
  int axis = 0;
  for (int k = 0; k < dim; ++k) {
    const double side = nd.hi[k] - nd.lo[k];
    if (side > longest) {
      longest = side;
      axis = k;
    }
  }
  if (idx.size() == 1 || longest == 0.0) {
    nodes_.push_back(std::move(nd));
    return static_cast<int>(nodes_.size()) - 1;
  }

  const double mid = 0.5 * (nd.lo[axis] + nd.hi[axis]);
  std::vector<int> left_idx;
  std::vector<int> right_idx;
  for (int i : idx) {
    (pts_->row(i)[static_cast<std::size_t>(axis)] <= mid ? left_idx : right_idx).push_back(i);
  }
  // The bounding box is tight, so both sides are nonempty when longest > 0.
  const int l = build(std::move(left_idx));
  const int r = build(std::move(right_idx));
  nd.left = l;
  nd.right = r;
  nodes_.push_back(std::move(nd));
  return static_cast<int>(nodes_.size()) - 1;
}

double SplitTree::radius(int i) const { return 0.5 * geom::distance(node(i).lo, node(i).hi); }

double SplitTree::center_distance(int a, int b) const {
  const auto center = [this](int i) {
    const Node& nd = node(i);
    geom::Point c(nd.lo.dim());
    for (int k = 0; k < c.dim(); ++k) c[k] = 0.5 * (nd.lo[k] + nd.hi[k]);
    return c;
  };
  return geom::distance(center(a), center(b));
}

double SplitTree::box_distance(int a, int b) const {
  const Node& na = node(a);
  const Node& nb = node(b);
  double s = 0.0;
  for (int k = 0; k < na.lo.dim(); ++k) {
    const double gap = std::max({0.0, na.lo[k] - nb.hi[k], nb.lo[k] - na.hi[k]});
    s += gap * gap;
  }
  return std::sqrt(s);
}

namespace {

bool well_separated(const SplitTree& tree, int a, int b, double s) {
  // Standard definition: enclose both sets in balls of radius
  // r = max(radius(a), radius(b)) at the box centers; they are s-well-
  // separated when the gap between the BALLS is at least s·r.
  const double r = std::max(tree.radius(a), tree.radius(b));
  return tree.center_distance(a, b) - 2.0 * r >= s * r;
}

void split_pairs(const SplitTree& tree, int a, int b, double s, std::vector<WsPair>& out) {
  if (well_separated(tree, a, b, s)) {
    out.push_back({a, b});
    return;
  }
  // Split the node with the larger enclosing ball (ties: the first).
  if (tree.radius(a) < tree.radius(b)) std::swap(a, b);
  if (tree.node(a).leaf()) {
    // Both leaves but not separated: only possible for coincident boxes of
    // distinct points collapsed to radius 0 at distance 0; treat as a pair.
    out.push_back({a, b});
    return;
  }
  split_pairs(tree, tree.node(a).left, b, s, out);
  split_pairs(tree, tree.node(a).right, b, s, out);
}

void all_pairs(const SplitTree& tree, int u, double s, std::vector<WsPair>& out) {
  const SplitTree::Node& nd = tree.node(u);
  if (nd.leaf()) return;
  all_pairs(tree, nd.left, s, out);
  all_pairs(tree, nd.right, s, out);
  split_pairs(tree, nd.left, nd.right, s, out);
}

}  // namespace

std::vector<WsPair> well_separated_pairs(const SplitTree& tree, double s) {
  if (!(s > 0.0)) throw std::invalid_argument("well_separated_pairs: s must be positive");
  std::vector<WsPair> out;
  all_pairs(tree, tree.root(), s, out);
  return out;
}

graph::Graph wspd_spanner(const geom::Points& pts, double t) {
  if (!(t > 1.0)) throw std::invalid_argument("wspd_spanner: t must be > 1");
  const SplitTree tree(pts);
  const double s = 4.0 * (t + 1.0) / (t - 1.0);
  graph::Graph g(pts.size());
  for (const WsPair& pr : well_separated_pairs(tree, s)) {
    const int u = tree.node(pr.a).rep;
    const int v = tree.node(pr.b).rep;
    if (u == v) continue;
    g.add_edge(u, v, std::max(pts.distance(u, v), 1e-12));
  }
  return g;
}

}  // namespace localspan::wspd
