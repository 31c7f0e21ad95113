#include "graph/labels.hpp"

#include <algorithm>

namespace localspan::graph {

void LandmarkLabels::assign(int n, std::span<const BallEntry> balls) {
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const BallEntry& b : balls) ++offsets_[static_cast<std::size_t>(b.vertex) + 1];
  for (std::size_t v = 1; v < offsets_.size(); ++v) offsets_[v] += offsets_[v - 1];
  // offsets_[v] is v's write cursor; it ends at v's row end, so one shift
  // right restores the row starts.
  entries_.resize(balls.size());
  for (const BallEntry& b : balls) {
    int& cursor = offsets_[static_cast<std::size_t>(b.vertex)];
    entries_[static_cast<std::size_t>(cursor++)] = {b.center, b.dist};
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

double min_common_distance(std::span<const LabelEntry> a,
                           std::span<const LabelEntry> b) noexcept {
  double best = kInf;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].center < b[j].center) {
      ++i;
    } else if (b[j].center < a[i].center) {
      ++j;
    } else {
      const double via = a[i].dist + b[j].dist;
      if (via < best) best = via;
      ++i;
      ++j;
    }
  }
  return best;
}

}  // namespace localspan::graph
