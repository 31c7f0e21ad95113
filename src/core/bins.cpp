#include "core/bins.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/parallel.hpp"

namespace localspan::core {

BinSchema::BinSchema(double alpha, double r, int n) : alpha_(alpha), r_(r), w0_(alpha / n) {
  if (!(r > 1.0)) throw std::invalid_argument("BinSchema: r must be > 1");
  if (n < 1) throw std::invalid_argument("BinSchema: n must be >= 1");
  if (!(alpha > 0.0) || alpha > 1.0) throw std::invalid_argument("BinSchema: alpha in (0,1]");
  m_ = static_cast<int>(std::ceil(std::log(static_cast<double>(n) / alpha_) / std::log(r_)));
  // bin_of may probe one past max_bin() when rounding leaves W(m) just
  // below an admissible length.
  for (int i = 0; i <= m_ + 1; ++i) w_.push_back(std::pow(r_, i) * w0_);
}

double BinSchema::W(int i) const {
  if (i < 0) throw std::invalid_argument("BinSchema::W: negative index");
  // The table holds the same expression's values, so W is bit-identical
  // either way.
  return i < static_cast<int>(w_.size()) ? w_[static_cast<std::size_t>(i)]
                                          : std::pow(r_, i) * w0_;
}

int BinSchema::bin_of(double len) const {
  if (!(len > 0.0) || !std::isfinite(len)) {
    throw std::invalid_argument("BinSchema::bin_of: length must be positive and finite");
  }
  if (len <= w0_) return 0;
  // W is strictly increasing, so the unique i >= 1 with W(i-1) < len <= W(i)
  // is the first i >= 1 with W(i) >= len (W(0) = w0 < len).
  const auto it = std::lower_bound(w_.begin() + 1, w_.end(), len);
  int i = static_cast<int>(it - w_.begin());
  while (W(i) < len) ++i;  // past the table: lengths beyond W(m + 1)
  return i;
}

std::vector<std::vector<graph::Edge>> group_edges_by_bin(
    const std::vector<graph::Edge>& edges, const BinSchema& schema,
    const std::vector<double>& euclidean_len, runtime::WorkerPool* pool) {
  if (edges.size() != euclidean_len.size()) {
    throw std::invalid_argument("group_edges_by_bin: length array mismatch");
  }
  const int k = static_cast<int>(edges.size());
  std::vector<std::vector<graph::Edge>> bins(static_cast<std::size_t>(schema.max_bin()) + 1);
  // Harvest: each edge's bin index is a pure function of (schema, length).
  // Commit: push in edge order, so intra-bin order — which later phases
  // observe — is the same at every thread count.
  graph::DijkstraWorkspace no_ws;  // the pass runs no searches
  runtime::harvest_commit<int>(
      pool, no_ws, k,
      [&](graph::DijkstraWorkspace&, int, int i, int& b) {
        b = schema.bin_of(euclidean_len[static_cast<std::size_t>(i)]);
      },
      [&](int i, int b) {
        if (b >= static_cast<int>(bins.size())) bins.resize(static_cast<std::size_t>(b) + 1);
        bins[static_cast<std::size_t>(b)].push_back(edges[static_cast<std::size_t>(i)]);
      });
  return bins;
}

}  // namespace localspan::core
