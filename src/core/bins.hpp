#pragma once
/// \file bins.hpp
/// Geometric length bins (§2): W_i = r^i · α/n, I_0 = (0, α/n],
/// I_i = (W_{i-1}, W_i]. The relaxed greedy algorithm processes one bin per
/// phase in arbitrary intra-bin order — the relaxation that makes a
/// distributed implementation possible.

#include <vector>

#include "graph/graph.hpp"

namespace localspan::runtime {
class WorkerPool;
}

namespace localspan::core {

/// The bin schema for an n-node α-UBG with ratio r.
class BinSchema {
 public:
  /// \throws std::invalid_argument unless r > 1, n >= 1, alpha in (0,1].
  BinSchema(double alpha, double r, int n);

  /// W_i = r^i · α/n (the upper boundary of bin i; W_0 = α/n).
  [[nodiscard]] double W(int i) const;

  /// Bin index of an edge of Euclidean length `len` in (0, 1]:
  /// 0 when len <= α/n, else the unique i >= 1 with W(i-1) < len <= W(i).
  /// \throws std::invalid_argument unless len is positive and finite.
  [[nodiscard]] int bin_of(double len) const;

  /// m = ⌈log_r(n/α)⌉: every admissible edge length (<= 1) falls in a bin
  /// with index <= max_bin().
  [[nodiscard]] int max_bin() const noexcept { return m_; }

  [[nodiscard]] double r() const noexcept { return r_; }
  [[nodiscard]] double w0() const noexcept { return w0_; }

 private:
  double alpha_;
  double r_;
  double w0_;
  int m_;
  std::vector<double> w_;  ///< W(0..m+1): lookups and bin_of skip pow and log.
};

/// Edges of g grouped by bin of their *Euclidean length* `len(u,v)` (the
/// paper bins by geometric length even when an alternative weight metric is
/// in force, §1.6). Index = bin; empty bins stay empty and are skipped by
/// the phase loop.
///
/// With a pool, the per-edge bin indices (pure functions of the schema) are
/// harvested in parallel and the edges committed serially in edge order —
/// bin contents are bit-identical at every thread count.
[[nodiscard]] std::vector<std::vector<graph::Edge>> group_edges_by_bin(
    const std::vector<graph::Edge>& edges, const BinSchema& schema,
    const std::vector<double>& euclidean_len, runtime::WorkerPool* pool = nullptr);

}  // namespace localspan::core
