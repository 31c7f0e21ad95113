#pragma once
/// \file oracle.hpp
/// Cluster-cover routing oracle: landmark labels per cover level answering
/// stretch-bounded distance queries in ~O(label) time.
///
/// Structure (built per published snapshot, read-only afterwards):
///
///   * A geometric stack of §2.2.1 sequential covers of the frozen spanner:
///     level ℓ at radius r_ℓ = r_0 · σ^ℓ, stopping once a level has one
///     cluster per component.
///   * Per level, landmark labels (graph::LandmarkLabels): label_ℓ(v) holds
///     every level-ℓ center within shortest-path distance β·r_ℓ of v, with
///     the exact distance. Each level is one sweep in id order: a new center
///     runs one bounded Dijkstra at β·r_ℓ, whose ball gives its label entries
///     and, within r_ℓ, the vertices it covers; a counting sort by vertex
///     lays the balls out flat. A pool builds a wave of levels at once and
///     commits them in level order — bit-identical at every thread count.
///
/// Query: estimate(u, v) = min over levels ℓ, min over centers c in
/// label_ℓ(u) ∩ label_ℓ(v) of d(u,c) + d(c,v). Every candidate is the length
/// of a real path, so estimate ≥ d(u,v) always. For the upper bound, let ℓ*
/// be the smallest level with r_ℓ ≥ d(u,v)/(β−1): u's own center c at ℓ*
/// satisfies d(u,c) ≤ r_ℓ* and d(v,c) ≤ d + r_ℓ* ≤ β·r_ℓ*, so c is in both
/// labels and estimate ≤ d + 2·r_ℓ*. For d > (β−1)·r_0 that gives the
/// multiplicative bound
///
///     estimate ≤ (1 + 2σ/(β−1)) · d(u,v)        [stretch_bound()]
///
/// (r_ℓ* < σ·d/(β−1) when ℓ* > 0; the complete-hierarchy top level covers
/// ℓ* past the cap). Pairs at or below the near threshold (β+1)·r_0 — where
/// the additive 2·r_0 term would dominate — are instead answered by an
/// exact bounded Dijkstra whose radius the estimate caps, as are pairs with
/// no shared center (disconnected, or an incomplete hierarchy). The serve
/// QueryEngine implements that fallback and counts it.
///
/// With the defaults σ = 2, β = 2 the declared bound is 5.

#include <cstdint>
#include <vector>

#include "graph/labels.hpp"
#include "graph/sp_workspace.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::serve {

struct OracleConfig {
  /// Base cover radius r_0. <= 0 means auto: the maximum edge weight of the
  /// snapshot (one hop), so level 0 is the finest meaningful scale.
  double base_radius = 0.0;
  double level_ratio = 2.0;  ///< σ: geometric growth of cover radii (> 1).
  double label_reach = 2.0;  ///< β: labels keep centers within β·r_ℓ (>= 2).
  int max_levels = 24;       ///< hierarchy cap; hitting it marks truncated().
};

/// Immutable once built; safe to share across reader threads by const ref.
class RoutingOracle {
 public:
  RoutingOracle() = default;

  /// Build labels for the frozen snapshot `csr`. Single-owner during build;
  /// `ws` is the serial workspace, `pool` (optional) builds threads() levels
  /// at a time with deterministic commits.
  void build(const graph::CsrView& csr, const OracleConfig& cfg, graph::DijkstraWorkspace& ws,
             runtime::WorkerPool* pool = nullptr);

  /// Upper-bounding distance estimate, or kInf when u and v share no center
  /// at any level (disconnected, or truncated() and the pair is out of
  /// range). estimate(u, u) == 0.
  [[nodiscard]] double estimate(int u, int v) const;

  /// Declared multiplicative bound 1 + 2σ/(β−1), valid for connected pairs
  /// with d(u,v) > (β−1)·r_0 whenever !truncated().
  [[nodiscard]] double stretch_bound() const noexcept { return stretch_bound_; }

  /// Estimates at or below this ((β+1)·r_0) should be re-answered exactly —
  /// a bounded Dijkstra of that radius, which the estimate caps.
  [[nodiscard]] double near_threshold() const noexcept { return near_threshold_; }

  /// True when max_levels stopped the hierarchy before one-cluster-per-
  /// component; far pairs may then miss every level (estimate == kInf).
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  [[nodiscard]] int levels() const noexcept { return static_cast<int>(labels_.size()); }
  [[nodiscard]] double base_radius() const noexcept { return base_radius_; }
  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] long long total_label_entries() const noexcept;
  [[nodiscard]] const std::vector<graph::LandmarkLabels>& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] const std::vector<double>& radii() const noexcept { return radii_; }

  /// Bit-identity witness for the determinism suite.
  bool operator==(const RoutingOracle&) const = default;

 private:
  int n_ = 0;
  double base_radius_ = 0.0;
  double stretch_bound_ = 0.0;
  double near_threshold_ = 0.0;
  bool truncated_ = false;
  std::vector<double> radii_;
  std::vector<graph::LandmarkLabels> labels_;
};

}  // namespace localspan::serve
