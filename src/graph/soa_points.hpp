#pragma once
/// \file soa_points.hpp
/// Structure-of-arrays snapshot of instance geometry for the hot geometric
/// loops (covered-edge filter, candidate classification, dynamic repair).
///
/// A `geom::Point` is a fixed-capacity `array<double, 8>` plus a dimension —
/// 72 bytes per node even in 2-D, so a filter pass that streams `points[u]`
/// touches 9x the useful data and evicts most of each cache line unread.
/// `SoaPoints` repacks the coordinates into one flat dim-strided `double`
/// buffer (16 bytes per 2-D node, 4 nodes per cache line), so geometric
/// sweeps stream only the bytes they need.
///
/// The distance/angle kernels replicate the exact accumulation order of
/// geom::point.cpp, so every value they produce is **bit-identical** to the
/// Point-based reference — swapping a hot loop onto SoaPoints is a pure
/// layout change, not a numerical one (pinned by tests/test_sp_workspace.cpp).
///
/// Like `CsrView`, `assign` reuses the flat buffers, so a long-lived
/// snapshot re-taken per phase or per repair allocates nothing once warm;
/// `set` updates one row in place for engines that move nodes.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "geom/point.hpp"

namespace localspan::graph {

class SoaPoints {
 public:
  SoaPoints() = default;
  explicit SoaPoints(const std::vector<geom::Point>& pts) { assign(pts); }

  /// Re-snapshot from a Point array. Buffers are reused (no allocation
  /// once capacity has grown to the high-water mark).
  /// \throws std::invalid_argument on mixed dimensions.
  void assign(const std::vector<geom::Point>& pts) {
    n_ = static_cast<int>(pts.size());
    dim_ = pts.empty() ? 0 : pts.front().dim();
    coords_.clear();
    coords_.reserve(static_cast<std::size_t>(n_) * static_cast<std::size_t>(dim_));
    for (const geom::Point& p : pts) {
      if (p.dim() != dim_) throw std::invalid_argument("SoaPoints: mixed dimensions");
      for (int k = 0; k < dim_; ++k) coords_.push_back(p[k]);
    }
  }

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// Overwrite node v's coordinates in place (dimension must match).
  void set(int v, const geom::Point& p) {
    if (p.dim() != dim_) throw std::invalid_argument("SoaPoints::set: dimension mismatch");
    double* r = row(v);
    for (int k = 0; k < dim_; ++k) r[k] = p[k];
  }

  /// Squared Euclidean distance |uv|^2 — same accumulation order as
  /// geom::sq_distance, so the result is bit-identical.
  [[nodiscard]] double sq_distance(int u, int v) const noexcept {
    const double* a = row(u);
    const double* b = row(v);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) {
      const double d = a[i] - b[i];
      s += d * d;
    }
    return s;
  }

  /// Euclidean distance |uv|, bit-identical to geom::distance.
  [[nodiscard]] double distance(int u, int v) const noexcept {
    return std::sqrt(sq_distance(u, v));
  }

  /// The angle ∠vuz at apex u, bit-identical to geom::angle_at.
  /// \throws std::invalid_argument if either ray is degenerate.
  [[nodiscard]] double angle_at(int u, int v, int z) const { return std::acos(cos_at(u, v, z)); }

  /// cos ∠vuz clamped to [-1, 1], the value angle_at takes the acos of.
  /// \throws std::invalid_argument if either ray is degenerate.
  [[nodiscard]] double cos_at(int u, int v, int z) const {
    const double* pu = row(u);
    const double* pv = row(v);
    const double* pz = row(z);
    double dot = 0.0;
    double nv = 0.0;
    double nz = 0.0;
    for (int i = 0; i < dim_; ++i) {
      const double a = pv[i] - pu[i];
      const double b = pz[i] - pu[i];
      dot += a * b;
      nv += a * a;
      nz += b * b;
    }
    if (nv == 0.0 || nz == 0.0) {
      throw std::invalid_argument("angle_at: degenerate ray (coincident points)");
    }
    return std::clamp(dot / std::sqrt(nv * nz), -1.0, 1.0);
  }

 private:
  [[nodiscard]] const double* row(int v) const noexcept {
    return coords_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(dim_);
  }
  [[nodiscard]] double* row(int v) noexcept {
    return coords_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(dim_);
  }

  std::vector<double> coords_;  ///< dim-strided coordinate lanes.
  int n_ = 0;
  int dim_ = 0;
};

}  // namespace localspan::graph
