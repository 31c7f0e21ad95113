#pragma once
/// \file point.hpp
/// Positions in d-dimensional Euclidean space for the alpha-UBG network
/// model (paper §1.1).
///
/// The model gives the algorithms nothing about geometry except pairwise
/// Euclidean distances and the θ-cone angle test of Lemma 3 (§2.2.2).
/// `Points` is the one position store: every vertex's coordinates in one
/// flat dim-strided buffer (16 bytes per 2-D vertex, four vertices per cache
/// line), read by vertex id. The distance and cosine kernels are written
/// once, over coordinate rows; `Points` and `Point` — the value type for a
/// single position (a churn event's target, a bounding-box corner, the
/// Gabriel midpoint) — both call them, so the two forms agree bit for bit.
///
/// The dimension is a runtime value in [2, kMaxDim], which keeps the library
/// non-templated on d while supporting the d in {2,3,4,...} sweeps of the
/// evaluation (experiment E8).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <vector>

namespace localspan::geom {

/// Maximum supported spatial dimension. The paper needs "any fixed d >= 2";
/// 8 comfortably covers every experiment while keeping points on the stack.
inline constexpr int kMaxDim = 8;

/// One row of coordinates: a position of the store's dimension.
using Row = std::span<const double>;

/// Squared Euclidean distance |ab|^2 between two rows of equal length.
[[nodiscard]] inline double sq_distance(Row a, Row b) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Euclidean distance |ab| between two rows of equal length.
[[nodiscard]] inline double distance(Row a, Row b) noexcept { return std::sqrt(sq_distance(a, b)); }

/// cos ∠vuz at apex u, clamped to [-1, 1]: the value angle_at takes the
/// acos of, so a caller comparing against cos θ decides ∠vuz <= θ without it.
/// \throws std::invalid_argument if either ray is degenerate (v == u or z == u).
[[nodiscard]] inline double cos_at(Row u, Row v, Row z) {
  double dot = 0.0;
  double nv = 0.0;
  double nz = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double a = v[i] - u[i];
    const double b = z[i] - u[i];
    dot += a * b;
    nv += a * a;
    nz += b * b;
  }
  if (nv == 0.0 || nz == 0.0) {
    throw std::invalid_argument("angle_at: degenerate ray (coincident points)");
  }
  return std::clamp(dot / std::sqrt(nv * nz), -1.0, 1.0);
}

/// The angle ∠vuz at apex u formed by rays u->v and u->z, in radians in
/// [0, pi]. Used by the covered-edge test (paper §2.2.2, Lemma 3) where an
/// edge {u,v} is covered when some z has ∠vuz <= theta.
/// \throws std::invalid_argument if either ray is degenerate.
[[nodiscard]] inline double angle_at(Row u, Row v, Row z) { return std::acos(cos_at(u, v, z)); }

/// A single point in d-dimensional Euclidean space (2 <= d <= kMaxDim).
class Point {
 public:
  /// Origin in `dim` dimensions.
  explicit Point(int dim);

  /// From explicit coordinates; dimension is the list size.
  Point(std::initializer_list<double> coords);

  /// From a row of coordinates; dimension is the row length.
  explicit Point(Row coords);

  /// Dimension d of the ambient space.
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// The coordinates as a row, for the kernels.
  [[nodiscard]] Row coords() const noexcept { return {c_.data(), static_cast<std::size_t>(dim_)}; }

  /// Coordinate access (bounds-checked in debug builds only).
  [[nodiscard]] double operator[](int i) const noexcept { return c_[static_cast<std::size_t>(i)]; }
  double& operator[](int i) noexcept { return c_[static_cast<std::size_t>(i)]; }

  bool operator==(const Point& o) const noexcept;

 private:
  std::array<double, kMaxDim> c_{};
  int dim_;
};

/// Euclidean distance |uv| between two points of equal dimension.
[[nodiscard]] inline double distance(const Point& u, const Point& v) noexcept {
  return distance(u.coords(), v.coords());
}

/// Squared Euclidean distance between two points of equal dimension.
[[nodiscard]] inline double sq_distance(const Point& u, const Point& v) noexcept {
  return sq_distance(u.coords(), v.coords());
}

/// The angle ∠vuz at apex u (see the row form).
/// \throws std::invalid_argument if either ray is degenerate.
[[nodiscard]] inline double angle_at(const Point& u, const Point& v, const Point& z) {
  return angle_at(u.coords(), v.coords(), z.coords());
}

std::ostream& operator<<(std::ostream& os, const Point& p);

/// The position store: row v holds vertex v's coordinates. Rows are appended
/// or overwritten whole; their dimension is the store's.
class Points {
 public:
  /// An empty 2-d store.
  Points() = default;

  /// An empty store of dimension `dim`.
  /// \throws std::invalid_argument unless 2 <= dim <= kMaxDim.
  explicit Points(int dim);

  /// Rows from a flat dim-strided coordinate buffer.
  /// \throws std::invalid_argument on a bad dimension or a buffer length
  /// that is not a multiple of it.
  Points(int dim, std::vector<double> coords);

  /// From single positions; the dimension is the first's (2 when empty).
  /// \throws std::invalid_argument on mixed dimensions.
  Points(std::initializer_list<Point> pts);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(coords_.size() / static_cast<std::size_t>(dim_));
  }
  [[nodiscard]] bool empty() const noexcept { return coords_.empty(); }
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// Vertex v's coordinates.
  [[nodiscard]] Row row(int v) const noexcept {
    return Row(coords_).subspan(static_cast<std::size_t>(v) * static_cast<std::size_t>(dim_),
                                static_cast<std::size_t>(dim_));
  }

  /// A copy of vertex v's position.
  [[nodiscard]] Point operator[](int v) const { return Point(row(v)); }

  /// Append a row (a copy is taken first, so a row of this store is fine).
  /// \throws std::invalid_argument on a dimension mismatch.
  void push_back(Row r);
  void push_back(const Point& p) { push_back(p.coords()); }

  /// Overwrite vertex v's row. \throws std::invalid_argument on a dimension mismatch.
  void set(int v, const Point& p);

  void reserve(int n) {
    coords_.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(dim_));
  }

  /// |uv|^2, |uv|, and the cosine and angle at apex u of the rays to v and z.
  [[nodiscard]] double sq_distance(int u, int v) const noexcept {
    return geom::sq_distance(row(u), row(v));
  }
  [[nodiscard]] double distance(int u, int v) const noexcept {
    return geom::distance(row(u), row(v));
  }
  [[nodiscard]] double cos_at(int u, int v, int z) const {
    return geom::cos_at(row(u), row(v), row(z));
  }
  [[nodiscard]] double angle_at(int u, int v, int z) const {
    return geom::angle_at(row(u), row(v), row(z));
  }

 private:
  std::vector<double> coords_;  ///< row v is [v·dim, (v+1)·dim).
  int dim_ = 2;
};

}  // namespace localspan::geom
