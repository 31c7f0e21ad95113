#include "geom/point.hpp"

#include <ostream>
#include <string>

namespace localspan::geom {

namespace {

void check_dim(int dim, const char* what) {
  if (dim < 2 || dim > kMaxDim) {
    throw std::invalid_argument(std::string(what) + ": dimension must be in [2, kMaxDim]");
  }
}

}  // namespace

Point::Point(int dim) : dim_(dim) { check_dim(dim, "Point"); }

Point::Point(std::initializer_list<double> coords) : Point(Row(coords.begin(), coords.size())) {}

Point::Point(Row coords) : dim_(static_cast<int>(coords.size())) {
  check_dim(dim_, "Point");
  std::copy(coords.begin(), coords.end(), c_.begin());
}

bool Point::operator==(const Point& o) const noexcept {
  return dim_ == o.dim_ && std::equal(c_.begin(), c_.begin() + dim_, o.c_.begin());
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  os << '(';
  for (int i = 0; i < p.dim(); ++i) {
    if (i > 0) os << ", ";
    os << p[i];
  }
  return os << ')';
}

Points::Points(int dim) : dim_(dim) { check_dim(dim, "Points"); }

Points::Points(int dim, std::vector<double> coords) : coords_(std::move(coords)), dim_(dim) {
  check_dim(dim, "Points");
  if (coords_.size() % static_cast<std::size_t>(dim) != 0) {
    throw std::invalid_argument("Points: coordinate count is not a multiple of the dimension");
  }
}

Points::Points(std::initializer_list<Point> pts) : dim_(pts.size() == 0 ? 2 : pts.begin()->dim()) {
  coords_.reserve(pts.size() * static_cast<std::size_t>(dim_));
  for (const Point& p : pts) push_back(p);
}

void Points::push_back(Row r) {
  if (static_cast<int>(r.size()) != dim_) {
    throw std::invalid_argument("Points::push_back: dimension mismatch");
  }
  std::array<double, kMaxDim> copy{};
  std::copy(r.begin(), r.end(), copy.begin());
  coords_.insert(coords_.end(), copy.begin(), copy.begin() + dim_);
}

void Points::set(int v, const Point& p) {
  if (p.dim() != dim_) throw std::invalid_argument("Points::set: dimension mismatch");
  if (v < 0 || v >= size()) throw std::out_of_range("Points::set: no such row");
  const Row src = p.coords();
  std::copy(src.begin(), src.end(),
            coords_.begin() + static_cast<std::ptrdiff_t>(v) * static_cast<std::ptrdiff_t>(dim_));
}

}  // namespace localspan::geom
