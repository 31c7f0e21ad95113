#include "ubg/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geom/grid.hpp"

namespace localspan::ubg {

double ball_volume(int dim, double r) {
  if (dim < 1) throw std::invalid_argument("ball_volume: dim must be >= 1");
  const double d = static_cast<double>(dim);
  return std::pow(std::numbers::pi, d / 2.0) * std::pow(r, d) / std::tgamma(d / 2.0 + 1.0);
}

namespace {

double auto_side(const UbgConfig& cfg) {
  // E[#alpha-neighbors] ~= n * vol(alpha) / side^dim = target_degree.
  const double vol = ball_volume(cfg.dim, cfg.alpha);
  const double volume_needed = cfg.n * vol / cfg.target_degree;
  return std::max(1.0, std::pow(volume_needed, 1.0 / cfg.dim));
}

/// The positions, drawn coordinate by coordinate into one flat buffer.
geom::Points place_points(const UbgConfig& cfg, double side) {
  std::mt19937_64 rng(cfg.seed);
  std::uniform_real_distribution<double> unit(0.0, side);
  std::vector<double> coords;
  coords.reserve(static_cast<std::size_t>(cfg.n) * static_cast<std::size_t>(cfg.dim));
  switch (cfg.placement) {
    case Placement::kUniform: {
      for (int i = 0; i < cfg.n * cfg.dim; ++i) coords.push_back(unit(rng));
      break;
    }
    case Placement::kClustered: {
      const int hubs = std::max(1, cfg.n / 48);
      std::vector<double> centers;
      for (int i = 0; i < hubs * cfg.dim; ++i) centers.push_back(unit(rng));
      std::normal_distribution<double> blob(0.0, cfg.alpha);
      std::uniform_int_distribution<int> pick(0, hubs - 1);
      for (int i = 0; i < cfg.n; ++i) {
        const auto c = static_cast<std::size_t>(pick(rng) * cfg.dim);
        for (int k = 0; k < cfg.dim; ++k) {
          const double x = centers[c + static_cast<std::size_t>(k)] + blob(rng);
          coords.push_back(std::clamp(x, 0.0, side));
        }
      }
      break;
    }
    case Placement::kCorridor: {
      // A strip: full length along axis 0, width 2*alpha in the others.
      const double width = 2.0 * cfg.alpha;
      std::uniform_real_distribution<double> across(0.0, width);
      // Stretch the long axis so total area matches the uniform workload.
      const double length = std::pow(side, cfg.dim) / std::pow(width, cfg.dim - 1);
      std::uniform_real_distribution<double> along(0.0, length);
      for (int i = 0; i < cfg.n; ++i) {
        coords.push_back(along(rng));
        for (int k = 1; k < cfg.dim; ++k) coords.push_back(across(rng));
      }
      break;
    }
  }
  return geom::Points(cfg.dim, std::move(coords));
}

}  // namespace

UbgInstance make_ubg(const UbgConfig& cfg, const GrayZonePolicy& policy) {
  if (cfg.n <= 0) throw std::invalid_argument("make_ubg: n must be positive");
  if (cfg.dim < 2 || cfg.dim > geom::kMaxDim) {
    throw std::invalid_argument("make_ubg: dim out of range");
  }
  if (!(cfg.alpha > 0.0) || cfg.alpha > 1.0) {
    throw std::invalid_argument("make_ubg: alpha must be in (0, 1]");
  }
  if (cfg.side < 0.0) throw std::invalid_argument("make_ubg: negative side");

  UbgInstance inst{cfg, {}, graph::Graph(cfg.n)};
  const double side = cfg.side > 0.0 ? cfg.side : auto_side(cfg);
  inst.config.side = side;
  inst.points = place_points(cfg, side);

  const geom::Grid grid(inst.points, 1.0);
  for (int u = 0; u < cfg.n; ++u) {
    grid.for_neighbors_within(u, 1.0, [&](int v, double d) {
      if (v <= u) return;
      if (d <= cfg.alpha || policy.connect(u, v, d)) {
        // Zero-distance duplicates would make an illegal zero-weight edge;
        // nudge to a tiny positive weight (coincident radios still talk).
        inst.g.add_edge(u, v, std::max(d, 1e-12));
      }
    });
  }
  return inst;
}

UbgInstance make_ubg(const UbgConfig& cfg) {
  const auto policy = always_connect();
  return make_ubg(cfg, *policy);
}

bool is_valid_ubg(const UbgInstance& inst) {
  const int n = inst.g.n();
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double d = inst.points.distance(u, v);
      const bool e = inst.g.has_edge(u, v);
      if (d <= inst.config.alpha && !e) return false;
      if (d > 1.0 && e) return false;
    }
  }
  return true;
}

}  // namespace localspan::ubg
