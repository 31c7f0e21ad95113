#include "io/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace localspan::io {

namespace {

constexpr const char* kMagic = "localspan-instance";
constexpr int kVersion = 1;

/// Strict numeric token reader: whitespace-delimited token, parsed with
/// std::from_chars over the *whole* token. Unlike stream extraction this is
/// locale-independent (a comma-decimal global locale cannot corrupt
/// round-trips) and rejects partial parses ("1.5x" is an error, not 1.5
/// with "x" silently left in the stream).
template <class T>
T read_number(std::istream& is, std::string& token, const char* what) {
  if (!(is >> token)) {
    throw std::runtime_error(std::string("read_instance: malformed input: ") + what);
  }
  T value{};
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const std::from_chars_result res = std::from_chars(first, last, value);
  // from_chars also parses "inf" and "nan"; no field of an instance may be
  // non-finite.
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (res.ec != std::errc() || res.ptr != last || !finite) {
    throw std::runtime_error(std::string("read_instance: malformed input: ") + what + " '" +
                             token + "'");
  }
  return value;
}

ubg::Placement placement_from_int(int v) {
  switch (v) {
    case 0: return ubg::Placement::kUniform;
    case 1: return ubg::Placement::kClustered;
    case 2: return ubg::Placement::kCorridor;
    default: throw std::runtime_error("read_instance: unknown placement code");
  }
}

int placement_to_int(ubg::Placement p) {
  switch (p) {
    case ubg::Placement::kUniform: return 0;
    case ubg::Placement::kClustered: return 1;
    case ubg::Placement::kCorridor: return 2;
  }
  return 0;
}

void expect(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("read_instance: malformed input: ") + what);
}

}  // namespace

void write_instance(std::ostream& os, const ubg::UbgInstance& inst) {
  const ubg::UbgConfig& c = inst.config;
  // max_digits10 decimal digits round-trip IEEE doubles exactly (and, unlike
  // hexfloat, stream extraction can read them back).
  os << std::setprecision(17);
  os << kMagic << " v" << kVersion << "\n";
  os << c.n << ' ' << c.dim << ' ' << c.alpha << ' ' << c.side << ' ' << c.target_degree << ' '
     << placement_to_int(c.placement) << ' ' << c.seed << "\n";
  for (const auto& p : inst.points) {
    for (int k = 0; k < p.dim(); ++k) os << (k ? " " : "") << p[k];
    os << "\n";
  }
  os << inst.g.m() << "\n";
  for (const graph::Edge& e : inst.g.edges()) {
    os << e.u << ' ' << e.v << ' ' << e.w << "\n";
  }
}

ubg::UbgInstance read_instance(std::istream& is) {
  std::string magic;
  std::string version;
  expect(static_cast<bool>(is >> magic >> version), "header");
  expect(magic == kMagic, "magic");
  // Built via += rather than "v" + ...: GCC 12's -O3 inlining of the
  // operator+(const char*, string&&) overload trips a -Werror=restrict
  // false positive (GCC PR105651).
  std::string expected_version = "v";
  expected_version += std::to_string(kVersion);
  expect(version == expected_version, "version");
  ubg::UbgConfig cfg;
  std::string token;
  cfg.n = read_number<int>(is, token, "config n");
  cfg.dim = read_number<int>(is, token, "config dim");
  cfg.alpha = read_number<double>(is, token, "config alpha");
  cfg.side = read_number<double>(is, token, "config side");
  cfg.target_degree = read_number<double>(is, token, "config target_degree");
  const int placement_code = read_number<int>(is, token, "config placement");
  cfg.seed = read_number<std::uint64_t>(is, token, "config seed");
  cfg.placement = placement_from_int(placement_code);
  expect(cfg.n > 0 && cfg.dim >= 2 && cfg.dim <= geom::kMaxDim, "config ranges");

  ubg::UbgInstance inst{cfg, {}, graph::Graph(cfg.n)};
  inst.points.reserve(static_cast<std::size_t>(cfg.n));
  for (int i = 0; i < cfg.n; ++i) {
    geom::Point p(cfg.dim);
    for (int k = 0; k < cfg.dim; ++k) p[k] = read_number<double>(is, token, "point coordinate");
    inst.points.push_back(p);
  }
  const int m = read_number<int>(is, token, "edge count");
  expect(m >= 0, "edge count");
  for (int i = 0; i < m; ++i) {
    const int u = read_number<int>(is, token, "edge endpoint");
    const int v = read_number<int>(is, token, "edge endpoint");
    const double w = read_number<double>(is, token, "edge weight");
    const auto bad_edge = [&](const char* why) {
      return std::runtime_error("read_instance: malformed input: edge " + std::to_string(i) +
                                " (" + std::to_string(u) + ", " + std::to_string(v) + "): " + why);
    };
    if (u < 0 || u >= cfg.n || v < 0 || v >= cfg.n) throw bad_edge("endpoint out of range");
    if (u == v) throw bad_edge("self-loop");
    if (!(w > 0.0)) throw bad_edge("non-positive weight");
    if (!inst.g.add_edge(u, v, w)) throw bad_edge("duplicate edge");
  }
  return inst;
}

void save_instance(const std::string& path, const ubg::UbgInstance& inst) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_instance: cannot open " + path);
  write_instance(os, inst);
  if (!os) throw std::runtime_error("save_instance: write failed for " + path);
}

ubg::UbgInstance load_instance(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_instance: cannot open " + path);
  return read_instance(is);
}

void write_dot(std::ostream& os, const ubg::UbgInstance& inst, const graph::Graph& topo,
               const graph::Graph* highlight) {
  os << "graph localspan {\n  node [shape=point, width=0.06];\n";
  // neato -n2 respects pos="x,y!"; scale up for readability.
  const double scale = 100.0;
  for (int v = 0; v < topo.n(); ++v) {
    const auto& p = inst.points[static_cast<std::size_t>(v)];
    os << "  " << v << " [pos=\"" << p[0] * scale << ',' << p[1] * scale << "!\"];\n";
  }
  for (const graph::Edge& e : topo.edges()) {
    os << "  " << e.u << " -- " << e.v;
    if (highlight != nullptr && highlight->has_edge(e.u, e.v)) {
      os << " [color=red, penwidth=2.0]";
    } else {
      os << " [color=gray80]";
    }
    os << ";\n";
  }
  os << "}\n";
}

void write_edge_csv(std::ostream& os, const graph::Graph& g) {
  os << "u,v,weight\n";
  for (const graph::Edge& e : g.edges()) {
    os << e.u << ',' << e.v << ',' << e.w << "\n";
  }
}

}  // namespace localspan::io
