#include "io/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace localspan::io {

namespace {

constexpr const char* kMagic = "localspan-instance";
constexpr int kVersion = 1;

/// The tokens of a stream, split at the whitespace `operator>>` skips in the
/// C locale and read through one reused buffer 64 KiB at a time: no string
/// per token, no copy of the whole input. A token cut by a chunk's end moves
/// to the front before the next read; only a longer token grows the buffer.
class TokenReader {
 public:
  explicit TokenReader(std::istream& is) : is_(is), buf_(std::size_t{1} << 16) {}

  /// The next token, valid until the next call; empty at end of input.
  std::string_view next() {
    const auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
    std::size_t start = pos_;
    while (true) {
      if (start == pos_) {  // no token begun yet
        while (pos_ < end_ && space(buf_[pos_])) ++pos_;
        start = pos_;
      }
      while (pos_ < end_ && !space(buf_[pos_])) ++pos_;
      if (pos_ < end_) return {buf_.data() + start, pos_ - start};
      std::copy(buf_.data() + start, buf_.data() + end_, buf_.data());
      pos_ = end_ = end_ - start;
      start = 0;
      if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
      is_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
      if (is_.gcount() == 0) return {buf_.data(), end_};  // the input's end ends a token
      end_ += static_cast<std::size_t>(is_.gcount());
    }
  }

 private:
  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  ///< next unread byte.
  std::size_t end_ = 0;  ///< end of the bytes read so far.
};

/// Strict numeric token reader: the next token, parsed with std::from_chars
/// over the *whole* token. Unlike stream extraction this is
/// locale-independent (a comma-decimal global locale cannot corrupt
/// round-trips) and rejects partial parses ("1.5x" is an error, not 1.5
/// with "x" silently left in the stream).
template <class T>
T read_number(TokenReader& in, const char* what) {
  const std::string_view token = in.next();
  if (token.empty()) {
    throw std::runtime_error(std::string("read_instance: malformed input: ") + what);
  }
  T value{};
  const char* last = token.data() + token.size();
  const std::from_chars_result res = std::from_chars(token.data(), last, value);
  // from_chars also parses "inf" and "nan"; no field of an instance may be
  // non-finite.
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (res.ec != std::errc() || res.ptr != last || !finite) {
    throw std::runtime_error(std::string("read_instance: malformed input: ") + what + " '" +
                             std::string(token) + "'");
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
  for (int v = 0; v < inst.points.size(); ++v) {
    const char* sep = "";
    for (const double x : inst.points.row(v)) os << std::exchange(sep, " ") << x;
    os << "\n";
  }
  os << inst.g.m() << "\n";
  for (const graph::Edge& e : inst.g.edges()) {
    os << e.u << ' ' << e.v << ' ' << e.w << "\n";
  }
}

ubg::UbgInstance read_instance(std::istream& is) {
  TokenReader in(is);
  const bool magic_ok = in.next() == kMagic;
  // Built via += rather than "v" + ...: GCC 12's -O3 inlining of the
  // operator+(const char*, string&&) overload trips a -Werror=restrict
  // false positive (GCC PR105651).
  std::string expected_version = "v";
  expected_version += std::to_string(kVersion);
  const std::string_view version = in.next();
  expect(!version.empty(), "header");
  expect(magic_ok, "magic");
  expect(version == expected_version, "version");
  ubg::UbgConfig cfg;
  cfg.n = read_number<int>(in, "config n");
  cfg.dim = read_number<int>(in, "config dim");
  cfg.alpha = read_number<double>(in, "config alpha");
  cfg.side = read_number<double>(in, "config side");
  cfg.target_degree = read_number<double>(in, "config target_degree");
  const int placement_code = read_number<int>(in, "config placement");
  cfg.seed = read_number<std::uint64_t>(in, "config seed");
  cfg.placement = placement_from_int(placement_code);
  expect(cfg.n > 0 && cfg.dim >= 2 && cfg.dim <= geom::kMaxDim, "config ranges");

  // Storage follows the coordinates actually read, not the n the header
  // claims: the graph is sized only once all n·dim of them have parsed.
  std::vector<double> coords;
  for (long long i = 0, count = static_cast<long long>(cfg.n) * cfg.dim; i < count; ++i) {
    coords.push_back(read_number<double>(in, "point coordinate"));
  }
  ubg::UbgInstance inst{cfg, geom::Points(cfg.dim, std::move(coords)), graph::Graph(cfg.n)};
  const int m = read_number<int>(in, "edge count");
  expect(m >= 0, "edge count");
  const auto bad = [](int i, int u, int v, const char* why) {
    return std::runtime_error("read_instance: malformed input: edge " + std::to_string(i) +
                              " (" + std::to_string(u) + ", " + std::to_string(v) + "): " + why);
  };
  std::vector<graph::Edge> edges;
  for (int i = 0; i < m; ++i) {
    const int u = read_number<int>(in, "edge endpoint");
    const int v = read_number<int>(in, "edge endpoint");
    const double w = read_number<double>(in, "edge weight");
    if (u < 0 || u >= cfg.n || v < 0 || v >= cfg.n) throw bad(i, u, v, "endpoint out of range");
    if (u == v) throw bad(i, u, v, "self-loop");
    if (!(w > 0.0)) throw bad(i, u, v, "non-positive weight");
    edges.push_back({u, v, w});
  }
  // The rows are built, each reserved to its degree, once every line passed.
  if (const int dup = inst.g.add_edges(edges); dup >= 0) {
    const graph::Edge& e = edges[static_cast<std::size_t>(dup)];
    throw bad(dup, e.u, e.v, "duplicate edge");
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
  static const obs::MetricId load_span = obs::span_id("io.load");
  const obs::Span span(load_span);
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
    const geom::Row p = inst.points.row(v);
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
