// Tests for instance serialization, DOT and CSV export.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "core/bins.hpp"
#include "geom/point.hpp"
#include "io/serialize.hpp"
#include "ubg/generator.hpp"

namespace io = localspan::io;
namespace ub = localspan::ubg;
namespace gr = localspan::graph;

namespace {

ub::UbgInstance sample(std::uint64_t seed, int dim = 2,
                       ub::Placement placement = ub::Placement::kUniform) {
  ub::UbgConfig cfg;
  cfg.n = 80;
  cfg.dim = dim;
  cfg.alpha = 0.7;
  cfg.placement = placement;
  cfg.seed = seed;
  return ub::make_ubg(cfg);
}

}  // namespace

TEST(Serialize, RoundTripIsExact) {
  const ub::UbgInstance inst = sample(3);
  std::stringstream ss;
  io::write_instance(ss, inst);
  const ub::UbgInstance back = io::read_instance(ss);
  EXPECT_EQ(back.config.n, inst.config.n);
  EXPECT_EQ(back.config.dim, inst.config.dim);
  EXPECT_DOUBLE_EQ(back.config.alpha, inst.config.alpha);
  EXPECT_DOUBLE_EQ(back.config.side, inst.config.side);
  EXPECT_EQ(back.config.seed, inst.config.seed);
  ASSERT_EQ(back.points.size(), inst.points.size());
  for (std::size_t i = 0; i < back.points.size(); ++i) {
    EXPECT_EQ(back.points[i], inst.points[i]) << i;  // bitwise-equal doubles
  }
  EXPECT_EQ(back.g, inst.g);
}

TEST(Serialize, RoundTripHigherDimAndPlacements) {
  for (int dim : {3, 4}) {
    const ub::UbgInstance inst = sample(5, dim, ub::Placement::kClustered);
    std::stringstream ss;
    io::write_instance(ss, inst);
    const ub::UbgInstance back = io::read_instance(ss);
    EXPECT_EQ(back.g, inst.g);
    EXPECT_EQ(back.config.placement, inst.config.placement);
  }
}

TEST(Serialize, RoundTripsExtremeCoordinatesBitwise) {
  // The read path parses with std::from_chars; denormals, signed zeros and
  // max-magnitude doubles must survive a write/read cycle bitwise (the
  // writer's max_digits10 precision guarantees a recoverable text form).
  ub::UbgConfig cfg;
  cfg.n = 4;
  cfg.dim = 2;
  cfg.alpha = 0.7;
  ub::UbgInstance inst{cfg, {}, gr::Graph(4)};
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min() / 4.0;  // also subnormal
  const double huge = std::numeric_limits<double>::max();
  localspan::geom::Point p0(2), p1(2), p2(2), p3(2);
  p0[0] = 0.0;
  p0[1] = -0.0;
  p1[0] = denormal;
  p1[1] = -denormal;
  p2[0] = tiny;
  p2[1] = huge;
  p3[0] = -huge;
  p3[1] = 1.0;
  inst.points = {p0, p1, p2, p3};
  inst.g.add_edge(0, 3, denormal);

  std::stringstream ss;
  io::write_instance(ss, inst);
  const ub::UbgInstance back = io::read_instance(ss);
  ASSERT_EQ(back.points.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 2; ++k) {
      const double want = inst.points[static_cast<std::size_t>(i)][k];
      const double got = back.points[static_cast<std::size_t>(i)][k];
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "point " << i << " coord " << k << ": " << want << " vs " << got;
    }
  }
  EXPECT_EQ(std::signbit(back.points[0][1]), true) << "-0.0 lost its sign";
  EXPECT_EQ(back.g, inst.g);
}

TEST(Serialize, RejectsPartialNumberTokens) {
  // Stream extraction accepted "1.5x" as 1.5 and left "x" behind; the
  // from_chars read path must reject any token that does not parse fully.
  const ub::UbgInstance inst = sample(3);
  std::stringstream ss;
  io::write_instance(ss, inst);
  std::string text = ss.str();
  // Corrupt the first coordinate line (line 3) by appending garbage to its
  // first token.
  std::size_t pos = 0;
  for (int nl = 0; nl < 2; ++nl) pos = text.find('\n', pos) + 1;
  const std::size_t sp = text.find(' ', pos);
  text.insert(sp, "x");
  std::stringstream corrupted(text);
  EXPECT_THROW(static_cast<void>(io::read_instance(corrupted)), std::runtime_error);
  // Hex prefixes and empty exponents are partial parses too.
  std::stringstream hexish("localspan-instance v1\n0x10 2 0.7 4.0 10.0 0 1\n");
  EXPECT_THROW(static_cast<void>(io::read_instance(hexish)), std::runtime_error);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(static_cast<void>(io::read_instance(empty)), std::runtime_error);
  std::stringstream wrong_magic("other-format v1\n");
  EXPECT_THROW(static_cast<void>(io::read_instance(wrong_magic)), std::runtime_error);
  std::stringstream wrong_version("localspan-instance v99\n");
  EXPECT_THROW(static_cast<void>(io::read_instance(wrong_version)), std::runtime_error);
  std::stringstream truncated("localspan-instance v1\n10 2 0.7");
  EXPECT_THROW(static_cast<void>(io::read_instance(truncated)), std::runtime_error);
}

TEST(Serialize, RejectsNonFiniteNumbers) {
  // from_chars parses "inf" and "nan"; an instance with such a field used to
  // load, and span/verify then printed PASS on it.
  const std::string header = "localspan-instance v1\n2 2 0.7 4.0 10.0 0 1\n";
  const std::string points = "0 0\n0.5 0\n";
  for (const std::string bad : {"inf", "-inf", "nan", "INF", "infinity"}) {
    std::stringstream weight(header + points + "1\n0 1 " + bad + "\n");
    EXPECT_THROW(static_cast<void>(io::read_instance(weight)), std::runtime_error) << bad;
    std::stringstream coord(header + "0 " + bad + "\n0.5 0\n0\n");
    EXPECT_THROW(static_cast<void>(io::read_instance(coord)), std::runtime_error) << bad;
    std::stringstream alpha("localspan-instance v1\n2 2 " + bad + " 4.0 10.0 0 1\n" + points +
                            "0\n");
    EXPECT_THROW(static_cast<void>(io::read_instance(alpha)), std::runtime_error) << bad;
  }
  try {
    std::stringstream weight(header + points + "1\n0 1 inf\n");
    static_cast<void>(io::read_instance(weight));
    ADD_FAILURE() << "an edge weight of inf loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed input"), std::string::npos) << e.what();
  }
  std::stringstream fine(header + points + "1\n0 1 0.5\n");
  EXPECT_EQ(io::read_instance(fine).g.m(), 1);
}

TEST(Serialize, RejectsBadEdgeLines) {
  // A duplicated edge line used to load with the second line dropped, and
  // the other three cases escaped Graph::add_edge as std::invalid_argument.
  const std::string head = "localspan-instance v1\n3 2 0.7 4.0 10.0 0 1\n0 0\n0.5 0\n1 0\n";
  const struct {
    std::string edges;
    std::string names;  // the edge the message must name
    std::string why;
  } cases[] = {
      {"3\n0 1 0.5\n1 2 0.5\n1 0 0.7\n", "edge 2 (1, 0)", "duplicate edge"},
      {"2\n0 1 0.5\n0 3 0.5\n", "edge 1 (0, 3)", "endpoint out of range"},
      {"1\n-1 2 0.5\n", "edge 0 (-1, 2)", "endpoint out of range"},
      {"2\n0 1 0.5\n2 2 0.5\n", "edge 1 (2, 2)", "self-loop"},
      {"1\n0 2 0\n", "edge 0 (0, 2)", "non-positive weight"},
      {"2\n0 1 0.5\n1 2 -0.5\n", "edge 1 (1, 2)", "non-positive weight"},
  };
  for (const auto& c : cases) {
    std::stringstream in(head + c.edges);
    try {
      static_cast<void>(io::read_instance(in));
      ADD_FAILURE() << "loaded: " << c.edges;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("read_instance: malformed input"), std::string::npos) << what;
      EXPECT_NE(what.find(c.names), std::string::npos) << what;
      EXPECT_NE(what.find(c.why), std::string::npos) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a runtime_error: " << e.what() << " for " << c.edges;
    }
  }
  std::stringstream fine(head + "3\n0 1 0.5\n1 2 0.5\n0 2 1\n");
  EXPECT_EQ(io::read_instance(fine).g.m(), 3);
}

TEST(Serialize, BinOfRejectsNonFiniteLengths) {
  // ceil(log(inf)) cast to int is undefined behaviour; bin_of must refuse.
  const localspan::core::BinSchema schema(0.7, 1.5, 64);
  EXPECT_THROW(static_cast<void>(schema.bin_of(std::numeric_limits<double>::infinity())),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(schema.bin_of(std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(schema.bin_of(-std::numeric_limits<double>::infinity())),
               std::invalid_argument);
  EXPECT_EQ(schema.bin_of(schema.W(3)), 3);
}

TEST(Serialize, FileRoundTrip) {
  const ub::UbgInstance inst = sample(7);
  const std::string path =
      (std::filesystem::temp_directory_path() / "localspan_io_test.lsi").string();
  io::save_instance(path, inst);
  const ub::UbgInstance back = io::load_instance(path);
  EXPECT_EQ(back.g, inst.g);
  std::remove(path.c_str());
  EXPECT_THROW(static_cast<void>(io::load_instance("/nonexistent/nowhere.lsi")),
               std::runtime_error);
}

namespace {

/// Every adjacency row of `got` equals `want`'s, entry by entry in order
/// (Graph::operator== compares sorted edge lists, so it cannot see order).
void expect_same_rows(const gr::Graph& got, const gr::Graph& want) {
  ASSERT_EQ(got.n(), want.n());
  for (int u = 0; u < want.n(); ++u) {
    const auto a = got.neighbors(u);
    const auto b = want.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "row " << u;
    for (std::size_t k = 0; k < b.size(); ++k) {
      EXPECT_EQ(a[k].to, b[k].to) << "row " << u << " entry " << k;
      EXPECT_EQ(std::memcmp(&a[k].w, &b[k].w, sizeof(double)), 0) << "row " << u << " entry " << k;
    }
  }
}

/// Same config, bitwise-equal points and the same rows in the same order.
void expect_same_instance(const ub::UbgInstance& got, const ub::UbgInstance& want) {
  EXPECT_EQ(got.config.n, want.config.n);
  EXPECT_EQ(got.config.dim, want.config.dim);
  EXPECT_EQ(got.config.alpha, want.config.alpha);
  EXPECT_EQ(got.config.side, want.config.side);
  EXPECT_EQ(got.config.target_degree, want.config.target_degree);
  EXPECT_EQ(got.config.placement, want.config.placement);
  EXPECT_EQ(got.config.seed, want.config.seed);
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    for (int k = 0; k < want.config.dim; ++k) {
      const double a = got.points[i][k];
      const double b = want.points[i][k];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "point " << i << " coord " << k;
    }
  }
  expect_same_rows(got.g, want.g);
}

ub::UbgInstance read_text(const std::string& text) {
  std::stringstream ss(text);
  return io::read_instance(ss);
}

}  // namespace

TEST(Serialize, LargeRoundTripCrossesBufferRefills) {
  // ~0.7 MB of text: the reader refills its 64 KiB buffer many times, and
  // tokens straddle refill boundaries.
  ub::UbgConfig cfg;
  cfg.n = 3000;
  cfg.alpha = 0.75;
  cfg.seed = 17;
  const ub::UbgInstance inst = ub::make_ubg(cfg);
  std::stringstream ss;
  io::write_instance(ss, inst);
  const std::string text = ss.str();
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  ASSERT_GT(text.size(), 8 * kChunk);
  int split_tokens = 0;
  for (std::size_t cut = kChunk; cut < text.size(); cut += kChunk) {
    if (!std::isspace(static_cast<unsigned char>(text[cut - 1])) &&
        !std::isspace(static_cast<unsigned char>(text[cut]))) {
      ++split_tokens;
    }
  }
  EXPECT_GT(split_tokens, 0);
  const ub::UbgInstance back = read_text(text);
  EXPECT_EQ(back.g, inst.g);
  // The rows are built in file order: the edge lines, sorted by (u, v).
  ub::UbgInstance want{inst.config, inst.points, gr::Graph(cfg.n)};
  for (const gr::Edge& e : inst.g.edges()) want.g.add_edge(e.u, e.v, e.w);
  expect_same_instance(back, want);
  // A token longer than the buffer: leading zeros on the first coordinate.
  std::string padded = text;
  const std::size_t first_coord = padded.find('\n', padded.find('\n') + 1) + 1;
  ASSERT_NE(padded[first_coord], '-');
  padded.insert(first_coord, 3 * kChunk, '0');
  expect_same_instance(read_text(padded), want);
}

TEST(Serialize, AnyWhitespaceLoadsLikeTheCanonicalFile) {
  const ub::UbgInstance inst = sample(4, 3);
  std::stringstream ss;
  io::write_instance(ss, inst);
  const std::string canonical = ss.str();
  const ub::UbgInstance want = read_text(canonical);
  std::string crlf;
  std::string tabs;
  for (const char c : canonical) {
    if (c == '\n') crlf += '\r';
    crlf += c;
    tabs += c == ' ' ? '\t' : c;
  }
  ASSERT_EQ(canonical.back(), '\n');
  const std::string no_final_newline = canonical.substr(0, canonical.size() - 1);
  std::string mixed = "  \t\r\n" + canonical;
  for (char& c : mixed) {
    if (c == '\n') c = '\v';
  }
  for (const std::string& text : {crlf, tabs, no_final_newline, mixed}) {
    expect_same_instance(read_text(text), want);
  }
}

TEST(Dot, ContainsNodesAndHighlights) {
  const ub::UbgInstance inst = sample(9);
  gr::Graph highlight(inst.g.n());
  const gr::Edge first = inst.g.edges().front();
  highlight.add_edge(first.u, first.v, first.w);
  std::stringstream ss;
  io::write_dot(ss, inst, inst.g, &highlight);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("graph localspan {"), std::string::npos);
  EXPECT_NE(dot.find("pos="), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("color=gray80"), std::string::npos);
  // Every vertex declared.
  for (int v = 0; v < inst.g.n(); ++v) {
    EXPECT_NE(dot.find("  " + std::to_string(v) + " ["), std::string::npos) << v;
  }
}

TEST(Csv, HeaderAndRows) {
  gr::Graph g(3);
  g.add_edge(0, 1, 0.25);
  g.add_edge(1, 2, 0.5);
  std::stringstream ss;
  io::write_edge_csv(ss, g);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "u,v,weight");
  int rows = 0;
  while (std::getline(ss, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2);
}
