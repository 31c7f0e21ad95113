// Tests for churn-trace serialization: JSON and binary round trips, format
// sniffing, and malformed-input rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>

#include "counting_allocator.hpp"
#include "dynamic/churn.hpp"
#include "io/trace_io.hpp"
#include "ubg/generator.hpp"

namespace dy = localspan::dynamic;
namespace io = localspan::io;
namespace ub = localspan::ubg;

namespace {

dy::ChurnTrace sample_trace(int dim = 2, int events = 32, std::uint64_t seed = 5) {
  ub::UbgConfig cfg;
  cfg.n = 48;
  cfg.dim = dim;
  cfg.alpha = 0.75;
  cfg.seed = seed;
  const ub::UbgInstance inst = ub::make_ubg(cfg);
  dy::PoissonChurnConfig pc;
  pc.events = events;
  pc.seed = seed;
  return dy::poisson_churn(inst, pc);
}

// A syntactically valid trace wrapper around a caller-supplied event list —
// the fixture for the semantic-validation reject cases below.
std::string json_trace(const std::string& events, const std::string& alpha = "0.75",
                       const std::string& side = "5.0") {
  return std::string(R"({"format": "localspan-churn-trace", "version": 1, "dim": 2, "alpha": )") +
         alpha + R"(, "side": )" + side + R"(, "events": [)" + events + "]}";
}

// The reader must throw, and the message must name the actual defect (a
// typed "trace_io: ..." error, not a generic parse failure).
void expect_reject_json(const std::string& text, const std::string& needle) {
  std::stringstream ss(text);
  try {
    static_cast<void>(io::read_trace_json(ss));
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got '" << e.what() << "', wanted substring '" << needle << "'";
  }
}

dy::ChurnEvent make_event(dy::EventKind kind, int node, double time, double x, double y) {
  dy::ChurnEvent ev;
  ev.kind = kind;
  ev.node = node;
  ev.time = time;
  ev.pos = localspan::geom::Point(2);
  ev.pos[0] = x;
  ev.pos[1] = y;
  return ev;
}

// Serialize a hand-built (possibly malformed) trace — write_trace_binary
// emits raw doubles without judgement — and require the reader to refuse it.
void expect_reject_binary(const dy::ChurnTrace& trace, const std::string& needle) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_trace_binary(ss, trace);
  try {
    static_cast<void>(io::read_trace_binary(ss));
    FAIL() << "accepted malformed binary trace (wanted '" << needle << "')";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got '" << e.what() << "', wanted substring '" << needle << "'";
  }
}

}  // namespace

TEST(TraceJson, RoundTripIsExact) {
  for (int dim : {2, 3}) {
    const dy::ChurnTrace trace = sample_trace(dim);
    std::stringstream ss;
    io::write_trace_json(ss, trace);
    const dy::ChurnTrace back = io::read_trace_json(ss);
    EXPECT_EQ(back, trace) << "dim=" << dim;  // bitwise doubles via %.17g
  }
}

TEST(TraceJson, EmptyTraceRoundTrips) {
  dy::ChurnTrace trace{2, 0.6, 4.5, {}};
  std::stringstream ss;
  io::write_trace_json(ss, trace);
  EXPECT_EQ(io::read_trace_json(ss), trace);
}

TEST(TraceJson, RejectsGarbage) {
  const auto reject = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(static_cast<void>(io::read_trace_json(ss)), std::runtime_error) << text;
  };
  reject("");
  reject("not json at all");
  reject("[1, 2, 3]");                                  // wrong top-level type
  reject("{\"format\": \"other\", \"version\": 1}");    // wrong format tag
  reject(R"({"format": "localspan-churn-trace", "version": 99})");  // bad version
  reject(R"({"format": "localspan-churn-trace", "version": 1, "dim": 2,
             "alpha": 0.75, "side": 5.0, "events": [{"t": 0, "kind": "warp",
             "node": 1, "pos": [0, 0]}]})");            // unknown kind
  reject(R"({"format": "localspan-churn-trace", "version": 1, "dim": 2,
             "alpha": 0.75, "side": 5.0, "events": [{"t": 0, "kind": "join",
             "node": 1, "pos": [0.5]}]})");             // pos arity mismatch
  reject(R"({"format": "localspan-churn-trace", "version": 1, "dim": 2,
             "alpha": 0.75, "side": 5.0, "events": []} trailing)");
  // Number forms strtod would take but RFC 8259 forbids.
  for (const char* bad : {"0x10", "+1.5", ".5", "1.", "01", "1e", "nan", "inf"}) {
    reject(std::string(R"({"format": "localspan-churn-trace", "version": 1, "dim": 2,
             "alpha": 0.75, "side": )") +
           bad + ", \"events\": []}");
  }
}

TEST(TraceJson, RejectsSemanticallyInvalidHeaders) {
  expect_reject_json(json_trace("", "1.5"), "alpha out of range");
  expect_reject_json(json_trace("", "0"), "alpha out of range");
  expect_reject_json(json_trace("", "-0.25"), "alpha out of range");
  expect_reject_json(json_trace("", "0.75", "-2.0"), "side must be finite");
}

TEST(TraceJson, RejectsNonMonotoneTimestamps) {
  expect_reject_json(
      json_trace(R"({"t": 1.0, "kind": "join", "node": 1, "pos": [0.5, 0.5]},
                    {"t": 0.5, "kind": "join", "node": 2, "pos": [1.5, 1.5]})"),
      "non-monotone timestamp");
}

TEST(TraceJson, RejectsNegativeNodeIds) {
  expect_reject_json(json_trace(R"({"t": 0, "kind": "join", "node": -3, "pos": [0.5, 0.5]})"),
                     "negative node id");
}

TEST(TraceJson, RejectsOutOfRangeCoordinates) {
  // Above the declared box side.
  expect_reject_json(json_trace(R"({"t": 0, "kind": "join", "node": 1, "pos": [6.0, 0.5]})"),
                     "out of range");
  // Negative coordinate.
  expect_reject_json(json_trace(R"({"t": 0, "kind": "move", "node": 1, "pos": [0.5, -0.5]})"),
                     "out of range");
}

TEST(TraceJson, RejectsDuplicateNodeIds) {
  expect_reject_json(
      json_trace(R"({"t": 0, "kind": "join", "node": 7, "pos": [0.5, 0.5]},
                    {"t": 1, "kind": "join", "node": 7, "pos": [1.5, 1.5]})"),
      "duplicate join of node 7");
}

TEST(TraceJson, RejectsEventsAfterDeparture) {
  expect_reject_json(
      json_trace(R"({"t": 0, "kind": "join", "node": 4, "pos": [0.5, 0.5]},
                    {"t": 1, "kind": "leave", "node": 4},
                    {"t": 2, "kind": "leave", "node": 4})"),
      "after it departed");
  expect_reject_json(
      json_trace(R"({"t": 0, "kind": "join", "node": 4, "pos": [0.5, 0.5]},
                    {"t": 1, "kind": "leave", "node": 4},
                    {"t": 2, "kind": "move", "node": 4, "pos": [1.5, 1.5]})"),
      "after it departed");
}

TEST(TraceJson, AcceptsBoundaryShapedValidTraces) {
  const auto accept = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_NO_THROW(static_cast<void>(io::read_trace_json(ss))) << text;
  };
  // Seed-instance nodes may leave or move without a prior join in the trace.
  accept(json_trace(R"({"t": 0, "kind": "move", "node": 0, "pos": [1.0, 1.0]},
                       {"t": 1, "kind": "leave", "node": 1})"));
  // Equal timestamps are monotone; coordinates may sit exactly on the side.
  accept(json_trace(R"({"t": 2, "kind": "join", "node": 9, "pos": [5.0, 0.0]},
                       {"t": 2, "kind": "join", "node": 10, "pos": [0.0, 5.0]})"));
  // Leave-then-rejoin of the same id is churn, not duplication.
  accept(json_trace(R"({"t": 0, "kind": "join", "node": 3, "pos": [0.5, 0.5]},
                       {"t": 1, "kind": "leave", "node": 3},
                       {"t": 2, "kind": "join", "node": 3, "pos": [0.5, 0.5]})"));
}

TEST(TraceBinary, RoundTripIsExact) {
  for (int dim : {2, 3}) {
    const dy::ChurnTrace trace = sample_trace(dim, 64);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    io::write_trace_binary(ss, trace);
    EXPECT_EQ(io::read_trace_binary(ss), trace) << "dim=" << dim;
  }
}

TEST(TraceBinary, RejectsBadMagicAndTruncation) {
  std::stringstream bad("LSINSTANCE####");
  EXPECT_THROW(static_cast<void>(io::read_trace_binary(bad)), std::runtime_error);

  const dy::ChurnTrace trace = sample_trace();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_trace_binary(ss, trace);
  const std::string full = ss.str();
  // Cut inside the magic, the dim, each header double, the count, the first
  // event, and one byte before the end: every prefix must fail cleanly.
  for (std::size_t cut : {std::size_t{4}, std::size_t{10}, std::size_t{15}, std::size_t{23},
                          std::size_t{31}, std::size_t{41}, full.size() / 2, full.size() - 1}) {
    ASSERT_LT(cut, full.size());
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(static_cast<void>(io::read_trace_binary(truncated)), std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(TraceBinary, ClaimedCountReservesNoMoreThanTheBytesLeft) {
  // A 36-byte header that claims 2^62 events and carries none: the read
  // fails on the first missing event, having sized nothing by the count.
  dy::ChurnTrace empty;
  empty.dim = 2;
  empty.alpha = 0.75;
  empty.side = 5.0;
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  io::write_trace_binary(out, empty);
  std::string bytes = out.str();
  ASSERT_EQ(bytes.size(), 36u);
  const std::uint64_t claim = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + 28, &claim, sizeof(claim));  // the event count
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  const long long before = g_alloc_bytes.load();
  try {
    static_cast<void>(io::read_trace_binary(in));
    ADD_FAILURE() << "a trace short of its claimed events loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trace_io: truncated binary trace");
  }
  EXPECT_LT(g_alloc_bytes.load() - before, 1LL << 16);
}

TEST(TraceBinary, RejectsNonFiniteHeaderDoubles) {
  const dy::ChurnTrace trace = sample_trace();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_trace_binary(ss, trace);
  const std::string full = ss.str();
  // Layout: 8-byte magic, int32 dim, double alpha (offset 12), double side
  // (offset 20). take<double> happily returns NaN/inf — the validator must
  // not.
  const auto patched = [&](std::size_t off, double v) {
    std::string bytes = full;
    std::memcpy(&bytes[off], &v, sizeof v);
    return bytes;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::string& bytes :
       {patched(12, nan), patched(12, inf), patched(12, -0.5), patched(20, nan), patched(20, inf),
        patched(20, -1.0)}) {
    std::stringstream in(bytes);
    EXPECT_THROW(static_cast<void>(io::read_trace_binary(in)), std::runtime_error);
  }
}

TEST(TraceBinary, RejectsSemanticallyInvalidEvents) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  dy::ChurnTrace base{2, 0.75, 5.0, {}};

  dy::ChurnTrace t = base;
  t.events = {make_event(dy::EventKind::kJoin, 1, nan, 0.5, 0.5)};
  expect_reject_binary(t, "non-finite timestamp");

  t = base;
  t.events = {make_event(dy::EventKind::kJoin, 1, 1.0, 0.5, 0.5),
              make_event(dy::EventKind::kJoin, 2, 0.5, 1.5, 1.5)};
  expect_reject_binary(t, "non-monotone timestamp");

  t = base;
  t.events = {make_event(dy::EventKind::kJoin, -2, 0.0, 0.5, 0.5)};
  expect_reject_binary(t, "negative node id");

  t = base;
  t.events = {make_event(dy::EventKind::kJoin, 1, 0.0, nan, 0.5)};
  expect_reject_binary(t, "out of range");

  t = base;
  t.events = {make_event(dy::EventKind::kMove, 1, 0.0, 0.5, 7.25)};
  expect_reject_binary(t, "out of range");

  t = base;
  t.events = {make_event(dy::EventKind::kJoin, 6, 0.0, 0.5, 0.5),
              make_event(dy::EventKind::kJoin, 6, 1.0, 1.5, 1.5)};
  expect_reject_binary(t, "duplicate join of node 6");

  t = base;
  t.events = {make_event(dy::EventKind::kJoin, 6, 0.0, 0.5, 0.5),
              make_event(dy::EventKind::kLeave, 6, 1.0, 0.0, 0.0),
              make_event(dy::EventKind::kMove, 6, 2.0, 1.5, 1.5)};
  expect_reject_binary(t, "after it departed");
}

TEST(TraceFiles, ExtensionPicksFormatAndLoadSniffs) {
  const dy::ChurnTrace trace = sample_trace();
  const auto dir = std::filesystem::temp_directory_path();
  const std::string json_path = (dir / "localspan_trace_test.json").string();
  const std::string bin_path = (dir / "localspan_trace_test.ctb").string();

  io::save_trace(json_path, trace);
  io::save_trace(bin_path, trace);

  // Binary artifact is the compact one; JSON is readable text.
  EXPECT_LT(std::filesystem::file_size(bin_path), std::filesystem::file_size(json_path));
  EXPECT_EQ(io::load_trace(json_path), trace);
  EXPECT_EQ(io::load_trace(bin_path), trace);

  std::remove(json_path.c_str());
  std::remove(bin_path.c_str());
  EXPECT_THROW(static_cast<void>(io::load_trace("/nonexistent/trace.json")), std::runtime_error);
}
