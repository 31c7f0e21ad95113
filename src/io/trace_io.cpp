#include "io/trace_io.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "io/json.hpp"

namespace localspan::io {

namespace {

constexpr const char* kFormat = "localspan-churn-trace";
constexpr int kVersion = 1;
// 8-byte binary magic: format id + version byte + NUL padding.
constexpr char kBinaryMagic[8] = {'L', 'S', 'C', 'T', 'R', 'C', 1, 0};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace_io: " + what);
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double get_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    fail(std::string("missing or non-numeric field '") + key + "'");
  }
  return v->number;
}

int get_int(const JsonValue& obj, const char* key) {
  const double d = get_number(obj, key);
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) fail(std::string("field '") + key + "' is not an integer");
  return i;
}

// -------------------------------------------------------------------------
// Binary record I/O. Fixed-width little-endian fields; the format targets
// same-architecture replay artifacts, and kBinaryMagic guards against
// cross-endian surprises only insofar as corrupt fields fail validation.
// -------------------------------------------------------------------------

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T take(std::istream& is) {
  T v{};
  if (!is.read(reinterpret_cast<char*>(&v), sizeof(T))) fail("truncated binary trace");
  return v;
}

/// Bytes between the read position and the end of a seekable stream; 0 when
/// the stream cannot seek.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

// -------------------------------------------------------------------------
// Structural validation shared by both readers. The readers enforce the
// *syntax* (grammar, field types, arity); this enforces the *semantics*
// a replayer relies on: header ranges, finite monotone timestamps, node ids,
// in-box coordinates, and trace-local node liveness (a node the trace itself
// made live cannot join again; one it departed cannot leave or move). The
// checks are instance-free — dynamic::validate_trace still owns the deeper
// replay check against a concrete instance — so every load path, including
// the binary one whose raw doubles can smuggle NaN/infinity, yields a typed
// error instead of UB downstream.
// -------------------------------------------------------------------------

void validate_trace_structure(const dynamic::ChurnTrace& trace) {
  if (!std::isfinite(trace.alpha) || trace.alpha <= 0.0 || trace.alpha > 1.0) {
    fail("alpha out of range (0, 1]");
  }
  if (!std::isfinite(trace.side) || trace.side < 0.0) fail("side must be finite and >= 0");
  const double side_slack = trace.side * (1.0 + 1e-9);
  double prev_time = -std::numeric_limits<double>::infinity();
  // 0 = unknown (lives only in the seed instance, if anywhere), 1 = live in
  // trace, 2 = departed in trace.
  std::unordered_map<int, char> state;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const dynamic::ChurnEvent& ev = trace.events[i];
    const std::string at = "event " + std::to_string(i) + ": ";
    if (!std::isfinite(ev.time)) fail(at + "non-finite timestamp");
    if (ev.time < prev_time) fail(at + "non-monotone timestamp");
    prev_time = ev.time;
    if (ev.node < 0) fail(at + "negative node id");
    if (ev.kind != dynamic::EventKind::kLeave) {
      for (int k = 0; k < trace.dim; ++k) {
        const double c = ev.pos[k];
        if (!std::isfinite(c) || c < 0.0 || (trace.side > 0.0 && c > side_slack)) {
          fail(at + "position coordinate out of range [0, side]");
        }
      }
    }
    char& st = state[ev.node];
    switch (ev.kind) {
      case dynamic::EventKind::kJoin:
        if (st == 1) fail(at + "duplicate join of node " + std::to_string(ev.node));
        st = 1;
        break;
      case dynamic::EventKind::kLeave:
        if (st == 2) fail(at + "leave of node " + std::to_string(ev.node) + " after it departed");
        st = 2;
        break;
      case dynamic::EventKind::kMove:
        if (st == 2) fail(at + "move of node " + std::to_string(ev.node) + " after it departed");
        break;
    }
  }
}

}  // namespace

void write_trace_json(std::ostream& os, const dynamic::ChurnTrace& trace) {
  os << "{\n  \"format\": \"" << kFormat << "\",\n  \"version\": " << kVersion << ",\n";
  os << "  \"dim\": " << trace.dim << ",\n";
  os << "  \"alpha\": " << fmt_double(trace.alpha) << ",\n";
  os << "  \"side\": " << fmt_double(trace.side) << ",\n";
  os << "  \"events\": [";
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const dynamic::ChurnEvent& ev = trace.events[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"t\": " << fmt_double(ev.time) << ", \"kind\": \""
       << json_escape(dynamic::to_string(ev.kind)) << "\", \"node\": " << ev.node;
    if (ev.kind != dynamic::EventKind::kLeave) {
      os << ", \"pos\": [";
      for (int k = 0; k < trace.dim; ++k) os << (k ? ", " : "") << fmt_double(ev.pos[k]);
      os << "]";
    }
    os << "}";
  }
  os << (trace.events.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

dynamic::ChurnTrace read_trace_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  JsonValue root;
  try {
    root = JsonParser(buf.str()).parse();
  } catch (const std::runtime_error& e) {
    fail(e.what());
  }
  if (root.type != JsonValue::Type::kObject) fail("top-level JSON value must be an object");
  const JsonValue* format = root.find("format");
  if (format == nullptr || format->type != JsonValue::Type::kString || format->string != kFormat) {
    fail("not a churn trace (bad 'format' field)");
  }
  if (get_int(root, "version") != kVersion) fail("unsupported trace version");

  dynamic::ChurnTrace trace;
  trace.dim = get_int(root, "dim");
  if (trace.dim < 2 || trace.dim > geom::kMaxDim) fail("dim out of range");
  trace.alpha = get_number(root, "alpha");
  trace.side = get_number(root, "side");

  const JsonValue* events = root.find("events");
  if (events == nullptr || events->type != JsonValue::Type::kArray) fail("missing events array");
  trace.events.reserve(events->array.size());
  for (const JsonValue& e : events->array) {
    if (e.type != JsonValue::Type::kObject) fail("event must be an object");
    dynamic::ChurnEvent ev;
    ev.time = get_number(e, "t");
    ev.node = get_int(e, "node");
    const JsonValue* kind = e.find("kind");
    if (kind == nullptr || kind->type != JsonValue::Type::kString) fail("missing event kind");
    if (kind->string == "join") ev.kind = dynamic::EventKind::kJoin;
    else if (kind->string == "leave") ev.kind = dynamic::EventKind::kLeave;
    else if (kind->string == "move") ev.kind = dynamic::EventKind::kMove;
    else fail("unknown event kind '" + kind->string + "'");
    ev.pos = geom::Point(trace.dim);
    if (ev.kind != dynamic::EventKind::kLeave) {
      const JsonValue* pos = e.find("pos");
      if (pos == nullptr || pos->type != JsonValue::Type::kArray ||
          static_cast<int>(pos->array.size()) != trace.dim) {
        fail("event pos must be an array of dim numbers");
      }
      for (int k = 0; k < trace.dim; ++k) {
        const JsonValue& c = pos->array[static_cast<std::size_t>(k)];
        if (c.type != JsonValue::Type::kNumber) fail("pos coordinate must be a number");
        ev.pos[k] = c.number;
      }
    }
    trace.events.push_back(ev);
  }
  validate_trace_structure(trace);
  return trace;
}

void write_trace_binary(std::ostream& os, const dynamic::ChurnTrace& trace) {
  os.write(kBinaryMagic, sizeof(kBinaryMagic));
  put<std::int32_t>(os, trace.dim);
  put<double>(os, trace.alpha);
  put<double>(os, trace.side);
  put<std::uint64_t>(os, trace.events.size());
  for (const dynamic::ChurnEvent& ev : trace.events) {
    put<std::uint8_t>(os, static_cast<std::uint8_t>(ev.kind));
    put<std::int32_t>(os, ev.node);
    put<double>(os, ev.time);
    if (ev.kind != dynamic::EventKind::kLeave) {
      for (int k = 0; k < trace.dim; ++k) put<double>(os, ev.pos[k]);
    }
  }
}

dynamic::ChurnTrace read_trace_binary(std::istream& is) {
  char magic[sizeof(kBinaryMagic)] = {};
  if (!is.read(magic, sizeof(magic)) || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    fail("bad binary trace magic");
  }
  dynamic::ChurnTrace trace;
  trace.dim = take<std::int32_t>(is);
  if (trace.dim < 2 || trace.dim > geom::kMaxDim) fail("dim out of range");
  trace.alpha = take<double>(is);
  trace.side = take<double>(is);
  const std::uint64_t count = take<std::uint64_t>(is);
  // The count comes from an untrusted header: reserve no more events than
  // the bytes left can hold (13 per event at least: a leave's kind, node and
  // time), so a corrupt count fails with "truncated binary trace" below
  // having sized nothing by it. A stream that cannot seek grows as it reads.
  trace.events.reserve(static_cast<std::size_t>(std::min(count, bytes_left(is) / 13)));
  for (std::uint64_t i = 0; i < count; ++i) {
    dynamic::ChurnEvent ev;
    const auto kind = take<std::uint8_t>(is);
    if (kind > 2) fail("corrupt event kind");
    ev.kind = static_cast<dynamic::EventKind>(kind);
    ev.node = take<std::int32_t>(is);
    ev.time = take<double>(is);
    ev.pos = geom::Point(trace.dim);
    if (ev.kind != dynamic::EventKind::kLeave) {
      for (int k = 0; k < trace.dim; ++k) ev.pos[k] = take<double>(is);
    }
    trace.events.push_back(ev);
  }
  validate_trace_structure(trace);
  return trace;
}

void save_trace(const std::string& path, const dynamic::ChurnTrace& trace) {
  const bool binary = path.size() >= 4 && path.compare(path.size() - 4, 4, ".ctb") == 0;
  std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
  if (!os) throw std::runtime_error("save_trace: cannot open " + path);
  if (binary) write_trace_binary(os, trace);
  else write_trace_json(os, trace);
  if (!os) throw std::runtime_error("save_trace: write failed for " + path);
}

dynamic::ChurnTrace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace: cannot open " + path);
  char magic[sizeof(kBinaryMagic)] = {};
  is.read(magic, sizeof(magic));
  const bool binary = is.gcount() == sizeof(magic) &&
                      std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
  is.clear();
  is.seekg(0);
  return binary ? read_trace_binary(is) : read_trace_json(is);
}

}  // namespace localspan::io
