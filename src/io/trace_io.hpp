#pragma once
/// \file trace_io.hpp
/// Serialization for churn traces (dynamic/churn.hpp), in two formats:
///
///  * JSON — human-readable interchange. Doubles are printed with 17
///    significant digits so replays are bit-exact; the reader runs the strict
///    RFC-8259 parser of io/json.hpp and checks the trace schema:
///
///      { "format": "localspan-churn-trace", "version": 1,
///        "dim": 2, "alpha": 0.75, "side": 6.73,
///        "events": [ {"t": 0.31, "kind": "join", "node": 12,
///                     "pos": [1.5, 0.25]}, ... ] }
///
///  * binary — compact replay artifact for big benchmark traces: an 8-byte
///    magic, little-endian fixed-width header, then one record per event.
///
/// `save_trace`/`load_trace` pick the format by file extension (".ctb" =
/// binary, anything else JSON); `load_trace` additionally sniffs the magic
/// so a misnamed file still loads.

#include <iosfwd>
#include <string>

#include "dynamic/churn.hpp"

namespace localspan::io {

void write_trace_json(std::ostream& os, const dynamic::ChurnTrace& trace);

/// \throws std::runtime_error on malformed JSON or schema mismatch.
[[nodiscard]] dynamic::ChurnTrace read_trace_json(std::istream& is);

void write_trace_binary(std::ostream& os, const dynamic::ChurnTrace& trace);

/// \throws std::runtime_error on bad magic, truncation or corrupt fields.
[[nodiscard]] dynamic::ChurnTrace read_trace_binary(std::istream& is);

/// File wrappers. \throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const dynamic::ChurnTrace& trace);
[[nodiscard]] dynamic::ChurnTrace load_trace(const std::string& path);

}  // namespace localspan::io
