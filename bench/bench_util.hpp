#pragma once
/// \file bench_util.hpp
/// Shared helpers for the experiment binaries E1..E17 (bench/bench_e*.cpp):
/// instance construction, markdown table printing and the `BENCH_<id>.json`
/// artifact writer. Each bench prints one paper-shaped table; the README's
/// "Benches" section describes the set and the artifact schema.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "ubg/generator.hpp"

namespace localspan::benchutil {

using io::json_escape;

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_int(long long v) { return std::to_string(v); }

/// Minimal markdown table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print(const std::string& title) const {
    std::printf("\n## %s\n\n", title.c_str());
    print_row(header_);
    std::vector<std::string> rule;
    rule.reserve(header_.size());
    for (const auto& h : header_) rule.push_back(std::string(std::max<std::size_t>(3, h.size()), '-'));
    print_row(rule);
    for (const auto& r : rows_) print_row(r);
    std::fflush(stdout);
  }

  [[nodiscard]] const std::vector<std::string>& header() const { return header_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  void print_row(const std::vector<std::string>& cells) const {
    std::printf("|");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t width = i < header_.size() ? std::max(header_[i].size(), cells[i].size())
                                                   : cells[i].size();
      std::printf(" %-*s |", static_cast<int>(width), cells[i].c_str());
    }
    std::printf("\n");
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Emit a table cell as a JSON number when the whole string parses as one
/// (so "0.75" and "512" become numbers, "yes" and "relaxed (strict)" stay
/// strings). Keeps the artifacts machine-readable without a schema per bench.
inline std::string json_cell(const std::string& s) {
  if (!s.empty()) {
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    if (end == s.c_str() + s.size()) return s;
  }
  std::string quoted = "\"";
  quoted += json_escape(s);
  quoted += '"';
  return quoted;
}

/// Where a bench's JSON artifact goes: `BENCH_<id>.json` in the working
/// directory, or under $LOCALSPAN_BENCH_JSON_DIR when set. Shared by
/// JsonReport and the google-benchmark bench so the convention lives once.
inline std::string bench_json_path(const std::string& id) {
  const char* dir = std::getenv("LOCALSPAN_BENCH_JSON_DIR");
  return (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
         "BENCH_" + id + ".json";
}

/// Machine-readable companion to the markdown tables: collects every table a
/// bench prints and writes `BENCH_<id>.json` (into $LOCALSPAN_BENCH_JSON_DIR,
/// default the working directory). This is the artifact future perf PRs are
/// compared against, so the shape is stable:
///
///   { "bench": "E1", "schema_version": 1,
///     "meta": {"n": 512, ...},
///     "tables": [ {"title": ..., "columns": [...], "rows": [[...], ...]} ] }
class JsonReport {
 public:
  explicit JsonReport(std::string id) : id_(std::move(id)) {}

  /// Record a run parameter ("n", "alpha", ...) for the meta block.
  void meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }
  void meta(const std::string& key, double value) { meta(key, fmt(value, 6)); }
  void meta(const std::string& key, long long value) { meta(key, fmt_int(value)); }

  /// Print the markdown table to stdout AND record it for the JSON artifact.
  void print(const std::string& title, const Table& table) {
    table.print(title);
    add(title, table);
  }

  void add(const std::string& title, const Table& table) {
    tables_.emplace_back(title, table);
  }

  /// Attach an observability block (obs::to_json(obs::snapshot())) — emitted
  /// verbatim as the top-level "obs" member. collect_bench validates
  /// its shape when present.
  void set_obs(std::string obs_json) {
    while (!obs_json.empty() && (obs_json.back() == '\n' || obs_json.back() == ' ')) {
      obs_json.pop_back();
    }
    obs_json_ = std::move(obs_json);
  }

  /// Write BENCH_<id>.json. Returns false (after printing a diagnostic) on
  /// I/O failure so benches can surface it via their exit code.
  [[nodiscard]] bool write() const {
    const std::string path = bench_json_path(id_);
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "bench_util: cannot open %s for writing\n", path.c_str());
      return false;
    }
    os << "{\n  \"bench\": \"" << json_escape(id_) << "\",\n  \"schema_version\": 1,\n";
    os << "  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) os << ", ";
      os << "\"" << json_escape(meta_[i].first) << "\": " << json_cell(meta_[i].second);
    }
    os << "},\n";
    if (!obs_json_.empty()) os << "  \"obs\": " << obs_json_ << ",\n";
    os << "  \"tables\": [\n";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto& [title, table] = tables_[t];
      os << "    {\"title\": \"" << json_escape(title) << "\",\n     \"columns\": [";
      const auto& header = table.header();
      for (std::size_t i = 0; i < header.size(); ++i) {
        if (i > 0) os << ", ";
        os << "\"" << json_escape(header[i]) << "\"";
      }
      os << "],\n     \"rows\": [\n";
      const auto& rows = table.rows();
      for (std::size_t r = 0; r < rows.size(); ++r) {
        os << "       [";
        for (std::size_t i = 0; i < rows[r].size(); ++i) {
          if (i > 0) os << ", ";
          os << json_cell(rows[r][i]);
        }
        os << "]" << (r + 1 < rows.size() ? "," : "") << "\n";
      }
      os << "     ]}" << (t + 1 < tables_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    os.flush();
    if (!os) {
      std::fprintf(stderr, "bench_util: write to %s failed\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string id_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::string obs_json_;
  std::vector<std::pair<std::string, Table>> tables_;
};

/// The standard workload: uniform placement, always-connect gray zone.
inline ubg::UbgInstance standard_instance(int n, double alpha, std::uint64_t seed, int dim = 2,
                                          ubg::Placement placement = ubg::Placement::kUniform) {
  ubg::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.dim = dim;
  cfg.placement = placement;
  cfg.seed = seed;
  return ubg::make_ubg(cfg);
}

}  // namespace localspan::benchutil
