/// collect_bench DIR [OUT]: aggregate every BENCH_<id>.json artifact in DIR
/// into OUT (default DIR/BENCH_SUMMARY.json), validating each on the way:
/// {"schema_version": 1, "count": N, "gates": [{"artifact": "E15", "gate":
/// "thread_scaling_speedup", "verdict": "passed"}, ...], "benches": [<each
/// artifact's text, verbatim, sorted by file name>]}. The checks are the rows
/// of kGates plus two structural functions (E6's records, E15's obs block).
/// A gate with a verdict name records "passed", or why it did not run:
/// "skipped_1core" (fewer than 4 cores at bench time), "skipped_quick"
/// (quick-mode problem sizes) or "skipped_no_nproc" (no nproc in meta). A
/// failed check exits 1 with a "collect_bench: ..." message.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace {

namespace fs = std::filesystem;
using localspan::io::json_escape;
using localspan::io::JsonParser;
using localspan::io::JsonValue;
using Type = JsonValue::Type;
using Cells = std::vector<JsonValue>;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

[[noreturn]] void die(const std::string& what) { throw std::runtime_error(what); }

std::string num(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", d);
  return buf;
}

/// A cell as text: strings as they are, numbers printed (2048 -> "2048").
std::string text(const JsonValue& v) { return v.type == Type::kNumber ? num(v.number) : v.string; }

/// A non-negative decimal: a JSON number >= 0, or a string of digits with an
/// optional fraction. Anything else (negative, non-numeric) is rejected.
double decimal(const JsonValue& v, const std::string& where) {
  static const std::regex kDecimal("[0-9]+(\\.[0-9]+)?");
  if (v.type == Type::kNumber && v.number >= 0.0) return v.number;
  if (v.type != Type::kString || !std::regex_match(v.string, kDecimal)) {
    die(where + " '" + text(v) + "' is not a decimal number");
  }
  return std::strtod(v.string.c_str(), nullptr);
}

const Cells& array_at(const JsonValue& v, const char* key, const std::string& where) {
  const JsonValue* a = v.find(key);
  if (a == nullptr || a->type != Type::kArray) die(where + " lacks a '" + key + "' array");
  return a->array;
}

std::string title(const JsonValue& table) {
  const JsonValue* t = table.find("title");
  return "'" + (t != nullptr ? text(*t) : "") + "'";
}

/// Index of the column called `name`. When there is none: kNone if `of` is
/// empty, else dies naming `of` and the table's title.
std::size_t column(const JsonValue& table, const std::string& name, const std::string& of = "") {
  const Cells& cols = array_at(table, "columns", of + " table");
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (text(cols[i]) == name) return i;
  }
  if (of.empty()) return kNone;
  die(of + " " + title(table) + " lacks the '" + name + "' column");
}

/// `table` must have rows, each an array with a cell for every column.
void check_rows(const JsonValue& table, const std::string& of) {
  const std::size_t width = array_at(table, "columns", of + " table").size();
  const Cells& rows = array_at(table, "rows", of + " table");
  if (rows.empty()) die(of + " " + title(table) + " is empty");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].array.size() < width) die(of + " row " + std::to_string(r) + " is short");
  }
}

struct Artifact {
  std::string file, id;
  JsonValue root;
  JsonValue meta;  ///< the meta object as a one-row table, read like any other.
  const JsonValue* nproc = nullptr;
  bool quick = false;

  [[nodiscard]] const Cells& tables() const { return array_at(root, "tables", file); }
};

JsonValue meta_table(const JsonValue& root) {
  JsonValue t = JsonParser(R"({"title": "meta", "columns": [], "rows": [[]]})").parse();
  if (const JsonValue* meta = root.find("meta")) {
    for (const auto& [key, value] : meta->object) {
      t.object[1].second.array.push_back(JsonValue{Type::kString, false, 0.0, key, {}, {}});
      t.object[2].second.array[0].array.push_back(value);
    }
  }
  return t;
}

/// Which block a gate reads: the meta object, table 0, or every table whose
/// column names mark it as the thread-scaling, batched-ingestion or
/// concurrent-serving table.
enum class Sel { kMeta, kFirst, kScaling, kBatch, kServing };

std::vector<const JsonValue*> select(const Artifact& a, Sel sel) {
  static const char* const kWhat[] = {"meta", "first", "thread-scaling", "batched-ingestion",
                                      "concurrent-serving"};
  if (sel == Sel::kMeta) return {&a.meta};
  std::vector<const JsonValue*> out;
  for (const JsonValue& t : a.tables()) {
    const Cells& c = array_at(t, "columns", a.id + " table");
    const auto has = [&](const char* name) { return column(t, name) != kNone; };
    if (sel == Sel::kFirst || (sel == Sel::kBatch && has("batch")) ||
        (sel == Sel::kServing && has("qps") && has("p99 us")) ||
        (sel == Sel::kScaling && c.size() >= 3 && text(c[1]) == "threads" &&
         text(c.back()) == "speedup")) {
      out.push_back(&t);
      if (sel == Sel::kFirst) break;
    }
  }
  if (out.empty()) die(a.id + " lacks the " + kWhat[static_cast<int>(sel)] + " table");
  for (const JsonValue* t : out) check_rows(*t, a.id);
  return out;
}

enum class Pred {
  kPresent,     ///< the column exists.
  kYes,         ///< every cell is "yes".
  kYesNo,       ///< every cell is "yes" or "no".
  kDecimal,     ///< every cell is a non-negative decimal.
  kPositive,    ///< every cell is a decimal > 0.
  kCount,       ///< every cell is an integer >= 1.
  kAtLeast,     ///< every cell is >= threshold.
  kAtMost,      ///< every cell is <= threshold.
  kAtMostRef,   ///< every cell is <= threshold x the `ref` cell of its row.
  kAtMostBase,  ///< every cell is <= threshold x the E15 baseline's with the same `ref`.
  kBest,        ///< the largest cell is >= threshold.
};
enum class Skip { kNever, kQuick, kCores };

/// One gate: artifact, table, column, predicate, threshold, the rows it
/// reads (at_n > 0: only those whose "n" cell equals it), skip rule, verdict
/// name (null: none recorded), reference column and failure explanation.
/// Columns are looked up by name once the skip rule lets the gate run.
struct Gate {
  const char* artifact;  ///< a pattern over artifact ids.
  Sel table;
  const char* column;
  Pred pred;
  double threshold = 0.0;
  double at_n = 0.0;
  Skip skip = Skip::kNever;
  const char* verdict = nullptr;
  const char* ref = nullptr;
  const char* why = nullptr;
};

using P = Pred;
using S = Sel;
constexpr Skip kNo = Skip::kNever;
constexpr Skip kQ = Skip::kQuick;
constexpr Skip kCores = Skip::kCores;
const char* const kDijkstra = "the oracle must beat per-query Dijkstra";

const Gate kGates[] = {
    {"E9", S::kFirst, "max query hops (L8)", P::kAtMostRef, 1, 0, kNo, "lemma8_hops",
     "L8 cap 2+ceil(tr/d)", "an H query path is longer than Lemma 8's hop cap"},
    {"E12|E15", S::kScaling, "threads", P::kCount},
    {"E12|E15", S::kScaling, "speedup", P::kPositive},
    {"E12|E15", S::kScaling, "speedup", P::kBest, 1.2, 0, kCores, "thread_scaling_speedup", 0,
     "the best parallel point must beat serial"},
    {"E15", S::kMeta, "alloc_free_steady_state", P::kYes, 0, 0, kNo, 0, 0,
     "the workspace/certify steady state has started allocating"},
    {"E15", S::kMeta, "nproc", P::kPresent},
    {"E15", S::kMeta, "obs_enabled", P::kYesNo},
    {"E15", S::kMeta, "obs_off_ms", P::kDecimal},
    {"E15", S::kMeta, "obs_on_ms", P::kDecimal},
    {"E15", S::kMeta, "obs_overhead_pct", P::kDecimal},
    {"E15", S::kMeta, "obs_overhead_pct", P::kAtMost, 3, 0, kQ, "obs_overhead", 0,
     "the observability layer must cost <= 3% at n=2048"},
    {"E15", S::kBatch, "batch", P::kCount},
    {"E15", S::kBatch, "threads", P::kCount},
    {"E15", S::kBatch, "batch ev/s", P::kPositive},
    {"E15", S::kBatch, "batch ev/s", P::kBest, 1e4, 100000, kQ, "batch_throughput"},
    {"E15", S::kFirst, "mean scope", P::kPresent},
    {"E15", S::kFirst, "threads", P::kPresent},
    {"E15", S::kFirst, "model", P::kPresent},
    {"E15", S::kFirst, "inc ms/ev", P::kPresent},
    {"E15", S::kFirst, "inc ms/ev", P::kAtMostBase, 1.25, 2048, kQ, "inc_regression", "model",
     "a > 25% regression against bench/baselines/BENCH_E15.json"},
    {"E16", S::kMeta, "nproc", P::kPresent},
    {"E16", S::kMeta, "quick", P::kPresent},
    {"E16", S::kMeta, "stretch_ok", P::kYes, 0, 0, kNo, 0, 0,
     "a served distance fell outside [exact, bound * exact]"},
    {"E16", S::kFirst, "speedup", P::kDecimal},
    {"E16", S::kFirst, "speedup", P::kAtLeast, 10, 2048, kQ, "oracle_speedup", 0, kDijkstra},
    {"E16", S::kFirst, "speedup", P::kAtLeast, 100, 100000, kQ, 0, 0, kDijkstra},
    {"E16", S::kServing, "qps", P::kPositive},
    {"E16", S::kServing, "p99 us", P::kDecimal},
    {"E17", S::kMeta, "nproc", P::kCount},
    {"E17", S::kMeta, "quick", P::kPresent},
    {"E17", S::kFirst, "terminated", P::kYes, 0, 0, kNo, 0, 0,
     "the reliable protocol failed to reach quiescence under this adversary"},
    {"E17", S::kFirst, "identical", P::kYes, 0, 0, kNo, 0, 0,
     "the async spanner diverged from the synchronous build"},
    {"E17", S::kFirst, "transmissions", P::kPositive},
    {"E17", S::kFirst, "convergence vtime", P::kPositive},
    {"E17", S::kMeta, "peak_rss_mb", P::kAtMostRef, 3, 0, kQ, "relaxed_dist_peak_rss",
     "relaxed_peak_rss_mb", "the distributed cover is no longer linear-memory"},
};

JsonValue read_json(const fs::path& path, std::string* body = nullptr) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is) die("cannot read " + path.string());
  if (body != nullptr) *body = buf.str();
  try {
    return JsonParser(buf.str()).parse();
  } catch (const std::runtime_error& e) {
    die(path.string() + ": " + e.what());
  }
}

/// The first table of the checked-in E15 baseline.
const JsonValue& e15_baseline() {
  static const JsonValue root = read_json(COLLECT_BENCH_E15_BASELINE);
  const JsonValue& table = array_at(root, "tables", "E15 baseline").at(0);
  check_rows(table, "E15 baseline");
  return table;
}

/// Why gate `g` does not run on `a`, or null when it runs.
const char* skip_verdict(const Gate& g, const Artifact& a) {
  if (g.skip == Skip::kCores && a.nproc == nullptr) return "skipped_no_nproc";
  if (g.skip != Skip::kNever && a.quick) return "skipped_quick";
  if (g.skip == Skip::kCores && decimal(*a.nproc, a.id + " meta nproc") < 4) return "skipped_1core";
  return nullptr;
}

void run_gate(const Gate& g, const Artifact& a, std::vector<std::string>& verdicts) {
  for (const JsonValue* t : select(a, g.table)) {
    // A failed check exits before the summary is written, so the verdict
    // can be recorded up front.
    const char* skip = skip_verdict(g, a);
    if (g.verdict != nullptr) {
      verdicts.push_back("{\"artifact\": \"" + json_escape(a.id) + "\", \"gate\": \"" +
                         g.verdict + "\", \"verdict\": \"" + (skip ? skip : "passed") + "\"}");
      if (skip) std::fprintf(stderr, "collect_bench: %s %s: %s\n", a.id.c_str(), g.verdict, skip);
    }
    if (skip != nullptr) continue;
    const std::size_t c = column(*t, g.column, a.id);
    const std::size_t n_col = g.at_n > 0 ? column(*t, "n", a.id) : kNone;
    const std::size_t ref_col = g.ref != nullptr ? column(*t, g.ref, a.id) : kNone;
    const std::string why = g.why != nullptr ? std::string(" — ") + g.why : "";
    const std::string at_n = num(g.at_n);
    double best = -1.0;
    const Cells& rows = t->find("rows")->array;
    for (std::size_t r = 0; r < rows.size() && g.pred != P::kPresent; ++r) {
      const Cells& row = rows[r].array;
      if (n_col != kNone && text(row[n_col]) != at_n) continue;
      const JsonValue& v = row[c];
      const std::string where =
          a.id + (t == &a.meta ? " meta " : " row " + std::to_string(r) + " ") + g.column;
      const double d = g.pred == P::kYes || g.pred == P::kYesNo ? 0.0 : decimal(v, where);
      const auto fail = [&](const std::string& expected) {
        die(where + " is '" + text(v) + "', expected " + expected + why);
      };
      const auto at_most = [&](const JsonValue& ref, const std::string& what) {
        const double limit = g.threshold * decimal(ref, where + " " + what);
        if (d > limit) fail("<= " + num(limit) + " (" + num(g.threshold) + "x " + what + ")");
      };
      if (g.pred == P::kYes && text(v) != "yes") fail("yes");
      if (g.pred == P::kYesNo && text(v) != "yes" && text(v) != "no") fail("yes or no");
      if (g.pred == P::kPositive && !(d > 0.0)) fail("> 0");
      if (g.pred == P::kCount && (d < 1.0 || d != std::floor(d))) fail("an integer >= 1");
      if (g.pred == P::kAtLeast && d < g.threshold) fail(">= " + num(g.threshold));
      if (g.pred == P::kAtMost && d > g.threshold) fail("<= " + num(g.threshold));
      if (g.pred == P::kAtMostRef) at_most(row[ref_col], g.ref);
      if (g.pred == P::kBest) best = std::max(best, d);
      if (g.pred != P::kAtMostBase) continue;
      // The baseline's columns are looked up by name in its own header.
      const JsonValue& base = e15_baseline();
      const std::size_t bn = column(base, "n", "E15 baseline");
      const std::size_t bc = column(base, g.column, "E15 baseline");
      const std::size_t bref = column(base, g.ref, "E15 baseline");
      for (const JsonValue& b : base.find("rows")->array) {
        if (text(b.array[bn]) == at_n && text(b.array[bref]) == text(row[ref_col])) {
          at_most(b.array[bc], "the baseline at " + std::string(g.ref) + "=" + text(row[ref_col]));
        }
      }
    }
    if (g.pred == P::kBest && best >= 0.0 && best < g.threshold) {
      die(a.id + " best " + g.column + (g.at_n > 0 ? " at n=" + at_n : std::string()) + " is " +
          num(best) + ", expected >= " + num(g.threshold) + why);
    }
  }
}

/// E6 is the registry sweep: table 0 holds one uniform record per
/// registered algorithm — an "algo" first column, at least 9 rows, and a
/// non-empty algorithm name and declared-guarantee (last) cell in each.
void check_e6(const Artifact& a) {
  const JsonValue& t = a.tables()[0];
  const std::size_t width = array_at(t, "columns", "E6 table").size();
  const Cells& rows = array_at(t, "rows", "E6 table");
  if (column(t, "algo") != 0) die("E6 first column is not 'algo'");
  if (rows.size() < 9) die("E6 has " + std::to_string(rows.size()) + " records, expected >= 9");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Cells& row = rows[r].array;
    if (row.size() != width || text(row[0]).empty() || text(row.back()).empty()) {
      die("E6 row " + std::to_string(r) + " is malformed");
    }
  }
}

/// An embedded obs snapshot keeps the members trajectory tooling reads.
void check_obs_block(const Artifact& a) {
  const JsonValue* obs = a.root.find("obs");
  if (obs == nullptr) return;
  for (const char* member : {"counters", "gauges", "histograms", "spans"}) {
    const JsonValue* m = obs->find(member);
    if (m == nullptr || (m->type != Type::kObject && m->type != Type::kArray)) {
      die(a.id + " obs block lacks '" + member + "'");
    }
  }
}

void collect(const fs::path& dir, const fs::path& out) {
  static const std::regex kArtifact("BENCH_.*\\.json");
  if (!fs::is_directory(dir)) die("'" + dir.string() + "' is not a directory");
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && std::regex_match(name, kArtifact) && name != "BENCH_SUMMARY.json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> verdicts;
  std::string payloads;
  std::string ids;
  int count = 0;
  for (const fs::path& file : files) {
    std::string body;
    Artifact a{file.string(), "", read_json(file, &body), {}};
    const JsonValue* bench = a.root.find("bench");
    if (bench == nullptr) {  // a foreign schema, e.g. google-benchmark's native JSON
      std::printf("collect_bench: skipping %s (not a localspan artifact)\n", a.file.c_str());
      continue;
    }
    a.id = text(*bench);
    a.meta = meta_table(a.root);
    const JsonValue* meta = a.root.find("meta");
    const JsonValue* quick = meta != nullptr ? meta->find("quick") : nullptr;
    a.nproc = meta != nullptr ? meta->find("nproc") : nullptr;
    a.quick = quick != nullptr && text(*quick) == "yes";
    const JsonValue* version = a.root.find("schema_version");
    const std::string v = version == nullptr ? "" : text(*version);
    if (v != "1") die(a.file + " has schema_version '" + v + "'");
    if (a.tables().empty()) die(a.file + " has no tables");
    if (a.id == "E6") check_e6(a);
    if (a.id == "E15") check_obs_block(a);
    for (const Gate& g : kGates) {
      if (std::regex_match(a.id, std::regex(g.artifact))) run_gate(g, a, verdicts);
    }
    const auto space = [](unsigned char c) { return std::isspace(c) != 0; };
    body.erase(std::find_if_not(body.rbegin(), body.rend(), space).base(), body.end());
    body.erase(body.begin(), std::find_if_not(body.begin(), body.end(), space));
    payloads += (count > 0 ? ",\n" : "") + body;
    ids += (count++ > 0 ? ", " : "") + a.id;
  }
  if (count == 0) die("no BENCH_*.json artifacts in " + dir.string());
  std::string gates;
  for (const std::string& row : verdicts) gates += (gates.empty() ? "" : ",\n") + row;
  std::ofstream os(out, std::ios::binary);
  os << "{\n\"schema_version\": 1,\n\"count\": " << count << ",\n\"gates\": [\n" << gates
     << "\n],\n\"benches\": [\n" << payloads << "\n]\n}\n";
  if (!os.flush()) die("cannot write " + out.string());
  // Self-check: the summary parses, holds count benches and known verdicts.
  const JsonValue summary = read_json(out);
  static const std::regex kVerdict("passed|skipped_1core|skipped_quick|skipped_no_nproc");
  std::size_t known = 0;
  for (const JsonValue& row : array_at(summary, "gates", "summary")) {
    const JsonValue* verdict = row.find("verdict");
    known += verdict != nullptr && std::regex_match(text(*verdict), kVerdict);
  }
  const std::size_t benches = array_at(summary, "benches", "summary").size();
  if (benches != static_cast<std::size_t>(count) || known != verdicts.size()) {
    die("summary self-check failed for " + out.string());
  }
  std::printf("collect_bench: recorded %zu gate verdict(s)\n", verdicts.size());
  std::printf("collect_bench: wrote %s (%d benches: %s)\n", out.string().c_str(), count,
              ids.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || argc > 3) die("usage: collect_bench DIR [OUT]");
    const fs::path dir = argv[1];
    collect(dir, argc == 3 ? fs::path(argv[2]) : dir / "BENCH_SUMMARY.json");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "collect_bench: %s\n", e.what());
    return 1;
  }
}
