/// localspan command-line tool: generate, span, verify, route, trace, churn,
/// and query serving. Run it with no arguments for the usage text, which is
/// generated from the per-command flag tables at the end of this file.
///
/// Every construction goes through the api::AlgorithmRegistry, and
/// `span --algo list` prints its self-description. Exit code 0 on success /
/// verification pass, 1 otherwise.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/spanner_algorithm.hpp"
#include "core/verify.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/metrics.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "io/trace_io.hpp"
#include "obs/obs.hpp"
#include "route/routing.hpp"
#include "runtime/parallel.hpp"
#include "serve/query_engine.hpp"
#include "ubg/generator.hpp"

using namespace localspan;

namespace {

using api::OptionType;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One row of a command's flag table: the usage text, the parser's checks
/// and every fixed default come from these rows. A kBool row is a switch,
/// which takes no value; a row with `choices` takes one of them.
struct Flag {
  std::string name;
  OptionType type = OptionType::kString;
  std::string dflt;  ///< "" = none: absent means unset, or a default the code computes.
  std::string help;
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;  ///< the range excludes `lo`.
  std::vector<std::string> choices{};
  std::vector<std::string> excludes{};      ///< no effect when all of these are given.
  std::string needs{};                      ///< effect only when this flag's value
  std::vector<std::string> needs_values{};  ///< (given or default) is one of these.
  std::string bare{};                       ///< a bare flag's value; "" = it needs one.

  Flag min(double v) const { Flag f = *this; f.lo = v; return f; }
  Flag above(double v) const { Flag f = *this; f.lo = v; f.lo_open = true; return f; }
  Flag max(double v) const { Flag f = *this; f.hi = v; return f; }
  Flag one_of(std::vector<std::string> v) const { Flag f = *this; f.choices = v; return f; }
  Flag without(std::vector<std::string> v) const { Flag f = *this; f.excludes = v; return f; }
  Flag only_with(std::string flag, std::vector<std::string> v) const {
    Flag f = *this;
    f.needs = std::move(flag);
    f.needs_values = std::move(v);
    return f;
  }
  Flag bare_means(std::string v) const { Flag f = *this; f.bare = v; return f; }
};

/// Row makers: name, default ("" = none), help.
using Text = const char*;
Flag int_flag(Text name, Text dflt, Text help) { return {name, OptionType::kInt, dflt, help}; }
Flag num_flag(Text name, Text dflt, Text help) { return {name, OptionType::kDouble, dflt, help}; }
Flag str_flag(Text name, Text dflt, Text help) { return {name, OptionType::kString, dflt, help}; }
Flag switch_flag(Text name, Text help) { return {name, OptionType::kBool, "", help}; }

std::vector<Flag> cat(std::vector<Flag> a, const std::vector<Flag>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::string join(const std::vector<std::string>& items, const std::string& sep,
                 const std::string& last_sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += i + 1 == items.size() ? last_sep : sep;
    out += items[i];
  }
  return out;
}

/// "> 0", ">= 1", "in (0, 1]", or "" when the row declares no range. (Every
/// row with an upper bound has a lower one.)
std::string range_text(const Flag& f) {
  if (f.lo == -kInf) return "";
  char buf[64];
  if (f.hi == kInf) std::snprintf(buf, sizeof(buf), "%s %g", f.lo_open ? ">" : ">=", f.lo);
  else std::snprintf(buf, sizeof(buf), "in %c%g, %g]", f.lo_open ? '(' : '[', f.lo, f.hi);
  return buf;
}

std::string needs_text(const Flag& f) {
  return "only with --" + f.needs + " " + join(f.needs_values, "|", "|");
}
std::string excludes_text(const Flag& f) {
  return "no effect with --" + join(f.excludes, " and --", " and --");
}

/// A command's parsed flags (argv[2..]; argv[1] names the command), checked
/// against its table. Each flag is given at most once (`--opt` repeats),
/// switches take no value, and a value flag given bare is an error unless
/// its row says what bare means. Values are type-, range- and choice-checked,
/// and `excludes`/`needs` relations are enforced; every rejection names the
/// command and the flag.
class Flags {
 public:
  Flags(std::string cmd, const std::vector<Flag>& table, int argc, char** argv)
      : cmd_(std::move(cmd)), table_(table) {
    for (int i = 2; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) fail("stray argument '" + token + "' (flags start with --)");
      const std::string name = token.substr(2);
      const Flag* f = find(name);
      if (f == nullptr) {
        std::vector<std::string> allowed;
        for (const Flag& row : table_) allowed.push_back("--" + row.name);
        std::sort(allowed.begin(), allowed.end());
        fail("unknown flag --" + name + " (allowed: " + join(allowed, ", ", ", ") + ")");
      }
      if (has(name) && name != "opt") fail("--" + name + " given more than once");
      const bool is_switch = f->type == OptionType::kBool;
      const bool valued = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
      if (is_switch && valued) {
        fail("--" + name + " is a switch and takes no value, got '" + argv[i + 1] + "'");
      }
      if (!is_switch && !valued && f->bare.empty()) fail("--" + name + " needs a value");
      const std::string value = is_switch ? "" : valued ? argv[++i] : f->bare;
      if (!is_switch && valued) check(*f, value);
      given_[name].push_back(value);
    }
    for (const Flag& f : table_) {
      if (!has(f.name)) continue;
      if (!f.excludes.empty() &&
          std::ranges::all_of(f.excludes, [this](const std::string& x) { return has(x); })) {
        fail("--" + f.name + " has " + excludes_text(f));
      }
      const std::string need = f.needs.empty() ? "" : str(f.needs);
      if (!f.needs.empty() && std::ranges::find(f.needs_values, need) == f.needs_values.end()) {
        fail("--" + f.name + " has no effect: " + f.needs + " '" + need + "' (" + needs_text(f) +
             ")");
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return given_.contains(name); }
  /// The given value, else the row's default ("" when it has none).
  [[nodiscard]] std::string str(const std::string& name) const {
    const auto it = given_.find(name);
    if (it != given_.end()) return it->second.back();
    const Flag* f = find(name);
    if (f == nullptr) throw std::logic_error(cmd_ + ": no flag --" + name + " in the table");
    return f->dflt;
  }
  [[nodiscard]] int integer(const std::string& name) const {
    return api::parse_int("--" + name, str(name));
  }
  [[nodiscard]] double real(const std::string& name) const {
    return api::parse_double("--" + name, str(name));
  }
  /// The --opt list, parsed.
  [[nodiscard]] api::Options options() const {
    return api::Options::parse(has("opt") ? given_.at("opt") : std::vector<std::string>{});
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::invalid_argument(cmd_ + ": " + msg);
  }
  [[nodiscard]] const Flag* find(const std::string& name) const {
    const auto it = std::ranges::find(table_, name, &Flag::name);
    return it == table_.end() ? nullptr : &*it;
  }
  void check(const Flag& f, const std::string& value) const {
    if (!f.choices.empty()) {
      if (std::ranges::find(f.choices, value) == f.choices.end()) {
        fail("--" + f.name + " must be " + join(f.choices, ", ", " or ") + ", got '" + value + "'");
      }
      return;
    }
    if (f.type != OptionType::kInt && f.type != OptionType::kDouble) return;
    const std::string what = cmd_ + ": --" + f.name;
    const double v = f.type == OptionType::kInt ? api::parse_int(what, value)
                                                : api::parse_double(what, value);
    const std::string range = range_text(f);
    if (!range.empty() && (!(f.lo_open ? v > f.lo : v >= f.lo) || !(v <= f.hi))) {
      fail("--" + f.name + " must be " + range + ", got '" + value + "'");
    }
  }

  std::string cmd_;
  const std::vector<Flag>& table_;
  std::map<std::string, std::vector<std::string>> given_;
};

/// Open an output file. \throws std::runtime_error "cannot open PATH".
std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  return os;
}

/// Write the requested observability artifacts (after the instrumented
/// work): `--obs-json` gets the aggregated metrics snapshot, `--trace` the
/// Chrome trace events of every thread that recorded.
void obs_write_outputs(const Flags& f) {
  for (const bool trace : {false, true}) {
    const std::string path = f.str(trace ? "trace" : "obs-json");
    if (path.empty()) continue;
    open_out(path) << (trace ? obs::trace_json() : obs::to_json(obs::snapshot())) << "\n";
    std::printf("wrote %s (%s)\n", path.c_str(),
                trace ? "Chrome trace: chrome://tracing or https://ui.perfetto.dev"
                      : "metrics snapshot");
  }
}

ubg::UbgInstance load(const Flags& f) {
  if (!f.has("in")) throw std::runtime_error("missing --in FILE");
  return io::load_instance(f.str("in"));
}

/// Print the registry enumeration (`--algo list`). The README algorithm
/// table is generated from exactly this output.
void print_algorithm_list() {
  const api::AlgorithmRegistry& reg = api::registry();
  std::printf("registered algorithms (%d):\n", reg.size());
  for (const std::string& name : reg.names()) {
    const api::AlgorithmInfo& info = reg.at(name).info();
    std::string opts;
    for (const api::OptionSpec& spec : info.options) {
      if (!opts.empty()) opts += ' ';
      opts += spec.key + "=" + spec.default_value;
    }
    if (opts.empty()) opts = "-";
    std::string caps;
    if (info.caps.dim2_only) caps += " dim2-only";
    if (info.accepts("k")) caps += " needs-k";
    if (!info.caps.uses_params) caps += " ignores-params";
    if (info.accepts("seed")) caps += " seeded";
    if (info.accepts("net")) caps += " distributed";
    if (caps.empty()) caps = " -";
    std::printf("  %-12s %s\n", name.c_str(), info.summary.c_str());
    std::printf("  %-12s   options: %s | caps:%s | ref: %s\n", "", opts.c_str(), caps.c_str(),
                info.reference.c_str());
  }
}

core::Params params_of(const Flags& f, double alpha) {
  const double eps = f.real("eps");
  return f.has("strict") ? core::Params::strict_params(eps, alpha)
                         : core::Params::practical_params(eps, alpha);
}

/// Resolve --algo/--strict/--distributed/--seed/--net/--loss/--threads into
/// one registry build. These checks read the algorithm's registry info, so
/// they live here and not in the flag tables. `opts` is the command's parsed
/// --opt list; the flag sugar is merged into it (an --opt value wins).
/// verify and route pass a `team`: one worker team for the command, sized by
/// --threads, else --opt threads=, else the default. The build borrows it and
/// measures nothing, and the command's own pass (stretch check, routing
/// trials) runs on it, so --threads counts even for a serial construction.
/// `command_uses_seed` is set by route, which seeds its trials, so the flag
/// is only a no-op — and rejected — when neither command nor algorithm reads it.
api::BuildResult build_topology(const ubg::UbgInstance& inst, const Flags& f, api::Options& opts,
                                std::optional<runtime::WorkerPool>* team = nullptr,
                                bool command_uses_seed = false) {
  if (team != nullptr) {
    const int threads = runtime::resolve_threads(f.has("threads") ? f.integer("threads")
                                                                  : opts.get_int("threads", 0));
    if (threads > 1) team->emplace(threads);
  }
  std::string algo = f.str("algo");
  if (f.has("distributed")) {
    if (f.has("algo") && algo != "relaxed-dist") {
      throw std::invalid_argument("--distributed conflicts with --algo " + algo);
    }
    algo = "relaxed-dist";
  }
  const api::AlgorithmInfo& info = api::registry().at(algo).info();
  if (f.has("strict") && !info.caps.uses_params) {
    throw std::invalid_argument("--strict has no effect: algorithm '" + algo +
                                "' ignores params");
  }
  if (f.has("seed") && !info.accepts("seed") && !command_uses_seed) {
    throw std::invalid_argument("--seed has no effect: algorithm '" + algo +
                                "' is deterministic");
  }
  if (f.has("seed") && !opts.has("seed") && info.accepts("seed")) opts.set("seed", f.str("seed"));
  for (const char* flag : {"net", "loss"}) {
    if (!f.has(flag)) continue;
    if (!info.accepts("net")) {
      throw std::invalid_argument(std::string("--") + flag + " has no effect: algorithm '" +
                                  algo + "' is not distributed");
    }
    if (!opts.has(flag)) opts.set(flag, f.str(flag));
  }
  // Results are bit-identical for every thread count.
  if (f.has("threads")) {
    const bool supported = info.accepts("threads");
    if (!supported && team == nullptr) {
      throw std::invalid_argument("--threads has no effect: algorithm '" + algo +
                                  "' has no parallel construction path");
    }
    if (supported && !opts.has("threads")) opts.set("threads", f.str("threads"));
  }
  runtime::WorkerPool* pool = team != nullptr && team->has_value() ? &**team : nullptr;
  return api::registry().build(
      algo, api::BuildRequest{inst, params_of(f, inst.config.alpha), opts, pool}, team == nullptr);
}

int cmd_gen(const Flags& f) {
  ubg::UbgConfig cfg;
  cfg.n = f.integer("n");
  cfg.alpha = f.real("alpha");
  cfg.dim = f.integer("dim");
  cfg.seed = static_cast<std::uint64_t>(f.integer("seed"));
  cfg.target_degree = f.real("target-degree");
  const std::string placement = f.str("placement");
  if (placement == "clustered") cfg.placement = ubg::Placement::kClustered;
  if (placement == "corridor") cfg.placement = ubg::Placement::kCorridor;
  std::unique_ptr<ubg::GrayZonePolicy> policy;
  const std::string pol = f.str("policy");
  if (pol == "never" || pol == "always") {
    policy = pol == "never" ? ubg::never_connect() : ubg::always_connect();
  } else if (pol == "prob") {
    policy = ubg::probabilistic(f.has("p") ? f.real("p") : 0.5, cfg.seed ^ 0xABCDULL);
  } else {
    policy = ubg::threshold(f.has("p") ? f.real("p") : 0.5 * (cfg.alpha + 1.0));
  }
  const ubg::UbgInstance inst = ubg::make_ubg(cfg, *policy);
  const std::string out = f.str("out");
  io::save_instance(out, inst);
  std::printf("wrote %s: n=%d, m=%d, policy=%s\n", out.c_str(), inst.g.n(), inst.g.m(),
              policy->name());
  return 0;
}

/// `--net-json FILE`: the adversarial-network fault report — the adversary
/// knobs the run parsed (numbers as parsed, not as typed, so the report is
/// valid JSON) plus every `net.*` metric the run recorded (physical frame
/// counters, protocol retries/timeouts, the delivery-latency histogram).
/// Built from the obs snapshot, so it works through the registry without
/// widening BuildResult. `opts` is the build's option map, sugar merged.
void write_net_json(const api::Options& opts, const std::string& path) {
  obs::Snapshot snap = obs::snapshot();
  const auto not_net = [](const auto& metric) { return metric.first.rfind("net.", 0) != 0; };
  std::erase_if(snap.counters, not_net);
  std::erase_if(snap.gauges, not_net);
  std::erase_if(snap.histograms, not_net);
  snap.spans.clear();
  const std::string metrics = obs::to_json(snap);  // "{\n  \"enabled\": ..."
  std::ofstream os = open_out(path);
  os.precision(17);  // %.17g: every parsed knob round-trips.
  os << "{\n  \"command\": \"span\",\n  \"net\": \"async\",\n  \"adversary\": {\n";
  for (const char* knob : {"loss", "dup", "reorder", "straggle"}) {
    os << "    \"" << knob << "\": " << opts.get_double(knob, 0.0) << ",\n";
  }
  os << "    \"partition\": \"" << io::json_escape(opts.get_string("partition", "")) << "\",\n";
  os << "    \"net_seed\": " << opts.get_int("net-seed", 1) << ",\n";
  os << "    \"retries\": " << opts.get_int("retries", 24) << "\n  },\n";
  os << metrics.substr(2);
  std::printf("wrote %s (adversarial-network fault report)\n", path.c_str());
}

int cmd_span(const Flags& f) {
  api::Options opts = f.options();
  if (f.has("net-json")) {
    if (f.str("net") != "async" && opts.get_string("net", "sync") != "async") {
      throw std::invalid_argument(
          "--net-json has no effect without --net async (there is no fault activity to report)");
    }
    obs::set_enabled(true);  // the report reads the net.* metrics.
  }
  const ubg::UbgInstance inst = load(f);
  const api::BuildResult result = build_topology(inst, f, opts);
  // Print a stretch bound only when the algorithm actually declares one —
  // 1+eps is meaningless for, say, the MST row.
  char bound[32] = "";
  if (result.guarantees.stretch > 0.0) {
    std::snprintf(bound, sizeof(bound), " (bound %.2f)", result.guarantees.stretch);
  }
  std::printf("spanner: %d -> %d edges, stretch %.4f%s, maxdeg %d, lightness %.3f, %.1f ms\n",
              inst.g.m(), result.spanner.m(), result.metrics.stretch, bound,
              result.metrics.max_degree, result.metrics.lightness, 1e3 * result.seconds);
  std::printf("declared: %s\n", result.guarantees.describe().c_str());
  for (const api::PhaseCost& pc : result.phase_breakdown) {
    std::printf("  phase %-16s x%-6lld %8.2f ms\n", pc.name.c_str(),
                static_cast<long long>(pc.count), 1e3 * pc.seconds);
  }
  obs_write_outputs(f);
  if (f.has("net-json")) write_net_json(opts, f.str("net-json"));
  const std::string violation = api::check_guarantees(inst, result);
  if (!violation.empty()) {
    std::fprintf(stderr, "declared-guarantee violation: %s\n", violation.c_str());
    return 1;
  }
  if (f.has("out-dot")) {
    const std::string dot = f.str("out-dot");
    std::ofstream os = open_out(dot);
    io::write_dot(os, inst, inst.g, &result.spanner);
    std::printf("wrote %s (render: neato -n2 -Tpng %s -o out.png)\n", dot.c_str(), dot.c_str());
  }
  if (f.has("out-csv")) {
    const std::string csv = f.str("out-csv");
    std::ofstream os = open_out(csv);
    io::write_edge_csv(os, result.spanner);
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}

int cmd_verify(const Flags& f) {
  const ubg::UbgInstance inst = load(f);
  api::Options opts = f.options();
  std::optional<runtime::WorkerPool> pool;
  const api::BuildResult result = build_topology(inst, f, opts, &pool);
  // Transformed-metric algorithms (energy) must be verified against the same
  // reweighted reference graph their guarantees and metrics are stated in.
  if (result.metric_reference) {
    std::printf("verifying in the algorithm's transformed metric (reweighted reference)\n");
  }
  const core::VerificationReport rep =
      core::certify(result.metric_reference ? *result.metric_reference : inst.g, result.spanner,
                    {}, 1.0 + f.real("eps"), {}, {}, pool ? &*pool : nullptr);
  std::printf("%s\n", rep.summary().c_str());
  obs_write_outputs(f);
  return rep.ok() ? 0 : 1;
}

int cmd_route(const Flags& f) {
  const ubg::UbgInstance inst = load(f);
  if (inst.config.dim != 2) throw std::runtime_error("route: geometric routing demo expects dim=2");
  api::Options opts = f.options();
  std::optional<runtime::WorkerPool> pool;
  const api::BuildResult result = build_topology(inst, f, opts, &pool, /*command_uses_seed=*/true);
  const int trials = f.integer("trials");
  const auto seed = static_cast<std::uint64_t>(f.integer("seed"));
  // One warmed workspace and the build's pool serve both topologies: the
  // second evaluation reuses the first one's buffers, and a pool parallelizes
  // the per-trial Dijkstras without changing the accepted-trial sequence.
  graph::DijkstraWorkspace ws(inst.g.n());
  graph::CsrView csr;
  for (const auto& [name, topo] : {std::pair<const char*, const graph::Graph*>{"max power", &inst.g},
                                   {"spanner", &result.spanner}}) {
    csr.assign(*topo);
    const route::RoutingStats st = route::evaluate_routing(
        inst, csr, route::Forwarding::kGreedy, trials, seed, ws, pool ? &*pool : nullptr);
    std::printf("%-10s greedy routing: delivery %.1f%%, mean stretch %.3f, mean hops %.1f\n",
                name, 100.0 * st.delivery_rate, st.mean_route_stretch, st.mean_hops);
  }
  obs_write_outputs(f);
  return 0;
}

int cmd_trace(const Flags& f) {
  const ubg::UbgInstance inst = load(f);
  const auto seed = static_cast<std::uint64_t>(f.integer("seed"));
  const std::string model = f.str("model");
  dynamic::ChurnTrace trace;
  if (model == "poisson") {
    dynamic::PoissonChurnConfig cfg;
    cfg.events = f.integer("events");
    cfg.rate = f.real("rate");
    cfg.join_fraction = f.real("join-frac");
    cfg.seed = seed;
    trace = dynamic::poisson_churn(inst, cfg);
  } else if (model == "waypoint") {
    dynamic::WaypointConfig cfg;
    cfg.movers = f.integer("movers");
    cfg.speed = f.real("speed");
    cfg.sample_dt = f.real("dt");
    cfg.duration = f.real("duration");
    cfg.seed = seed;
    trace = dynamic::random_waypoint(inst, cfg);
  } else {
    dynamic::RegionalFailureConfig cfg;
    cfg.radius = f.real("radius");
    cfg.fail_time = f.real("fail-time");
    cfg.rejoin = !f.has("no-rejoin");
    cfg.rejoin_time = f.has("rejoin-time") ? f.real("rejoin-time") : 2.0 * cfg.fail_time;
    cfg.seed = seed;
    trace = dynamic::regional_failure(inst, cfg);
  }
  const std::string check = dynamic::validate_trace(trace, inst);
  if (!check.empty()) {
    throw std::runtime_error("trace: generated trace failed validation: " + check);
  }
  const std::string out = f.str("out");
  io::save_trace(out, trace);
  const auto count = [&trace](dynamic::EventKind kind) {
    return std::ranges::count(trace.events, kind, &dynamic::ChurnEvent::kind);
  };
  std::printf("wrote %s: model=%s, %zu events (%td joins, %td leaves, %td moves)\n", out.c_str(),
              model.c_str(), trace.events.size(), count(dynamic::EventKind::kJoin),
              count(dynamic::EventKind::kLeave), count(dynamic::EventKind::kMove));
  return 0;
}

/// What `dynamic` and `serve` share before they build the engine.
struct DynamicSetup {
  ubg::UbgInstance inst;
  dynamic::ChurnTrace trace;
  core::Params params;
  dynamic::DynamicOptions opts;  ///< --check and --threads applied.
};

/// Enable obs if asked, then load the instance and churn trace. Demo mode:
/// with no --in, generate an instance in place (and with no --churn, a
/// poisson trace over it) so the whole pipeline runs with zero input files.
/// \throws std::runtime_error "<cmd>: invalid trace: ..." when the trace does
/// not replay on the instance.
DynamicSetup dynamic_setup(const Flags& f, const char* cmd) {
  DynamicSetup s;
  if (f.has("in")) {
    s.inst = load(f);
  } else {
    ubg::UbgConfig cfg;
    cfg.n = f.integer("n");
    cfg.alpha = 0.75;
    cfg.dim = 2;
    cfg.seed = static_cast<std::uint64_t>(f.integer("seed"));
    s.inst = ubg::make_ubg(cfg, *ubg::always_connect());
    std::printf("demo instance: n=%d, m=%d (no --in given)\n", s.inst.g.n(), s.inst.g.m());
  }
  if (f.has("churn")) {
    s.trace = io::load_trace(f.str("churn"));
  } else {
    dynamic::PoissonChurnConfig cfg;
    cfg.events = f.integer("events");
    cfg.seed = static_cast<std::uint64_t>(f.integer("seed"));
    s.trace = dynamic::poisson_churn(s.inst, cfg);
    std::printf("demo churn: %zu poisson events (no --churn given)\n", s.trace.events.size());
  }
  const std::string invalid = dynamic::validate_trace(s.trace, s.inst);
  if (!invalid.empty()) throw std::runtime_error(std::string(cmd) + ": invalid trace: " + invalid);
  s.params = params_of(f, s.inst.config.alpha);
  const std::string check = f.str("check");
  s.opts.check = check == "off"    ? dynamic::CheckLevel::kOff
                 : check == "full" ? dynamic::CheckLevel::kFull
                                   : dynamic::CheckLevel::kLocal;
  s.opts.threads = f.integer("threads");
  return s;
}

/// The churn-window loop of `dynamic --batch` and `serve`'s writer: feed
/// `events` to apply_batch in windows of `batch`, hand each window's stats
/// to `on_window` (windows numbered from 1), and return the total repair
/// time of all windows.
using WindowHook = std::function<void(int window, const dynamic::BatchStats&)>;
double run_windows(dynamic::DynamicSpanner& engine, std::span<const dynamic::ChurnEvent> events,
                   int batch, const WindowHook& on_window) {
  const auto width = static_cast<std::size_t>(batch);
  double seconds = 0.0;
  int window = 0;
  for (std::size_t i = 0; i < events.size(); i += width) {
    const dynamic::BatchStats st =
        engine.apply_batch(events.subspan(i, std::min(width, events.size() - i)));
    seconds += st.seconds;
    on_window(++window, st);
  }
  return seconds;
}

int cmd_dynamic(const Flags& f) {
  auto [inst, trace, params, opts] = dynamic_setup(f, "dynamic");
  opts.always_full_recompute = f.has("baseline-full");
  const bool quiet = f.has("quiet");
  const int batch = f.integer("batch");

  dynamic::DynamicSpanner engine(std::move(inst), params, opts);
  std::printf("initial: n=%d live, %d UBG edges, %d spanner edges (%s repair, check=%s)\n",
              engine.active_count(), engine.instance().g.m(), engine.spanner().m(),
              opts.always_full_recompute ? "full-recompute" : "incremental",
              f.str("check").c_str());
  std::string rows;  // --out-json's per-event records.
  if (batch > 1) {
    // Windowed ingestion: each window is coalesced, partitioned into disjoint
    // dirty regions, repaired (in parallel across regions when --threads > 1)
    // and certified once.
    long long regions = 0;
    long long ball_union = 0;
    int windows = 0;
    int fallbacks = 0;
    const double total_seconds =
        run_windows(engine, trace.events, batch, [&](int window, const dynamic::BatchStats& st) {
          regions += st.regions;
          ball_union += st.ball_union;
          windows = window;
          if (st.fell_back) ++fallbacks;
          if (quiet) return;
          std::printf(
              "window %-4d %3d events -> %2d regions (%d merged), |balls|=%-5d scope=%-5d "
              "+%d/-%d edges  %.2f ms%s\n",
              window, st.events, st.regions, st.merged_events, st.ball_union, st.certify_scope,
              st.spanner_edges_added, st.spanner_edges_removed, 1e3 * st.seconds,
              st.fell_back ? "  [fallback]"
                           : (st.check_ran && !st.check_passed ? "  [CHECK FAILED]" : ""));
        });
    const double denom = std::max(total_seconds, 1e-12);
    std::printf(
        "\napplied %zu events in %d windows of <=%d in %.3f s (%.0f events/s, "
        "%.2f regions/window, mean ball union %.1f, %d fallbacks)\n",
        trace.events.size(), windows, batch, total_seconds,
        static_cast<double>(trace.events.size()) / denom,
        static_cast<double>(regions) / std::max(windows, 1),
        static_cast<double>(ball_union) / std::max(windows, 1), fallbacks);
  } else {
    double total_seconds = 0.0;
    long long balls = 0;
    int fallbacks = 0;
    for (const dynamic::ChurnEvent& ev : trace.events) {
      const dynamic::RepairStats st = engine.apply(ev);
      total_seconds += st.seconds;
      balls += st.ball_size;
      if (st.fell_back) ++fallbacks;
      if (!quiet) {
        std::printf("t=%-8.3f %-5s node=%-5d |ball|=%-5d |scope|=%-5d +%d/-%d edges  %.2f ms%s\n",
                    st.time, dynamic::to_string(st.kind), st.node, st.ball_size, st.certify_scope,
                    st.spanner_edges_added, st.spanner_edges_removed, 1e3 * st.seconds,
                    st.fell_back ? "  [fallback]" : (st.check_passed ? "" : "  [CHECK FAILED]"));
      }
      if (!f.has("out-json")) continue;
      char row[256];
      std::snprintf(row, sizeof(row),
                    "{\"t\": %.6f, \"kind\": \"%s\", \"node\": %d, \"ball\": %d, \"scope\": %d, "
                    "\"added\": %d, \"removed\": %d, \"fell_back\": %s, \"seconds\": %.6f}",
                    st.time, dynamic::to_string(st.kind), st.node, st.ball_size, st.certify_scope,
                    st.spanner_edges_added, st.spanner_edges_removed,
                    st.fell_back ? "true" : "false", st.seconds);
      rows += (rows.empty() ? "\n    " : ",\n    ") + std::string(row);
    }
    const std::size_t events = trace.events.size();
    std::printf(
        "\napplied %zu events in %.3f s (%.1f events/s, mean ball %.1f nodes, %d fallbacks)\n",
        events, total_seconds, static_cast<double>(events) / std::max(total_seconds, 1e-12),
        static_cast<double>(balls) / static_cast<double>(std::max<std::size_t>(1, events)),
        fallbacks);
  }
  std::printf("final: n=%d live, %d UBG edges, %d spanner edges\n", engine.active_count(),
              engine.instance().g.m(), engine.spanner().m());
  // Per-region distributions (the flat BatchStats sums these away): the obs
  // histograms keep every region's harvest cost and ball size.
  if (batch > 1 && obs::enabled()) {
    for (const auto& [name, h] : obs::snapshot().histograms) {
      if (name == "dyn.region_harvest_us") {
        std::printf("per-region harvest: %lld regions, p50=%.0f us, p99=%.0f us, max=%lld us\n",
                    static_cast<long long>(h.count), h.p50, h.p99, static_cast<long long>(h.max));
      } else if (name == "dyn.region_ball") {
        std::printf("per-region ball:    p50=%.0f, p99=%.0f, max=%lld nodes\n", h.p50, h.p99,
                    static_cast<long long>(h.max));
      }
    }
  }
  if (f.has("out-json")) {  // the table allows it only with --batch 1.
    open_out(f.str("out-json")) << "{\n  \"events\": [" << rows
                                << (rows.empty() ? "]\n" : "\n  ]\n") << "}\n";
    std::printf("wrote %s\n", f.str("out-json").c_str());
  }

  // Final audit, independent of the per-event and per-window checks.
  const core::VerificationReport rep =
      core::verify_spanner(engine.instance(), engine.spanner(), params.t);
  std::printf("final audit: %s\n", rep.summary().c_str());
  obs_write_outputs(f);
  return rep.ok() ? 0 : 1;
}

/// `serve`: the end-to-end query-serving demo (experiment E16). A writer
/// thread ingests churn windows through the dynamic engine, whose commit
/// hook republishes an immutable snapshot (frozen CSR + routing oracle)
/// after every window; R reader threads hammer distance/route queries
/// against whichever snapshot is current while the writer repairs the next
/// one. Exit code checks the served answers against exact Dijkstra on the
/// final snapshot: every estimate must be >= the true distance and within
/// the oracle's declared stretch bound.
int cmd_serve(const Flags& f) {
  auto [inst, trace, params, dopts] = dynamic_setup(f, "serve");
  const int batch = f.integer("batch");
  const int readers = f.integer("readers");
  const int queries = f.integer("queries");
  const auto seed = static_cast<std::uint64_t>(f.integer("seed"));
  const bool quiet = f.has("quiet");
  const int n0 = inst.g.n();
  if (n0 < 2) throw std::runtime_error("serve: need at least 2 nodes");

  dynamic::DynamicSpanner engine(std::move(inst), params, dopts);
  serve::QueryEngine qe(serve::ServeOptions{.threads = f.integer("threads")});
  qe.attach(engine);              // republish on every window commit...
  const std::uint64_t epoch0 = qe.publish(engine);  // ...and once for the initial build.
  {
    const serve::SnapshotStore::ReadGuard g0 = qe.store().acquire();
    std::printf(
        "serving: n=%d, %d spanner edges, oracle %d levels (%lld label entries, bound %.2f%s)\n",
        engine.active_count(), engine.spanner().m(), g0->oracle.levels(),
        static_cast<long long>(g0->oracle.total_label_entries()), g0->oracle.stretch_bound(),
        g0->oracle.truncated() ? ", truncated" : "");
  }

  // Reader threads: each owns a Reader (private workspace) and a
  // private latency log; results merge after the join so the hot loop has
  // no shared state at all.
  struct ReaderReport {
    std::vector<std::int64_t> lat_ns;
    long long oracle_answered = 0;
    long long exact_answered = 0;
    long long routed = 0;
    long long unreachable = 0;
    double seconds = 0.0;
    std::exception_ptr error;
  };
  std::vector<ReaderReport> reports(static_cast<std::size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  for (int k = 0; k < readers; ++k) {
    threads.emplace_back([&qe, &reports, k, n0, queries, seed] {
      ReaderReport& rep = reports[static_cast<std::size_t>(k)];
      try {
        const std::string label = "reader-" + std::to_string(k);
        obs::set_thread_label(label.c_str());
        serve::QueryEngine::Reader reader = qe.reader();
        std::mt19937_64 rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k + 1)));
        std::uniform_int_distribution<int> pick(0, n0 - 1);
        rep.lat_ns.reserve(static_cast<std::size_t>(queries));
        const auto t0 = std::chrono::steady_clock::now();
        for (int q = 0; q < queries; ++q) {
          const int s = pick(rng);
          int d = pick(rng);
          if (s == d) d = (d + 1) % n0;
          const auto q0 = std::chrono::steady_clock::now();
          if (q % 8 == 7) {
            const serve::QueryEngine::RouteAnswer a = reader.route(s, d);
            ++rep.routed;
            if (!a.reachable) ++rep.unreachable;
          } else {
            const serve::QueryEngine::DistanceAnswer a = reader.distance(s, d);
            if (a.via_oracle) ++rep.oracle_answered;
            else ++rep.exact_answered;
            if (a.distance == graph::kInf) ++rep.unreachable;
          }
          rep.lat_ns.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                   q0)
                  .count());
        }
        rep.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      } catch (...) {
        rep.error = std::current_exception();
      }
    });
  }

  // The writer: ingest churn windows while the readers run. Every
  // apply_batch commit fires the hook and flips the published snapshot.
  int windows = 0;
  const double churn_seconds =
      run_windows(engine, trace.events, batch, [&](int window, const dynamic::BatchStats& st) {
        windows = window;
        if (quiet) return;
        std::printf("window %-4d %3d events -> epoch %llu  %.2f ms\n", window, st.events,
                    static_cast<unsigned long long>(qe.store().current_epoch()), 1e3 * st.seconds);
      });
  for (std::thread& t : threads) t.join();
  for (const ReaderReport& rep : reports) {
    if (rep.error) std::rethrow_exception(rep.error);
  }

  // Merge the per-thread latency logs for exact percentiles.
  std::vector<std::int64_t> lat;
  long long oracle_answered = 0;
  long long exact_answered = 0;
  long long routed = 0;
  long long unreachable = 0;
  double slowest = 0.0;
  for (const ReaderReport& rep : reports) {
    lat.insert(lat.end(), rep.lat_ns.begin(), rep.lat_ns.end());
    oracle_answered += rep.oracle_answered;
    exact_answered += rep.exact_answered;
    routed += rep.routed;
    unreachable += rep.unreachable;
    slowest = std::max(slowest, rep.seconds);
  }
  std::sort(lat.begin(), lat.end());
  const auto pct = [&lat](double p) {
    if (lat.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(p * (static_cast<double>(lat.size()) - 1.0));
    return static_cast<double>(lat[idx]) / 1e3;  // ns -> us
  };
  const double qps = slowest > 0.0 ? static_cast<double>(lat.size()) / slowest : 0.0;
  std::printf(
      "\n%d readers x %d queries against live churn (%zu events, %d windows, %.3f s repair):\n",
      readers, queries, trace.events.size(), windows, churn_seconds);
  std::printf("  %.0f queries/s, latency p50=%.1f us p99=%.1f us max=%.1f us\n", qps, pct(0.50),
              pct(0.99), pct(1.0));
  std::printf("  %lld oracle-answered, %lld exact-fallback, %lld routed, %lld unreachable\n",
              oracle_answered, exact_answered, routed, unreachable);
  std::printf("  epochs: %llu published (initial %llu)\n",
              static_cast<unsigned long long>(qe.store().current_epoch()),
              static_cast<unsigned long long>(epoch0));

  // Exit-code audit: sample pairs on the final snapshot and check every
  // served distance against the exact one (route() is exact by construction,
  // so it doubles as the reference). The oracle may only overestimate, and
  // only up to its declared bound. The writer is done, so every answer
  // comes from the snapshot pinned here.
  serve::QueryEngine::Reader auditor = qe.reader();
  const serve::SnapshotStore::ReadGuard final_snap = auditor.pin();
  const double bound = final_snap->oracle.stretch_bound();
  const bool bound_holds = !final_snap->oracle.truncated();
  std::mt19937_64 rng(seed ^ 0xA5A5A5A5ULL);
  std::uniform_int_distribution<int> pick(0, n0 - 1);
  int audited = 0;
  int violations = 0;
  for (int i = 0; i < 256; ++i) {
    const int s = pick(rng);
    int d = pick(rng);
    if (s == d) d = (d + 1) % n0;
    const double est = auditor.distance(s, d).distance;
    const serve::QueryEngine::RouteAnswer exact = auditor.route(s, d);
    const double tol = 1e-9 * std::max(1.0, exact.distance);
    audited += exact.reachable ? 1 : 0;
    // Unreachable pairs must be served as unreachable (exact is kInf then).
    const bool bad = !exact.reachable ? est != graph::kInf
                                      : est < exact.distance - tol ||
                                            (bound_holds && est > bound * exact.distance + tol);
    if (bad && ++violations <= 5) {
      std::fprintf(stderr, "audit violation: d(%d,%d) served %.6f, exact %.6f (bound %.2f)\n", s,
                   d, est, exact.distance, bound);
    }
  }
  std::printf("final audit: %d pairs served within stretch bound %.2f -> %s\n", audited, bound,
              violations == 0 ? "PASS" : "FAIL");
  obs_write_outputs(f);
  return violations == 0 ? 0 : 1;
}

struct Command {
  const char* name;
  const char* summary;
  std::vector<Flag> flags;
  int (*run)(const Flags&);
};

/// The flag tables. Rows shared by several commands are written once.
const std::vector<Command> kCommands = [] {
  const Flag eps = num_flag("eps", "0.5", "stretch slack: t = 1+eps").above(0);
  const Flag strict = switch_flag("strict", "theorem-faithful parameters, not the practical ones");
  const Flag threads = int_flag("threads", "0", "worker threads; 0 picks the default count").min(0);
  const Flag check = str_flag("check", "local", "certify after each repair")
                         .one_of({"off", "local", "full"});
  const std::vector<Flag> obs_flags = {
      str_flag("obs-json", "", "write the obs metrics snapshot (enables obs)"),
      str_flag("trace", "", "write a Chrome/Perfetto trace (enables obs)")};
  const std::vector<Flag> build = cat({
      str_flag("in", "", "instance file"), eps, strict,
      switch_flag("distributed", "shorthand for --algo relaxed-dist"),
      int_flag("seed", "1", "seed of seeded algorithms and of route's trials"),
      str_flag("algo", "relaxed", "registered algorithm, or 'list' to print them"),
      str_flag("opt", "", "algorithm option key=value (the one repeatable flag)"), threads},
      obs_flags);
  const std::vector<Flag> churn = cat({
      str_flag("in", "", "instance file (default: a demo instance of --n nodes)"),
      str_flag("churn", "", "churn trace (default: --events demo poisson events)"), eps, strict,
      int_flag("n", "2048", "demo instance nodes").min(1).without({"in"}),
      int_flag("events", "256", "demo churn events").min(0).without({"churn"}), threads,
      switch_flag("quiet", "no per-window or per-event lines")},
      obs_flags);
  const auto model = [](const Flag& f, const char* m) { return f.only_with("model", {m}); };
  return std::vector<Command>{
      {"gen", "write a random alpha-UBG instance", {
          int_flag("n", "256", "nodes").min(1),
          num_flag("alpha", "0.75", "edges sure up to alpha, gray zone up to 1").above(0).max(1),
          int_flag("dim", "2", "dimension").min(2).max(geom::kMaxDim),
          int_flag("seed", "1", "random seed"),
          num_flag("target-degree", "10", "expected degree").above(0),
          str_flag("placement", "uniform", "node placement")
              .one_of({"uniform", "clustered", "corridor"}),
          str_flag("policy", "always", "gray-zone edges")
              .one_of({"always", "never", "prob", "threshold"}),
          num_flag("p", "", "edge probability or cutoff (default 0.5, (alpha+1)/2)").min(0).max(1)
              .only_with("policy", {"prob", "threshold"}),
          str_flag("out", "network.lsi", "instance file to write")}, cmd_gen},
      {"span", "build a topology and check its declared guarantees", cat(build, {
          str_flag("out-dot", "", "write the spanner as Graphviz dot"),
          str_flag("out-csv", "", "write the spanner's edges as CSV"),
          str_flag("net", "", "transport of a distributed algorithm").one_of({"sync", "async"}),
          num_flag("loss", "", "async frame loss; more via --opt dup=, reorder=, straggle=, "
                               "partition=START:HEAL, net-seed=, retries="),
          str_flag("net-json", "", "write the fault report of a --net async run")}), cmd_span},
      {"verify", "build a topology and certify its stretch", build, cmd_verify},
      {"route", "greedy routing on the UBG and on the spanner (dim 2)",
       cat(build, {int_flag("trials", "200", "routing trials").min(1)}), cmd_route},
      {"trace", "write a churn trace for an instance (FILE.ctb: binary)", {
          str_flag("in", "", "instance file"),
          str_flag("model", "poisson", "churn model").one_of({"poisson", "waypoint", "failure"}),
          str_flag("out", "churn.json", "trace file to write"),
          int_flag("seed", "1", "random seed"),
          model(int_flag("events", "64", "events").min(0), "poisson"),
          model(num_flag("rate", "4", "events per unit time").above(0), "poisson"),
          model(num_flag("join-frac", "0.5", "share of joins").min(0).max(1), "poisson"),
          model(int_flag("movers", "8", "moving nodes").min(0), "waypoint"),
          model(num_flag("speed", "0.25", "distance per unit time").min(0), "waypoint"),
          model(num_flag("dt", "0.25", "sampling interval").above(0), "waypoint"),
          model(num_flag("duration", "8", "time span").min(0), "waypoint"),
          model(num_flag("radius", "1.5", "failure region radius").min(0), "failure"),
          model(num_flag("fail-time", "1", "time of the failure"), "failure"),
          model(switch_flag("no-rejoin", "failed nodes stay down"), "failure"),
          model(num_flag("rejoin-time", "", "rejoin time (default 2 x fail-time)")
                    .without({"no-rejoin"}), "failure")}, cmd_trace},
      {"dynamic", "replay churn with incremental repair, then audit the spanner", cat(churn, {
          check.without({"baseline-full"}),
          switch_flag("baseline-full", "recompute from scratch on every event"),
          int_flag("seed", "1", "seed of the demo instance and churn").without({"in", "churn"}),
          int_flag("batch", "1", "events per apply_batch window (1: per event)")
              .min(1).bare_means("64"),
          str_flag("out-json", "", "write per-event repair stats").only_with("batch", {"1"})}),
       cmd_dynamic},
      {"serve", "readers query published snapshots while churn windows republish", cat(churn, {
          check,
          int_flag("seed", "1", "seed of the demo input and of the queries"),
          int_flag("batch", "64", "events per churn window").min(1),
          int_flag("readers", "2", "reader threads").min(1),
          int_flag("queries", "2000", "queries per reader").min(1)}), cmd_serve},
  };
}();

/// The usage text, generated from the flag tables.
int usage() {
  std::fprintf(stderr,
               "usage: localspan_cli <command> [--flag VALUE | --switch]...\n"
               "Each flag is given at most once (--opt repeats); switches take no value.\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "%s: %s\n", c.name, c.summary);
    for (const Flag& f : c.flags) {
      std::string head = "--" + f.name;
      if (f.type != OptionType::kBool) {
        head += f.choices.empty() ? std::string(" <") + api::to_string(f.type) + ">"
                                  : " " + join(f.choices, "|", "|");
      }
      std::vector<std::string> notes;
      if (!f.dflt.empty()) notes.push_back("default " + f.dflt);
      if (!f.bare.empty()) notes.push_back("bare: " + f.bare);
      if (const std::string range = range_text(f); !range.empty()) notes.push_back(range);
      if (!f.needs.empty()) notes.push_back(needs_text(f));
      if (!f.excludes.empty()) notes.push_back(excludes_text(f));
      std::string help = f.help;
      if (!notes.empty()) help += " (" + join(notes, "; ", "; ") + ")";
      std::fprintf(stderr, "  %-24s %s\n", head.c_str(), help.c_str());
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  obs::set_thread_label("main");
  const std::string name = argv[1];
  for (const Command& c : kCommands) {
    if (name != c.name) continue;
    try {
      const Flags f(c.name, c.flags, argc, argv);
      if (f.has("algo") && f.str("algo") == "list") {
        print_algorithm_list();
        return 0;
      }
      // --obs-json/--trace turn obs on before any instrumented work.
      if (f.has("obs-json") || f.has("trace")) obs::set_enabled(true);
      return c.run(f);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      return 1;
    }
  }
  return usage();
}
