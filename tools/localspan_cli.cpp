/// localspan command-line tool: generate, span, verify, route, trace, churn,
/// and query serving.
///
///   localspan_cli gen  --n 512 --alpha 0.75 --dim 2 --seed 7 --out net.lsi
///   localspan_cli span --in net.lsi --eps 0.5 --algo relaxed [--opt k=9 ...]
///                      [--strict] [--out-dot spanner.dot] [--out-csv spanner.csv]
///   localspan_cli span --algo list            # enumerate the registry
///   localspan_cli verify --in net.lsi --eps 0.5 [--algo NAME]
///   localspan_cli route --in net.lsi --eps 0.5 --trials 200 [--algo NAME]
///   localspan_cli trace --in net.lsi --model poisson --events 64 --out churn.json
///   localspan_cli dynamic --in net.lsi --churn churn.json --eps 0.5
///   localspan_cli dynamic --batch --threads 4 --trace out.json --obs-json stats.json
///   localspan_cli serve --readers 4 --queries 5000 --eps 0.5 --obs-json stats.json
///
/// Every construction goes through the api::AlgorithmRegistry — `--algo`
/// picks any registered algorithm, `--opt key=value` (repeatable) passes
/// algorithm options, and `--algo list` prints the full self-description.
/// Unknown flags and unknown algorithm options are usage errors.
/// Exit code 0 on success / verification pass, 1 otherwise.
///
/// Observability: `--obs-json FILE` (metrics snapshot) and `--trace FILE`
/// (Chrome trace events, loadable in chrome://tracing or Perfetto) on
/// span/verify/dynamic flip the obs layer on for the run. `dynamic` with no
/// `--in` generates a demo instance (and with no `--churn` a demo poisson
/// trace), so the observability pipeline can be exercised with no files.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
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

/// Tiny flag parser: --key value pairs, boolean --key switches, repeatable
/// flags. Every token must be a flag or a flag's value; each command then
/// declares its allowed flag set and anything else is a usage error
/// (mirroring the BuildRequest unknown-option rejection).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("stray argument '" + key + "' (flags start with --)");
      }
      key = key.substr(2);
      if (key.empty()) throw std::invalid_argument("empty flag '--'");
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        kv_[key].push_back(argv[++i]);
      } else {
        kv_[key].push_back("1");
      }
    }
  }

  /// Reject flags outside `allowed`. \throws std::invalid_argument naming
  /// the unknown flag and the command's flag set.
  void require_known(const std::string& cmd, const std::set<std::string>& allowed) const {
    for (const auto& [key, values] : kv_) {
      if (!allowed.contains(key)) {
        std::string known;
        for (const std::string& a : allowed) {
          if (!known.empty()) known += ", --";
          known += a;
        }
        throw std::invalid_argument(cmd + ": unknown flag --" + key + " (allowed: --" + known +
                                    ")");
      }
      static_cast<void>(values);
    }
  }

  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second.back();
  }
  [[nodiscard]] int get_int(const std::string& key, int dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : api::parse_int("--" + key, it->second.back());
  }
  [[nodiscard]] double get_double(const std::string& key, double dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : api::parse_double("--" + key, it->second.back());
  }
  [[nodiscard]] bool has(const std::string& key) const { return kv_.contains(key); }
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? std::vector<std::string>{} : it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> kv_;
};

/// Flags shared by every command that builds a topology via the registry.
const std::set<std::string> kBuildFlags{"in",   "eps", "strict",  "distributed", "seed",
                                        "algo", "opt", "threads", "obs-json",    "trace"};

/// `--obs-json`/`--trace` imply observability for the run; call before any
/// instrumented work so every probe records.
void obs_enable_if_requested(const Args& args) {
  if (args.has("obs-json") || args.has("trace")) obs::set_enabled(true);
}

/// Write the requested observability artifacts (after the instrumented
/// work): `--obs-json` gets the aggregated metrics snapshot, `--trace` the
/// Chrome trace events of every thread that recorded.
void obs_write_outputs(const Args& args) {
  const std::string obs_path = args.get("obs-json", "");
  if (!obs_path.empty()) {
    std::ofstream os(obs_path);
    if (!os) throw std::runtime_error("cannot open " + obs_path);
    os << obs::to_json(obs::snapshot()) << "\n";
    std::printf("wrote %s (metrics snapshot)\n", obs_path.c_str());
  }
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) throw std::runtime_error("cannot open " + trace_path);
    os << obs::trace_json() << "\n";
    std::printf("wrote %s (Chrome trace: chrome://tracing or https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
}

std::set<std::string> with_build_flags(std::set<std::string> extra) {
  extra.insert(kBuildFlags.begin(), kBuildFlags.end());
  return extra;
}

int usage() {
  std::fprintf(stderr,
               "usage: localspan_cli <gen|span|verify|route|trace|dynamic|serve> [--flags]\n"
               "  gen     --n N --alpha A --dim D --seed S [--placement uniform|clustered|corridor]\n"
               "          [--policy always|never|prob|threshold] [--p P] [--target-degree K]\n"
               "          --out FILE\n"
               "  span    --in FILE --eps E [--algo NAME|list] [--opt k=v ...] [--strict]\n"
               "          [--distributed] [--seed S] [--threads N] [--out-dot FILE] [--out-csv FILE]\n"
               "          [--net sync|async] [--loss P] [--net-json FILE]\n"
               "          (--net async runs distributed algorithms on the adversarial event-queue\n"
               "          transport; fault knobs via --loss or --opt dup=/reorder=/straggle=/\n"
               "          partition=START:HEAL/net-seed=/retries=; --net-json writes the fault report)\n"
               "  verify  --in FILE --eps E [--algo NAME|list] [--opt k=v ...] [--strict] [--threads N]\n"
               "  route   --in FILE --eps E [--algo NAME|list] [--opt k=v ...] [--trials T] [--seed S]\n"
               "          [--threads N]\n"
               "  trace   --in FILE --model poisson|waypoint|failure --out FILE[.ctb]\n"
               "          [--seed S] [--events K] [--rate R] [--join-frac F]     (poisson)\n"
               "          [--movers M] [--speed V] [--dt T] [--duration T]      (waypoint)\n"
               "          [--radius R] [--fail-time T] [--no-rejoin]            (failure)\n"
               "          [--rejoin-time T]                                     (failure)\n"
               "  dynamic [--in FILE] [--churn FILE] --eps E [--strict] [--check off|local|full]\n"
               "          [--baseline-full] [--batch [N]] [--threads N] [--quiet]\n"
               "          [--n N] [--events K] [--seed S] [--out-json FILE]\n"
               "          (--batch ingests N-event windows via apply_batch, N defaults to 64;\n"
               "          --threads T repairs disjoint regions of a window in parallel; with no\n"
               "          --in/--churn a demo instance of --n nodes and --events churn events runs)\n"
               "  serve   [--in FILE] [--churn FILE] --eps E [--strict] [--check off|local|full]\n"
               "          [--batch N] [--readers R] [--queries Q] [--threads N] [--quiet]\n"
               "          [--n N] [--events K] [--seed S]\n"
               "          (R reader threads serve distance/route queries from epoch-published\n"
               "          snapshots while churn windows repair and republish; same demo-mode\n"
               "          defaults as dynamic)\n"
               "observability (span/verify/route/dynamic/serve): --obs-json FILE writes the metrics\n"
               "  snapshot, --trace FILE writes a Chrome/Perfetto trace; either flag enables obs\n"
               "run 'localspan_cli span --algo list' to enumerate registered algorithms\n");
  return 1;
}

ubg::UbgInstance load(const Args& args) {
  const std::string path = args.get("in", "");
  if (path.empty()) throw std::runtime_error("missing --in FILE");
  return io::load_instance(path);
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

/// Resolve --algo/--strict/--distributed/--opt into one registry build.
/// `command_uses_seed` is set by commands that consume --seed themselves
/// (route seeds its trials), so the flag is only a no-op — and rejected —
/// when neither the command nor the algorithm reads it; `command_uses_threads`
/// likewise for commands with their own pool (route's trial evaluation,
/// verify's stretch pass), where --threads is meaningful even if the construction
/// algorithm is serial, and lends its `pool` to the build. Commands that
/// discard the quality metrics (verify, route) pass measure=false.
api::BuildResult build_topology(const ubg::UbgInstance& inst, const Args& args,
                                bool command_uses_seed = false, bool measure = true,
                                bool command_uses_threads = false,
                                runtime::WorkerPool* pool = nullptr) {
  std::string algo = args.get("algo", "relaxed");
  if (args.has("distributed")) {
    if (args.has("algo") && algo != "relaxed-dist") {
      throw std::invalid_argument("--distributed conflicts with --algo " + algo);
    }
    algo = "relaxed-dist";
  }
  const api::AlgorithmInfo& info = api::registry().at(algo).info();
  if (args.has("strict") && !info.caps.uses_params) {
    throw std::invalid_argument("--strict has no effect: algorithm '" + algo +
                                "' ignores params");
  }
  if (args.has("seed") && !info.accepts("seed") && !command_uses_seed) {
    throw std::invalid_argument("--seed has no effect: algorithm '" + algo +
                                "' is deterministic");
  }
  const double eps = args.get_double("eps", 0.5);
  const double alpha = inst.config.alpha;
  const core::Params params = args.has("strict") ? core::Params::strict_params(eps, alpha)
                                                 : core::Params::practical_params(eps, alpha);
  api::Options opts = api::Options::parse(args.get_all("opt"));
  // Back-compat sugar: --seed feeds seeded algorithms unless --opt seed= given.
  if (args.has("seed") && !opts.has("seed") && info.accepts("seed")) {
    opts.set("seed", args.get("seed", "1"));
  }
  // --net/--loss: sugar for --opt net=/loss=, only meaningful for
  // message-passing constructions (the registry validates the values and
  // rejects fault knobs under net=sync).
  for (const char* flag : {"net", "loss"}) {
    if (!args.has(flag)) continue;
    if (!info.accepts("net")) {
      throw std::invalid_argument(std::string("--") + flag + " has no effect: algorithm '" +
                                  algo + "' is not distributed");
    }
    if (!opts.has(flag)) opts.set(flag, args.get(flag, ""));
  }
  // --threads N: sugar for --opt threads=N, rejected when the algorithm has
  // no parallel path (LOCALSPAN_THREADS remains the env default for
  // algorithms that do). Results are bit-identical for every value.
  if (args.has("threads")) {
    const bool supported = info.accepts("threads");
    if (!supported && !command_uses_threads) {
      throw std::invalid_argument("--threads has no effect: algorithm '" + algo +
                                  "' has no parallel construction path");
    }
    if (supported && !opts.has("threads")) opts.set("threads", args.get("threads", "0"));
  }
  return api::registry().build(algo, api::BuildRequest{inst, params, std::move(opts), pool},
                               measure);
}

/// verify/route's thread count: --threads, else --opt threads=, else the default.
int command_threads(const Args& args) {
  if (args.has("threads")) return runtime::resolve_threads(args.get_int("threads", 0));
  return runtime::resolve_threads(api::Options::parse(args.get_all("opt")).get_int("threads", 0));
}

int cmd_gen(const Args& args) {
  args.require_known("gen", {"n", "alpha", "dim", "seed", "target-degree", "placement", "policy",
                             "p", "out"});
  ubg::UbgConfig cfg;
  cfg.n = args.get_int("n", 256);
  cfg.alpha = args.get_double("alpha", 0.75);
  cfg.dim = args.get_int("dim", 2);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.target_degree = args.get_double("target-degree", 10.0);
  const std::string placement = args.get("placement", "uniform");
  if (placement == "clustered") {
    cfg.placement = ubg::Placement::kClustered;
  } else if (placement == "corridor") {
    cfg.placement = ubg::Placement::kCorridor;
  } else if (placement != "uniform") {
    throw std::invalid_argument("--placement must be uniform, clustered or corridor, got '" +
                                placement + "'");
  }
  std::unique_ptr<ubg::GrayZonePolicy> policy;
  const std::string pol = args.get("policy", "always");
  if (pol == "never" || pol == "always") {
    if (args.has("p")) {
      throw std::invalid_argument("--p has no effect: policy '" + pol +
                                  "' takes no parameter (prob and threshold do)");
    }
    policy = pol == "never" ? ubg::never_connect() : ubg::always_connect();
  } else if (pol == "prob") {
    policy = ubg::probabilistic(args.get_double("p", 0.5), cfg.seed ^ 0xABCDULL);
  } else if (pol == "threshold") {
    policy = ubg::threshold(args.get_double("p", 0.5 * (cfg.alpha + 1.0)));
  } else {
    throw std::invalid_argument("--policy must be always, never, prob or threshold, got '" + pol +
                                "'");
  }
  const ubg::UbgInstance inst = ubg::make_ubg(cfg, *policy);
  const std::string out = args.get("out", "network.lsi");
  io::save_instance(out, inst);
  std::printf("wrote %s: n=%d, m=%d, policy=%s\n", out.c_str(), inst.g.n(), inst.g.m(),
              policy->name());
  return 0;
}

/// True when the request routes a distributed algorithm onto the async
/// transport (via --net async or --opt net=async).
bool net_async_requested(const Args& args) {
  if (args.get("net", "") == "async") return true;
  return api::Options::parse(args.get_all("opt")).get_string("net", "sync") == "async";
}

/// `--net-json FILE`: the adversarial-network fault report — the adversary
/// knobs the run parsed (numbers as parsed, not as typed, so the report is
/// valid JSON) plus every `net.*` metric the run recorded (physical frame
/// counters, protocol retries/timeouts, the delivery-latency histogram).
/// Built from the obs snapshot, so it works through the registry without
/// widening BuildResult.
void write_net_json(const Args& args, const std::string& path) {
  api::Options opts = api::Options::parse(args.get_all("opt"));
  // --loss is sugar for --opt loss=, which wins when both are given.
  if (args.has("loss") && !opts.has("loss")) opts.set("loss", args.get("loss", "0"));
  const auto number = [&](const char* key) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", opts.get_double(key, 0.0));
    return std::string(buf);
  };
  const obs::Snapshot snap = obs::snapshot();
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << "{\n  \"command\": \"span\",\n  \"net\": \"async\",\n  \"adversary\": {\n";
  os << "    \"loss\": " << number("loss") << ",\n";
  os << "    \"dup\": " << number("dup") << ",\n";
  os << "    \"reorder\": " << number("reorder") << ",\n";
  os << "    \"straggle\": " << number("straggle") << ",\n";
  os << "    \"partition\": \"" << io::json_escape(opts.get_string("partition", "")) << "\",\n";
  os << "    \"net_seed\": " << opts.get_int("net-seed", 1) << ",\n";
  os << "    \"retries\": " << opts.get_int("retries", 24) << "\n  },\n";
  const auto is_net = [](const std::string& name) { return name.rfind("net.", 0) == 0; };
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!is_net(name)) continue;
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!is_net(name)) continue;
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!is_net(name)) continue;
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": " << h.count
       << ", \"sum\": " << h.sum << ", \"max\": " << h.max << ", \"mean\": " << h.mean
       << ", \"p50\": " << h.p50 << ", \"p90\": " << h.p90 << ", \"p99\": " << h.p99 << "}";
    first = false;
  }
  os << "\n  }\n}\n";
  std::printf("wrote %s (adversarial-network fault report)\n", path.c_str());
}

int cmd_span(const Args& args) {
  args.require_known("span", with_build_flags({"out-dot", "out-csv", "net", "loss", "net-json"}));
  if (args.get("algo", "") == "list") {
    print_algorithm_list();
    return 0;
  }
  if (args.has("net-json")) {
    if (!net_async_requested(args)) {
      throw std::invalid_argument(
          "--net-json has no effect without --net async (there is no fault activity to report)");
    }
    obs::set_enabled(true);  // the report reads the net.* metrics.
  }
  obs_enable_if_requested(args);
  const ubg::UbgInstance inst = load(args);
  const api::BuildResult result = build_topology(inst, args);
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
  obs_write_outputs(args);
  const std::string net_json = args.get("net-json", "");
  if (!net_json.empty()) write_net_json(args, net_json);
  const std::string violation = api::check_guarantees(inst, result);
  if (!violation.empty()) {
    std::fprintf(stderr, "declared-guarantee violation: %s\n", violation.c_str());
    return 1;
  }
  const std::string dot = args.get("out-dot", "");
  if (!dot.empty()) {
    std::ofstream os(dot);
    io::write_dot(os, inst, inst.g, &result.spanner);
    std::printf("wrote %s (render: neato -n2 -Tpng %s -o out.png)\n", dot.c_str(), dot.c_str());
  }
  const std::string csv = args.get("out-csv", "");
  if (!csv.empty()) {
    std::ofstream os(csv);
    io::write_edge_csv(os, result.spanner);
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}

int cmd_verify(const Args& args) {
  args.require_known("verify", with_build_flags({}));
  if (args.get("algo", "") == "list") {
    print_algorithm_list();
    return 0;
  }
  obs_enable_if_requested(args);
  const ubg::UbgInstance inst = load(args);
  // One team for the command: the build borrows it, then the stretch pass.
  const int threads = command_threads(args);
  std::optional<runtime::WorkerPool> pool;
  if (threads > 1) pool.emplace(threads);
  const api::BuildResult result =
      build_topology(inst, args, /*command_uses_seed=*/false, /*measure=*/false,
                     /*command_uses_threads=*/true, pool ? &*pool : nullptr);
  const double eps = args.get_double("eps", 0.5);
  // Transformed-metric algorithms (energy) must be verified against the same
  // reweighted reference graph their guarantees and metrics are stated in.
  if (result.metric_reference) {
    std::printf("verifying in the algorithm's transformed metric (reweighted reference)\n");
  }
  const core::VerificationReport rep =
      core::certify(result.metric_reference ? *result.metric_reference : inst.g, result.spanner,
                    {}, 1.0 + eps, {}, {}, pool ? &*pool : nullptr);
  std::printf("%s\n", rep.summary().c_str());
  obs_write_outputs(args);
  return rep.ok() ? 0 : 1;
}

int cmd_route(const Args& args) {
  args.require_known("route", with_build_flags({"trials"}));
  if (args.get("algo", "") == "list") {
    print_algorithm_list();
    return 0;
  }
  obs_enable_if_requested(args);
  const ubg::UbgInstance inst = load(args);
  if (inst.config.dim != 2) {
    std::fprintf(stderr, "route: geometric routing demo expects dim=2\n");
    return 1;
  }
  const int threads = command_threads(args);
  std::optional<runtime::WorkerPool> pool;
  if (threads > 1) pool.emplace(threads);
  const api::BuildResult result =
      build_topology(inst, args, /*command_uses_seed=*/true, /*measure=*/false,
                     /*command_uses_threads=*/true, pool ? &*pool : nullptr);
  const int trials = args.get_int("trials", 200);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
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
  obs_write_outputs(args);
  return 0;
}

int cmd_trace(const Args& args) {
  args.require_known("trace", {"in", "model", "out", "seed", "events", "rate", "join-frac",
                               "movers", "speed", "dt", "duration", "radius", "fail-time",
                               "no-rejoin", "rejoin-time"});
  const ubg::UbgInstance inst = load(args);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string model = args.get("model", "poisson");
  dynamic::ChurnTrace trace;
  if (model == "poisson") {
    dynamic::PoissonChurnConfig cfg;
    cfg.events = args.get_int("events", 64);
    cfg.rate = args.get_double("rate", 4.0);
    cfg.join_fraction = args.get_double("join-frac", 0.5);
    cfg.seed = seed;
    trace = dynamic::poisson_churn(inst, cfg);
  } else if (model == "waypoint") {
    dynamic::WaypointConfig cfg;
    cfg.movers = args.get_int("movers", 8);
    cfg.speed = args.get_double("speed", 0.25);
    cfg.sample_dt = args.get_double("dt", 0.25);
    cfg.duration = args.get_double("duration", 8.0);
    cfg.seed = seed;
    trace = dynamic::random_waypoint(inst, cfg);
  } else if (model == "failure") {
    dynamic::RegionalFailureConfig cfg;
    cfg.radius = args.get_double("radius", 1.5);
    cfg.fail_time = args.get_double("fail-time", 1.0);
    cfg.rejoin = !args.has("no-rejoin");
    cfg.rejoin_time = args.get_double("rejoin-time", 2.0 * cfg.fail_time);
    cfg.seed = seed;
    trace = dynamic::regional_failure(inst, cfg);
  } else {
    std::fprintf(stderr, "trace: unknown model '%s'\n", model.c_str());
    return 1;
  }
  const std::string check = dynamic::validate_trace(trace, inst);
  if (!check.empty()) {
    std::fprintf(stderr, "trace: generated trace failed validation: %s\n", check.c_str());
    return 1;
  }
  const std::string out = args.get("out", "churn.json");
  io::save_trace(out, trace);
  int joins = 0;
  int leaves = 0;
  int moves = 0;
  for (const dynamic::ChurnEvent& ev : trace.events) {
    if (ev.kind == dynamic::EventKind::kJoin) ++joins;
    else if (ev.kind == dynamic::EventKind::kLeave) ++leaves;
    else ++moves;
  }
  std::printf("wrote %s: model=%s, %zu events (%d joins, %d leaves, %d moves)\n", out.c_str(),
              model.c_str(), trace.events.size(), joins, leaves, moves);
  return 0;
}

/// What `dynamic` and `serve` share before they build the engine.
struct DynamicSetup {
  ubg::UbgInstance inst;
  dynamic::ChurnTrace trace;
  core::Params params;
  dynamic::DynamicOptions opts;  ///< --check and --threads applied.
  std::string check;
};

/// Enable obs if asked, then load the instance and churn trace. Demo mode:
/// with no --in, generate an instance in place (and with no --churn, a
/// poisson trace over it) so the whole pipeline runs with zero input files.
/// A demo-mode size flag next to the file it would replace is a usage error.
/// Returns nullopt after printing "<cmd>: invalid trace: ..." when the trace
/// does not replay on the instance.
std::optional<DynamicSetup> dynamic_setup(const Args& args, const char* cmd) {
  for (const auto& [flag, file] : {std::pair{"n", "in"}, std::pair{"events", "churn"}}) {
    if (args.has(flag) && args.has(file)) {
      throw std::invalid_argument(std::string(cmd) + ": --" + flag + " has no effect with --" +
                                  file + " (no demo input is generated)");
    }
  }
  obs_enable_if_requested(args);
  DynamicSetup s;
  if (args.has("in")) {
    s.inst = load(args);
  } else {
    ubg::UbgConfig cfg;
    cfg.n = args.get_int("n", 2048);
    cfg.alpha = 0.75;
    cfg.dim = 2;
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    s.inst = ubg::make_ubg(cfg, *ubg::always_connect());
    std::printf("demo instance: n=%d, m=%d (no --in given)\n", s.inst.g.n(), s.inst.g.m());
  }
  const std::string churn_path = args.get("churn", "");
  if (!churn_path.empty()) {
    s.trace = io::load_trace(churn_path);
  } else {
    dynamic::PoissonChurnConfig cfg;
    cfg.events = args.get_int("events", 256);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    s.trace = dynamic::poisson_churn(s.inst, cfg);
    std::printf("demo churn: %zu poisson events (no --churn given)\n", s.trace.events.size());
  }
  const std::string invalid = dynamic::validate_trace(s.trace, s.inst);
  if (!invalid.empty()) {
    std::fprintf(stderr, "%s: invalid trace: %s\n", cmd, invalid.c_str());
    return std::nullopt;
  }
  const double eps = args.get_double("eps", 0.5);
  const double alpha = s.inst.config.alpha;
  s.params = args.has("strict") ? core::Params::strict_params(eps, alpha)
                                : core::Params::practical_params(eps, alpha);
  s.check = args.get("check", "local");
  if (s.check == "off") s.opts.check = dynamic::CheckLevel::kOff;
  else if (s.check == "full") s.opts.check = dynamic::CheckLevel::kFull;
  else if (s.check == "local") s.opts.check = dynamic::CheckLevel::kLocal;
  else throw std::runtime_error(std::string(cmd) + ": --check must be off|local|full");
  s.opts.threads = args.get_int("threads", 0);
  return s;
}

int cmd_dynamic(const Args& args) {
  args.require_known("dynamic", {"in", "churn", "eps", "strict", "check", "baseline-full",
                                 "quiet", "out-json", "batch", "threads",
                                 "obs-json", "trace", "n", "events", "seed"});
  if (args.has("seed") && args.has("in") && args.has("churn")) {
    throw std::invalid_argument(
        "dynamic: --seed has no effect with --in and --churn (nothing is generated)");
  }
  if (args.has("check") && args.has("baseline-full")) {
    throw std::invalid_argument(
        "dynamic: --check has no effect with --baseline-full (a full recompute is not certified)");
  }
  std::optional<DynamicSetup> setup = dynamic_setup(args, "dynamic");
  if (!setup) return 1;
  auto& [inst, trace, params, opts, check] = *setup;
  opts.always_full_recompute = args.has("baseline-full");
  const bool quiet = args.has("quiet");
  // `--batch` alone (no value) means "windowed, default width": the parser
  // stores "1" for valueless flags, and a 1-event window is the per-event
  // path anyway, so 1 promotes to the default width.
  int batch = args.get_int("batch", 1);
  if (batch < 1) throw std::runtime_error("dynamic: --batch must be >= 1");
  if (batch == 1 && args.has("batch")) batch = 64;
  if (batch > 1 && args.has("out-json")) {
    throw std::runtime_error("dynamic: --out-json records per-event stats; drop it or drop --batch");
  }

  dynamic::DynamicSpanner engine(std::move(inst), params, opts);
  std::printf("initial: n=%d live, %d UBG edges, %d spanner edges (%s repair, check=%s)\n",
              engine.active_count(), engine.instance().g.m(), engine.spanner().m(),
              opts.always_full_recompute ? "full-recompute" : "incremental", check.c_str());

  if (batch > 1) {
    // Windowed ingestion: each window is coalesced, partitioned into disjoint
    // dirty regions, repaired (in parallel across regions when --threads > 1)
    // and certified once.
    double total_seconds = 0.0;
    long long regions = 0;
    long long ball_union = 0;
    int windows = 0;
    int fallbacks = 0;
    for (std::size_t i = 0; i < trace.events.size(); i += static_cast<std::size_t>(batch)) {
      const std::size_t len =
          std::min<std::size_t>(static_cast<std::size_t>(batch), trace.events.size() - i);
      const dynamic::BatchStats st =
          engine.apply_batch(std::span<const dynamic::ChurnEvent>(trace.events.data() + i, len));
      total_seconds += st.seconds;
      regions += st.regions;
      ball_union += st.ball_union;
      ++windows;
      if (st.fell_back) ++fallbacks;
      if (!quiet) {
        std::printf(
            "window %-4d %3d events -> %2d regions (%d merged), |balls|=%-5d scope=%-5d "
            "+%d/-%d edges  %.2f ms%s\n",
            windows, st.events, st.regions, st.merged_events, st.ball_union, st.certify_scope,
            st.spanner_edges_added, st.spanner_edges_removed, 1e3 * st.seconds,
            st.fell_back ? "  [fallback]" : (st.check_ran && !st.check_passed ? "  [CHECK FAILED]"
                                                                              : ""));
      }
    }
    const double denom = std::max(total_seconds, 1e-12);
    std::printf(
        "\napplied %zu events in %d windows of <=%d in %.3f s (%.0f events/s, "
        "%.2f regions/window, mean ball union %.1f, %d fallbacks)\n",
        trace.events.size(), windows, batch, total_seconds,
        static_cast<double>(trace.events.size()) / denom,
        static_cast<double>(regions) / std::max(windows, 1),
        static_cast<double>(ball_union) / std::max(windows, 1), fallbacks);
    std::printf("final: n=%d live, %d UBG edges, %d spanner edges\n", engine.active_count(),
                engine.instance().g.m(), engine.spanner().m());
    // Per-region distributions (the flat BatchStats sums these away): the
    // obs histograms keep every region's harvest cost and ball size.
    if (obs::enabled()) {
      const obs::Snapshot snap = obs::snapshot();
      for (const auto& [name, h] : snap.histograms) {
        if (name == "dyn.region_harvest_us") {
          std::printf("per-region harvest: %lld regions, p50=%.0f us, p99=%.0f us, max=%lld us\n",
                      static_cast<long long>(h.count), h.p50, h.p99,
                      static_cast<long long>(h.max));
        } else if (name == "dyn.region_ball") {
          std::printf("per-region ball:    p50=%.0f, p99=%.0f, max=%lld nodes\n", h.p50, h.p99,
                      static_cast<long long>(h.max));
        }
      }
    }
    const core::VerificationReport rep =
        core::verify_spanner(engine.instance(), engine.spanner(), params.t);
    std::printf("final audit: %s\n", rep.summary().c_str());
    obs_write_outputs(args);
    return rep.ok() ? 0 : 1;
  }

  std::vector<dynamic::RepairStats> stats;
  stats.reserve(trace.events.size());
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
    stats.push_back(st);
  }

  const std::size_t count = std::max<std::size_t>(1, stats.size());
  std::printf(
      "\napplied %zu events in %.3f s (%.1f events/s, mean ball %.1f nodes, %d fallbacks)\n",
      stats.size(), total_seconds, static_cast<double>(stats.size()) / std::max(total_seconds, 1e-12),
      static_cast<double>(balls) / static_cast<double>(count), fallbacks);
  std::printf("final: n=%d live, %d UBG edges, %d spanner edges\n", engine.active_count(),
              engine.instance().g.m(), engine.spanner().m());

  const std::string out_json = args.get("out-json", "");
  if (!out_json.empty()) {
    std::ofstream os(out_json);
    if (!os) throw std::runtime_error("dynamic: cannot open " + out_json);
    os << "{\n  \"events\": [";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const dynamic::RepairStats& st = stats[i];
      os << (i ? ",\n    " : "\n    ");
      char row[256];
      std::snprintf(row, sizeof(row),
                    "{\"t\": %.6f, \"kind\": \"%s\", \"node\": %d, \"ball\": %d, \"scope\": %d, "
                    "\"added\": %d, \"removed\": %d, \"fell_back\": %s, \"seconds\": %.6f}",
                    st.time, dynamic::to_string(st.kind), st.node, st.ball_size, st.certify_scope,
                    st.spanner_edges_added, st.spanner_edges_removed,
                    st.fell_back ? "true" : "false", st.seconds);
      os << row;
    }
    os << (stats.empty() ? "]\n" : "\n  ]\n") << "}\n";
    std::printf("wrote %s\n", out_json.c_str());
  }

  // Final audit, independent of the per-event checks.
  const core::VerificationReport rep =
      core::verify_spanner(engine.instance(), engine.spanner(), params.t);
  std::printf("final audit: %s\n", rep.summary().c_str());
  obs_write_outputs(args);
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
int cmd_serve(const Args& args) {
  args.require_known("serve", {"in", "churn", "eps", "strict", "check", "n", "events", "seed",
                               "batch", "readers", "queries", "threads", "quiet", "obs-json",
                               "trace"});
  std::optional<DynamicSetup> setup = dynamic_setup(args, "serve");
  if (!setup) return 1;
  auto& [inst, trace, params, dopts, check] = *setup;
  int batch = args.get_int("batch", 64);
  if (batch < 1) throw std::runtime_error("serve: --batch must be >= 1");
  const int readers = args.get_int("readers", 2);
  if (readers < 1) throw std::runtime_error("serve: --readers must be >= 1");
  const int queries = args.get_int("queries", 2000);
  if (queries < 1) throw std::runtime_error("serve: --queries must be >= 1");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool quiet = args.has("quiet");
  const int n0 = inst.g.n();
  if (n0 < 2) throw std::runtime_error("serve: need at least 2 nodes");

  dynamic::DynamicSpanner engine(std::move(inst), params, dopts);
  serve::ServeOptions sopts;
  sopts.threads = args.get_int("threads", 0);
  serve::QueryEngine qe(sopts);
  qe.attach(engine);              // republish on every window commit...
  const std::uint64_t epoch0 = qe.publish(engine);  // ...and once for the initial build.
  {
    serve::QueryEngine::Reader r0 = qe.reader();
    const serve::SnapshotStore::ReadGuard g0 = r0.pin();
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
  double churn_seconds = 0.0;
  int windows = 0;
  for (std::size_t i = 0; i < trace.events.size(); i += static_cast<std::size_t>(batch)) {
    const std::size_t len =
        std::min<std::size_t>(static_cast<std::size_t>(batch), trace.events.size() - i);
    const dynamic::BatchStats st =
        engine.apply_batch(std::span<const dynamic::ChurnEvent>(trace.events.data() + i, len));
    churn_seconds += st.seconds;
    ++windows;
    if (!quiet) {
      std::printf("window %-4d %3zu events -> epoch %llu  %.2f ms\n", windows, len,
                  static_cast<unsigned long long>(qe.store().current_epoch()), 1e3 * st.seconds);
    }
  }
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
    const serve::QueryEngine::DistanceAnswer est = auditor.distance(s, d);
    const serve::QueryEngine::RouteAnswer exact = auditor.route(s, d);
    if (!exact.reachable) {
      if (est.distance != graph::kInf) {
        ++violations;
        if (violations <= 5) {
          std::fprintf(stderr, "audit violation: d(%d,%d) served %.6f but route unreachable\n", s,
                       d, est.distance);
        }
      }
      continue;
    }
    ++audited;
    const bool too_small = est.distance < exact.distance - 1e-9 * std::max(1.0, exact.distance);
    const bool too_big =
        bound_holds && est.distance > bound * exact.distance + 1e-9 * std::max(1.0, exact.distance);
    if (too_small || too_big) {
      ++violations;
      if (violations <= 5) {
        std::fprintf(stderr, "audit violation: d(%d,%d) served %.6f, exact %.6f (bound %.2f)\n", s,
                     d, est.distance, exact.distance, bound);
      }
    }
  }
  std::printf("final audit: %d pairs served within stretch bound %.2f -> %s\n", audited, bound,
              violations == 0 ? "PASS" : "FAIL");
  obs_write_outputs(args);
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  obs::set_thread_label("main");
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "span") return cmd_span(args);
    if (cmd == "verify") return cmd_verify(args);
    if (cmd == "route") return cmd_route(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "dynamic") return cmd_dynamic(args);
    if (cmd == "serve") return cmd_serve(args);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return usage();
}
