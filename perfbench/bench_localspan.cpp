/// bench_localspan — the repository's end-to-end performance benchmark.
///
///   bench_localspan --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick]
///
/// Each workload drives the same public calls, in the same order, as the
/// matching `localspan_cli` command, on inputs made from --seed with
/// ubg::make_ubg and dynamic::poisson_churn and written to a scratch
/// directory under .bench_out/. It measures for --seconds, checks every
/// output, prints every metric with its unit and sample count, and ends with
/// one JSON line: {"correct", "attempted", "failed", "metrics"}.
///
/// Workloads (2-d, alpha 0.75, eps 0.5, Params::practical_params; every call
/// pins its thread count, and obs is off outside the traced pass):
///   span   `span` then `verify` on a uniform instance, 1 thread.
///   route  `route` on a uniform instance, 1 thread; one 2-thread command
///          afterwards must give the same spanner and routing stats.
///   churn  `dynamic`: per-event DynamicSpanner::apply over Poisson churn,
///          1 thread, then the final audit.
///   serve  `serve`: open loop, a 32-event apply_batch window every 500 ms
///          (1 writer thread) beside 2 readers at 2,500 queries/s each
///          (7 distance : 1 route), then the 256-pair served-vs-exact audit.
///   dist   `span --algo relaxed-dist --net async --loss 0.1`, 1 thread.
///
/// End-to-end metrics, reported with --trace 0. The unit of work, "op", is
/// one span+verify pair, one route command, one churn event, one serve
/// window (due time to published snapshot), or one relaxed-dist command:
///   setup_s      median set-up: make and write the inputs, load them, and
///                build the initial state (dynamic engine, first published
///                snapshot) where the workload has one.
///   op_p50_ms    median op latency.
///   peak_rss_mb  ru_maxrss of the process after the measured ops.
///   lightness    w(spanner)/w(MSF) of the workload's output topology.
/// Times are scaled by the host's measured speed (HostSpeed below).
///
/// --trace 1 runs the workload twice for --seconds/2 each: untraced, then
/// with bench-side spans and the library's obs layer on. It writes a Chrome
/// trace and a layer table (inclusive and self time per span, plus an
/// `unattributed` row) to .bench_out/, and reports the per-layer metrics,
/// including trace_overhead_pct from the two passes.
///
/// --quick runs the same workloads and checks on small instances
/// (n <= 2048) for 1 s each, as a smoke test.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/spanner_algorithm.hpp"
#include "core/verify.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/metrics.hpp"
#include "graph/sp_workspace.hpp"
#include "io/serialize.hpp"
#include "io/trace_io.hpp"
#include "obs/obs.hpp"
#include "route/routing.hpp"
#include "runtime/parallel.hpp"
#include "runtime/reliable.hpp"
#include "serve/query_engine.hpp"
#include "span_recorder.hpp"
#include "ubg/generator.hpp"

using namespace localspan;
using perfbench::emit;
using perfbench::now_ns;
using perfbench::Scope;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kAlpha = 0.75;
constexpr double kEps = 0.5;
// An untraced run sets up at least kMinSetups times and until kSetupBudgetS
// has passed, at most kMaxSetups times; setup_s is the median. A set-up
// takes from 8 ms (span, dist) to 0.3 s (serve); repeating the short ones
// for a fixed time spreads them over more of the host's fast and slow
// spells than five back-to-back set-ups did.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 400;
constexpr double kSetupBudgetS = 1.5;
constexpr int kMinCommands = 3;    ///< whole commands per pass, however slow.

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names, units and order must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"lightness", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.self_pct", "%"},
    {"io.self_pct", "%"},
    {"api.construct_pct", "%"},
    {"api.measure_pct", "%"},
    {"api.check_pct", "%"},
    {"core.verify_pct", "%"},
    {"route.evaluate_pct", "%"},
    {"dyn.init_pct", "%"},
    {"dyn.apply_pct", "%"},
    {"serve.publish_pct", "%"},
    {"serve.query_pct", "%"},
    {"serve.writer_idle_pct", "%"},
    {"bench.self_pct", "%"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
    {"rg.bins_pct", "%"},
    {"rg.phase0_pct", "%"},
    {"rg.cover_pct", "%"},
    {"rg.filter_pct", "%"},
    {"rg.select_pct", "%"},
    {"rg.cluster_graph_pct", "%"},
    {"rg.queries_pct", "%"},
    {"rg.redundancy_pct", "%"},
    {"rg.accept_ratio", "ratio"},
    {"rg.heap_pops_per_op", "count"},
    {"cover.waste_ratio", "ratio"},
    {"pool.idle_frac", "ratio"},
    {"pool.dispatches", "count"},
    {"pool.tasks", "count"},
    {"pool.speedup", "ratio"},
    {"net.rounds_per_op", "count"},
    {"net.messages_per_op", "count"},
    {"net.async.posted_per_op", "count"},
    {"net.async.retries_per_op", "count"},
    {"net.async.overhead", "ratio"},
    {"route.delivery", "ratio"},
    {"dyn.ball_mean", "nodes"},
    {"dyn.certify_scope_mean", "nodes"},
    {"dyn.change_ratio", "ratio"},
    {"dyn.fallbacks", "count"},
    {"dyn.regions_mean", "count"},
    {"serve.window_util", "ratio"},
    {"serve.query_p50_us", "us"},
    {"serve.query_p99_us", "us"},
    {"serve.distance_p50_us", "us"},
    {"serve.route_p50_us", "us"},
    {"serve.oracle_hit_ratio", "ratio"},
    {"serve.epochs", "count"},
    {"serve.late_frac", "ratio"},
};

/// Which self-time share each bench-side span name adds to.
constexpr std::pair<const char*, const char*> kSpanLayer[] = {
    {"ubg.make_ubg", "gen.self_pct"},
    {"dyn.poisson_churn", "gen.self_pct"},
    {"io.save", "io.self_pct"},
    {"io.load", "io.self_pct"},
    {"io.load_trace", "io.self_pct"},
    {"api.construct", "api.construct_pct"},
    {"api.measure", "api.measure_pct"},
    {"api.registry", "api.measure_pct"},
    {"api.check", "api.check_pct"},
    {"core.verify", "core.verify_pct"},
    {"route.evaluate", "route.evaluate_pct"},
    {"dyn.validate", "dyn.init_pct"},
    {"dyn.init", "dyn.init_pct"},
    {"dyn.apply", "dyn.apply_pct"},
    {"dyn.apply_batch", "dyn.apply_pct"},
    {"serve.publish", "serve.publish_pct"},
    {"serve.audit", "serve.query_pct"},
    {"serve.wait", "serve.writer_idle_pct"},
    {"serve.join", "serve.writer_idle_pct"},
};

/// The library's obs spans reported as a share of the traced wall time.
constexpr std::pair<const char*, const char*> kObsSpanShare[] = {
    {"rg.bins", "rg.bins_pct"},       {"rg.phase0", "rg.phase0_pct"},
    {"rg.cover", "rg.cover_pct"},     {"rg.filter", "rg.filter_pct"},
    {"rg.select", "rg.select_pct"},   {"rg.cluster_graph", "rg.cluster_graph_pct"},
    {"rg.queries", "rg.queries_pct"}, {"rg.redundancy", "rg.redundancy_pct"},
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  ///< run_seconds in BENCHMARK.json.
  bool trace = false;
  bool quick = false;
  std::filesystem::path dir;  ///< scratch directory for the generated inputs.
};

/// Operations attempted and failed over the whole run: commands, events,
/// windows, queries and audits. The first few failures are printed.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void ok() { ++attempted; }
  void fail(const std::string& what) {
    ++attempted;
    if (++failed <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

/// What one measured pass produced.
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The host's speed, measured during the run. On the 4-vCPU virtual machine
/// the benchmark was written on, the same work ran 20-30% slower in some
/// minutes than in others, with no steal time visible to the guest, so CPU
/// time drifts as much as wall time. Fixed kernels, timed between the
/// workload's ops and set-ups, drift with it, and times are scaled by them.
///
/// The graph kernel is Dijkstra from a rotating source over a fixed
/// 32,768-node graph (a grid with diagonal links plus one random long link
/// per node, about 2.5 MB). In two six-minute runs of 15-second windows a
/// 1-thread relaxed-dist command moved by 17% and 22% (IQR/median of the
/// window medians) and its ratio to this kernel by 5% and 6%. An op time is multiplied by
/// kGraphReferenceMs / (median graph-kernel time of the measured phase).
///
/// Set-ups mostly write and read their inputs as decimal text, and that
/// slows down more than the graph kernel on a slow host: in 10-second
/// windows io::save_instance time went as the graph time to the power 1.9.
/// The text kernel formats 20,000 fixed doubles at 17 digits into a string
/// and parses them back; it went as the power 1.7. Between set-ups both
/// kernels run, and a set-up time is multiplied by kSetupReferenceMs /
/// (median of their summed time). Divided by that sum, the time to make and
/// save an instance spread by 2.6% over the windows; divided by the graph
/// kernel alone, by 3.1%.
///
/// The kernels' code and data depend on neither the library nor the seed,
/// so a change to the library cannot move them. A scaled time reads as the
/// time on a host where the kernels take their reference times, their
/// medians on that machine at its usual speed.
class HostSpeed {
 public:
  static constexpr double kGraphReferenceMs = 10.0;
  static constexpr double kSetupReferenceMs = 20.0;  ///< graph plus text kernel.

  HostSpeed() {
    constexpr std::size_t kWidth = 256;
    constexpr std::size_t kN = kWidth * 128;
    std::mt19937_64 rng(0x5EEDCA11);
    std::uniform_real_distribution<float> weight(1.0F, 2.0F);
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    std::vector<float> edge_weight;
    const auto link = [&](std::size_t a, std::size_t b, float w) {
      edges.emplace_back(a, b);
      edge_weight.push_back(w);
    };
    for (std::size_t v = 0; v < kN; ++v) {
      const bool right = v % kWidth + 1 < kWidth;
      const bool down = v + kWidth < kN;
      if (right) link(v, v + 1, weight(rng));
      if (down) link(v, v + kWidth, weight(rng));
      if (right && down) link(v, v + kWidth + 1, weight(rng));
      link(v, rng() % kN, 4.0F + weight(rng));
    }
    // Compressed adjacency: both directions of every edge, by source.
    offset_.assign(kN + 1, 0);
    for (const auto& [a, b] : edges) {
      ++offset_[a + 1];
      ++offset_[b + 1];
    }
    for (std::size_t v = 0; v < kN; ++v) offset_[v + 1] += offset_[v];
    target_.resize(offset_[kN]);
    weight_.resize(offset_[kN]);
    std::vector<std::uint32_t> fill(offset_.begin(), offset_.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [a, b] = edges[e];
      target_[fill[a]] = static_cast<std::uint32_t>(b);
      weight_[fill[a]++] = edge_weight[e];
      target_[fill[b]] = static_cast<std::uint32_t>(a);
      weight_[fill[b]++] = edge_weight[e];
    }
    dist_.resize(kN);
    std::uniform_real_distribution<double> value(0.0, 100.0);
    numbers_.resize(20000);
    for (double& x : numbers_) x = value(rng);
    for (int i = 0; i < 2; ++i) {  // warm the caches and the allocator; untimed.
      run_graph();
      run_text();
    }
  }

  /// Between ops: time graph-kernel runs until they have taken kOpShare of
  /// the time since the phase's first call, and at least one ran, so the
  /// samples spread over the phase in proportion to its time.
  void tick() { sample(false, kOpShare); }
  /// Between set-ups: the same, each graph run followed by a text run, at
  /// kSetupShare. Set-ups are short, so they get a larger share to fill the
  /// median with samples.
  void tick_setup() { sample(true, kSetupShare); }

  /// Graph-kernel samples so far; an op phase starts at this index.
  [[nodiscard]] std::size_t samples() const { return graph_ms_.size(); }
  [[nodiscard]] std::size_t setup_samples() const { return setup_ms_.size(); }
  /// Median graph-kernel time over samples [from, end).
  [[nodiscard]] double graph_median_ms(std::size_t from) const {
    return quantile(std::vector<double>(graph_ms_.begin() + static_cast<std::ptrdiff_t>(from),
                                        graph_ms_.end()),
                    0.5);
  }
  /// Median summed graph and text time over the set-up samples.
  [[nodiscard]] double setup_median_ms() const { return quantile(setup_ms_, 0.5); }
  /// Scales op times taken while graph samples [from, end) ran.
  [[nodiscard]] double op_factor(std::size_t from) const {
    return kGraphReferenceMs / graph_median_ms(from);
  }
  /// Scales set-up times.
  [[nodiscard]] double setup_factor() const { return kSetupReferenceMs / setup_median_ms(); }
  /// Sum of every kernel run's result; printed, so the kernels' work has an
  /// observable result.
  [[nodiscard]] double checksum() const { return checksum_; }

 private:
  static constexpr double kOpShare = 0.08;
  static constexpr double kSetupShare = 0.2;

  void sample(bool text, double share) {
    bool start = graph_ms_.empty() || text != text_phase_;
    if (start) {
      text_phase_ = text;
      first_ = Clock::now();
      spent_ms_ = 0.0;
    }
    for (; start || spent_ms_ < share * ms_between(first_, Clock::now()); start = false) {
      const Scope s("bench.calibrate");
      const Clock::time_point a = Clock::now();
      run_graph();
      const Clock::time_point b = Clock::now();
      graph_ms_.push_back(ms_between(a, b));
      if (text) {
        run_text();
        setup_ms_.push_back(ms_between(a, Clock::now()));
      }
      spent_ms_ += ms_between(a, Clock::now());
    }
  }

  void run_graph() {
    using Entry = std::pair<float, std::uint32_t>;
    std::fill(dist_.begin(), dist_.end(), std::numeric_limits<float>::infinity());
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    source_ = (source_ + 7919) % dist_.size();
    dist_[source_] = 0.0F;
    heap.emplace(0.0F, static_cast<std::uint32_t>(source_));
    double settled = 0.0;
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist_[v]) continue;
      settled += d;
      for (std::uint32_t i = offset_[v]; i < offset_[v + 1]; ++i) {
        const float nd = d + weight_[i];
        if (nd < dist_[target_[i]]) {
          dist_[target_[i]] = nd;
          heap.emplace(nd, target_[i]);
        }
      }
    }
    checksum_ += settled;
  }

  void run_text() {
    std::ostringstream os;
    os << std::setprecision(17);
    for (const double x : numbers_) os << x << ' ';
    const std::string text = os.str();
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p < end) {
      double x = 0.0;
      const std::from_chars_result r = std::from_chars(p, end, x);
      if (r.ec != std::errc()) throw std::runtime_error("HostSpeed: text kernel failed to parse");
      checksum_ += x;
      p = r.ptr + 1;  // past the separator
    }
  }

  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> target_;
  std::vector<float> weight_;
  std::vector<float> dist_;
  std::vector<double> numbers_;
  std::vector<double> graph_ms_;
  std::vector<double> setup_ms_;  ///< graph plus text time, one per set-up sample.
  std::size_t source_ = 0;
  double checksum_ = 0.0;
  bool text_phase_ = false;
  double spent_ms_ = 0.0;  ///< kernel time since first_, the start of the phase.
  Clock::time_point first_{};
};

core::Params params_for(const ubg::UbgInstance& inst) {
  return core::Params::practical_params(kEps, inst.config.alpha);
}

ubg::UbgInstance make_instance(int n, ubg::Placement placement, std::uint64_t seed) {
  const Scope s("ubg.make_ubg");
  ubg::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = kAlpha;
  cfg.dim = 2;
  cfg.seed = seed;
  cfg.placement = placement;
  return ubg::make_ubg(cfg, *ubg::always_connect());
}

void save_instance(const std::filesystem::path& path, const ubg::UbgInstance& inst) {
  const Scope s("io.save");
  io::save_instance(path.string(), inst);
}

ubg::UbgInstance load_instance(const std::filesystem::path& path) {
  const Scope s("io.load");
  return io::load_instance(path.string());
}

/// One registry build, with its construct time (BuildResult::seconds) and
/// the rest of the call (measurement, or registry overhead when
/// measure=false) recorded as two spans.
api::BuildResult timed_build(const std::string& algo, const ubg::UbgInstance& inst,
                             api::Options opts, bool measure) {
  const std::int64_t t0 = now_ns();
  api::BuildResult r =
      api::registry().build(algo, api::BuildRequest{inst, params_for(inst), std::move(opts)}, measure);
  const std::int64_t t1 = now_ns();
  const std::int64_t split = std::min(t1, t0 + static_cast<std::int64_t>(r.seconds * 1e9));
  emit("api.construct", t0, split);
  emit(measure ? "api.measure" : "api.registry", split, t1);
  return r;
}

api::Options threads_option(int threads) {
  api::Options o;
  o.set("threads", std::to_string(threads));
  return o;
}

/// Runs `op` back to back until `seconds` have passed and at least
/// `min_ops` ran, recording each op's latency and sampling the host's
/// speed between ops.
template <class Op>
void closed_loop(double seconds, int min_ops, HostSpeed& host, Pass& pass, Op&& op) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < min_ops || seconds_between(t0, Clock::now()) < seconds; ++i) {
    host.tick();
    const Clock::time_point a = Clock::now();
    op();
    pass.op_ms.push_back(ms_between(a, Clock::now()));
  }
}

class Workload {
 public:
  Workload(const Context& ctx, Tally& tally) : ctx_(ctx), tally_(tally) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::string describe() const = 0;
  /// Make and write the inputs, then bring the system to its ready state.
  virtual void setup() = 0;
  /// Run ops for `seconds`, calling host.tick() between them.
  virtual void measure(double seconds, HostSpeed& host, Pass& pass) = 0;
  /// Output checks that run once, after the last pass.
  virtual void check() = 0;

  double lightness = 0.0;
  /// Per-layer values the benchmark computes itself (not from obs).
  std::map<std::string, double> layer;

 protected:
  const Context& ctx_;
  Tally& tally_;
};

// ---------------------------------------------------------------------------
// span: `localspan_cli span` then `localspan_cli verify`, one thread.
// ---------------------------------------------------------------------------
class SpanWorkload final : public Workload {
 public:
  SpanWorkload(const Context& ctx, Tally& tally)
      : Workload(ctx, tally), n_(ctx.quick ? 512 : 1024), path_(ctx.dir / "span.lsi") {}

  std::string describe() const override {
    return "span+verify, n=" + std::to_string(n_) + " uniform, 1 thread";
  }

  void setup() override {
    const Scope s("setup");
    save_instance(path_, make_instance(n_, ubg::Placement::kUniform, ctx_.seed));
  }

  void measure(double seconds, HostSpeed& host, Pass& pass) override {
    closed_loop(seconds, kMinCommands, host, pass, [this] {
      span_command();
      verify_command();
    });
  }

  void check() override {}

 private:
  void span_command() {
    const Scope cmd("cmd.span");
    try {
      const ubg::UbgInstance inst = load_instance(path_);
      const api::BuildResult r = timed_build("relaxed", inst, threads_option(1), true);
      std::string violation;
      {
        const Scope c("api.check");
        violation = api::check_guarantees(inst, r);
      }
      lightness = r.metrics.lightness;
      if (violation.empty()) tally_.ok();
      else tally_.fail("span: " + violation);
    } catch (const std::exception& e) {
      tally_.fail(std::string("span: ") + e.what());
    }
  }

  void verify_command() {
    const Scope cmd("cmd.verify");
    try {
      const ubg::UbgInstance inst = load_instance(path_);
      const api::BuildResult r = timed_build("relaxed", inst, threads_option(1), false);
      core::VerificationReport rep;
      {
        const Scope v("core.verify");
        rep = core::verify_spanner(inst, r.spanner, 1.0 + kEps);
      }
      if (rep.ok()) tally_.ok();
      else tally_.fail("verify: " + rep.summary());
    } catch (const std::exception& e) {
      tally_.fail(std::string("verify: ") + e.what());
    }
  }

  int n_;
  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// route: `localspan_cli route --threads 1`.
// ---------------------------------------------------------------------------
class RouteWorkload final : public Workload {
 public:
  RouteWorkload(const Context& ctx, Tally& tally)
      : Workload(ctx, tally), n_(ctx.quick ? 2048 : 8192), path_(ctx.dir / "route.lsi") {}

  std::string describe() const override {
    return "route, n=" + std::to_string(n_) + " uniform, 1 thread (" +
           std::to_string(kPoolThreads) + "-thread determinism check)";
  }

  /// Uniform, not clustered: the cost of a clustered instance depends on
  /// where its hubs fall. Among four clustered instances of one seed the
  /// command time ranged over 35%, which no run length averages out.
  void setup() override {
    const Scope s("setup");
    save_instance(path_, make_instance(n_, ubg::Placement::kUniform, ctx_.seed));
  }

  void measure(double seconds, HostSpeed& host, Pass& pass) override {
    closed_loop(seconds, kMinCommands, host, pass, [this] {
      const Scope cmd("cmd.route");
      try {
        compare(run(1), "repeat");
      } catch (const std::exception& e) {
        tally_.fail(std::string("route: ") + e.what());
      }
    });
    serial_ms_ = quantile(pass.op_ms, 0.5);
  }

  /// The determinism contract: a route command on the worker pool gives the
  /// same spanner and the same routing stats as the 1-thread ones.
  void check() override {
    if (!ref_) return;  // every command failed, and each was counted.
    const Scope cmd("cmd.route_pool");
    try {
      const Clock::time_point a = Clock::now();
      compare(run(kPoolThreads), "pool command");
      layer["pool.speedup"] = ratio(serial_ms_, ms_between(a, Clock::now()));
      layer["route.delivery"] = ref_->over_spanner.delivery_rate;
      lightness = graph::lightness(load_instance(path_).g, ref_->spanner);
    } catch (const std::exception& e) {
      tally_.fail(std::string("route (pool): ") + e.what());
    }
  }

 private:
  // Commands are timed on one thread. At 2 threads the median command time
  // of one input spread by 24% (IQR/median) over eight runs, even scaled by
  // the HostSpeed kernel run on 2 threads; the 1-thread workloads spread by
  // 2-8% over ten seeds.
  static constexpr int kPoolThreads = 2;
  static constexpr int kTrials = 200;

  struct Outcome {
    graph::Graph spanner;
    route::RoutingStats over_g;
    route::RoutingStats over_spanner;
  };

  Outcome run(int threads) {
    const ubg::UbgInstance inst = load_instance(path_);
    api::BuildResult r = timed_build("relaxed", inst, threads_option(threads), false);
    Outcome out;
    {
      const Scope s("route.evaluate");
      graph::DijkstraWorkspace ws(inst.g.n());
      std::optional<runtime::WorkerPool> pool;
      if (threads > 1) pool.emplace(threads);
      graph::CsrView csr;
      csr.assign(inst.g);
      out.over_g = route::evaluate_routing(inst, csr, route::Forwarding::kGreedy, kTrials,
                                           ctx_.seed, ws, pool ? &*pool : nullptr);
      csr.assign(r.spanner);
      out.over_spanner = route::evaluate_routing(inst, csr, route::Forwarding::kGreedy, kTrials,
                                                 ctx_.seed, ws, pool ? &*pool : nullptr);
    }
    out.spanner = std::move(r.spanner);
    return out;
  }

  static bool same(const route::RoutingStats& a, const route::RoutingStats& b) {
    return a.trials == b.trials && a.delivered == b.delivered &&
           a.delivery_rate == b.delivery_rate && a.mean_hops == b.mean_hops &&
           a.mean_route_stretch == b.mean_route_stretch &&
           a.worst_route_stretch == b.worst_route_stretch;
  }

  void compare(Outcome out, const char* what) {
    if (!ref_) {
      ref_ = std::move(out);
      tally_.ok();
    } else if (!(out.spanner == ref_->spanner) || !same(out.over_g, ref_->over_g) ||
               !same(out.over_spanner, ref_->over_spanner)) {
      tally_.fail(std::string("route: ") + what + " differs from the first command");
    } else {
      tally_.ok();
    }
  }

  int n_;
  std::filesystem::path path_;
  std::optional<Outcome> ref_;
  double serial_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// churn: `localspan_cli dynamic --threads 4`, one apply() per event.
// ---------------------------------------------------------------------------
class ChurnWorkload final : public Workload {
 public:
  ChurnWorkload(const Context& ctx, Tally& tally)
      : Workload(ctx, tally),
        n_(ctx.quick ? 1024 : 4096),
        checkpoint_(ctx.quick ? 32 : 256),
        events_(std::max(checkpoint_, static_cast<int>(512.0 * ctx.seconds))),
        inst_path_(ctx.dir / "churn.lsi"),
        trace_path_(ctx.dir / "churn.json") {}

  std::string describe() const override {
    return "dynamic per-event, n=" + std::to_string(n_) + " uniform, " +
           std::to_string(events_) + " Poisson events available, " + std::to_string(kThreads) +
           " threads";
  }

  void setup() override {
    const Scope s("setup");
    {
      const ubg::UbgInstance inst = make_instance(n_, ubg::Placement::kUniform, ctx_.seed);
      dynamic::ChurnTrace trace;
      {
        const Scope g("dyn.poisson_churn");
        dynamic::PoissonChurnConfig cfg;
        cfg.events = events_;
        cfg.seed = ctx_.seed;
        trace = dynamic::poisson_churn(inst, cfg);
      }
      save_instance(inst_path_, inst);
      const Scope w("io.save");
      io::save_trace(trace_path_.string(), trace);
    }
    engine_.reset();
    ubg::UbgInstance inst = load_instance(inst_path_);
    {
      const Scope l("io.load_trace");
      trace_ = io::load_trace(trace_path_.string());
    }
    {
      const Scope v("dyn.validate");
      const std::string invalid = dynamic::validate_trace(trace_, inst);
      if (!invalid.empty()) throw std::runtime_error("churn: invalid trace: " + invalid);
    }
    const core::Params params = params_for(inst);
    dynamic::DynamicOptions opts;
    opts.check = dynamic::CheckLevel::kLocal;
    opts.threads = kThreads;
    const Scope i("dyn.init");
    engine_ = std::make_unique<dynamic::DynamicSpanner>(std::move(inst), params, opts);
  }

  /// Applies events until the time is up, but never fewer than the
  /// checkpoint, so `lightness` and the dyn.* means describe the same
  /// events on every run whatever the speed.
  void measure(double seconds, HostSpeed& host, Pass& pass) override {
    long long ball = 0;
    long long scope = 0;
    long long sub_edges = 0;
    long long changed = 0;
    int fallbacks = 0;
    const Clock::time_point t0 = Clock::now();
    int i = 0;
    for (; i < static_cast<int>(trace_.events.size()); ++i) {
      if (i >= checkpoint_ && seconds_between(t0, Clock::now()) >= seconds) break;
      host.tick();
      const Clock::time_point a = Clock::now();
      try {
        dynamic::RepairStats st;
        {
          const Scope s("dyn.apply");
          st = engine_->apply(trace_.events[static_cast<std::size_t>(i)]);
        }
        if (i < checkpoint_) {  // the same events on every run
          ball += st.ball_size;
          scope += st.certify_scope;
          sub_edges += st.sub_edges;
          changed += st.spanner_edges_added + st.spanner_edges_removed;
        }
        if (st.fell_back) ++fallbacks;
        // Every event certifies, or fails certification and recovers by a
        // full recompute.
        if (!st.check_ran || st.check_passed || st.fell_back) tally_.ok();
        else tally_.fail("churn: event " + std::to_string(i) + " failed certification");
      } catch (const std::exception& e) {
        tally_.fail("churn: event " + std::to_string(i) + ": " + e.what());
      }
      pass.op_ms.push_back(ms_between(a, Clock::now()));
      if (i + 1 == checkpoint_) {
        const Scope l("bench.lightness");
        lightness = graph::lightness(engine_->instance().g, engine_->spanner());
      }
    }
    layer["dyn.ball_mean"] = ratio(static_cast<double>(ball), std::min(i, checkpoint_));
    layer["dyn.certify_scope_mean"] = ratio(static_cast<double>(scope), std::min(i, checkpoint_));
    layer["dyn.change_ratio"] = ratio(static_cast<double>(changed), static_cast<double>(sub_edges));
    layer["dyn.fallbacks"] = fallbacks;
  }

  /// The final audit, independent of the per-event checks.
  void check() override {
    core::VerificationReport rep;
    {
      const Scope v("core.verify");
      rep = core::verify_spanner(engine_->instance(), engine_->spanner(), engine_->params().t);
    }
    if (rep.ok()) tally_.ok();
    else tally_.fail("churn final audit: " + rep.summary());
  }

 private:
  // One thread: events are small, so a pool mostly adds dispatch; at 2
  // threads the median event took 11 ms against 8 ms at one.
  static constexpr int kThreads = 1;

  int n_;
  int checkpoint_;
  int events_;
  std::filesystem::path inst_path_;
  std::filesystem::path trace_path_;
  dynamic::ChurnTrace trace_;
  std::unique_ptr<dynamic::DynamicSpanner> engine_;
};

// ---------------------------------------------------------------------------
// serve: `localspan_cli serve`, driven as an open loop.
// ---------------------------------------------------------------------------
class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Context& ctx, Tally& tally)
      : Workload(ctx, tally),
        n_(ctx.quick ? 2048 : 8192),
        windows_(static_cast<int>(std::ceil(ctx.seconds / kPeriod.count()))),
        inst_path_(ctx.dir / "serve.lsi"),
        trace_path_(ctx.dir / "serve.json") {}

  std::string describe() const override {
    return "serve, n=" + std::to_string(n_) + " uniform, a " + std::to_string(kWindow) +
           "-event window every " + std::to_string(static_cast<int>(kPeriod.count() * 1e3)) +
           " ms, " + std::to_string(kReaders) + " readers x " +
           std::to_string(static_cast<int>(kRate)) + " queries/s, writer " +
           std::to_string(kWriterThreads) + " threads";
  }

  void setup() override {
    const Scope s("setup");
    {
      const ubg::UbgInstance inst = make_instance(n_, ubg::Placement::kUniform, ctx_.seed);
      dynamic::ChurnTrace trace;
      {
        const Scope g("dyn.poisson_churn");
        dynamic::PoissonChurnConfig cfg;
        cfg.events = kWindow * windows_;
        cfg.seed = ctx_.seed;
        trace = dynamic::poisson_churn(inst, cfg);
      }
      save_instance(inst_path_, inst);
      const Scope w("io.save");
      io::save_trace(trace_path_.string(), trace);
    }
    engine_.reset();
    qe_.reset();
    ubg::UbgInstance inst = load_instance(inst_path_);
    {
      const Scope l("io.load_trace");
      trace_ = io::load_trace(trace_path_.string());
    }
    {
      const Scope v("dyn.validate");
      const std::string invalid = dynamic::validate_trace(trace_, inst);
      if (!invalid.empty()) throw std::runtime_error("serve: invalid trace: " + invalid);
    }
    n0_ = inst.g.n();
    const core::Params params = params_for(inst);
    dynamic::DynamicOptions dopts;
    dopts.check = dynamic::CheckLevel::kLocal;
    dopts.threads = kWriterThreads;
    serve::ServeOptions sopts;
    sopts.threads = kWriterThreads;
    qe_ = std::make_unique<serve::QueryEngine>(sopts);
    {
      const Scope i("dyn.init");
      engine_ = std::make_unique<dynamic::DynamicSpanner>(std::move(inst), params, dopts);
    }
    qe_->attach(*engine_);
    const Scope p("serve.publish");
    qe_->publish(*engine_);
  }

  void measure(double seconds, HostSpeed& host, Pass& pass) override {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<ReaderLog> logs(kReaders);
    // jthread joins on destruction, so no exit path leaves a reader running;
    // readers stop by themselves at `end`.
    std::vector<std::jthread> readers;
    readers.reserve(kReaders);
    for (int k = 0; k < kReaders; ++k) {
      readers.emplace_back(
          [this, k, start, end, &logs] { read(k, start, end, logs[static_cast<std::size_t>(k)]); });
    }

    std::vector<double>& window_ms = pass.op_ms;
    long long regions = 0;
    std::size_t next = 0;
    for (int w = 1;; ++w) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(w * kPeriod);
      if (due >= end || next >= trace_.events.size()) break;
      // The writer is idle until `due`; the kernel runs there when it fits.
      if (due - Clock::now() > kCalibrationSlack) host.tick();
      {
        const Scope s("serve.wait");
        std::this_thread::sleep_until(due);
      }
      const std::size_t len = std::min<std::size_t>(kWindow, trace_.events.size() - next);
      const Scope c("cmd.window");
      const std::int64_t t0 = now_ns();
      try {
        const dynamic::BatchStats st =
            engine_->apply_batch(std::span<const dynamic::ChurnEvent>(trace_.events.data() + next, len));
        const std::int64_t t1 = now_ns();
        // The commit hook publishes after apply_batch has taken `seconds`.
        const std::int64_t split = std::min(t1, t0 + static_cast<std::int64_t>(st.seconds * 1e9));
        emit("dyn.apply_batch", t0, split);
        emit("serve.publish", split, t1);
        window_ms.push_back(ms_between(due, Clock::now()));
        regions += st.regions;
        if (!st.check_ran || st.check_passed || st.fell_back) tally_.ok();
        else tally_.fail("serve: window " + std::to_string(w) + " failed certification");
      } catch (const std::exception& e) {
        tally_.fail("serve: window " + std::to_string(w) + ": " + e.what());
      }
      next += len;
    }
    {
      const Scope j("serve.join");
      for (std::jthread& t : readers) t.join();
    }

    long long distances = 0;
    long long hits = 0;
    long long late = 0;
    std::vector<double> query_ms;
    std::vector<double> late_us;
    std::vector<double> distance_us;
    std::vector<double> route_us;
    for (ReaderLog& log : logs) {
      query_ms.insert(query_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
      late_us.insert(late_us.end(), log.late_us.begin(), log.late_us.end());
      distance_us.insert(distance_us.end(), log.distance_us.begin(), log.distance_us.end());
      route_us.insert(route_us.end(), log.route_us.begin(), log.route_us.end());
      distances += static_cast<long long>(log.distance_us.size());
      hits += log.oracle_hits;
      for (const double l : log.late_us) late += l > kLateUs ? 1 : 0;
      tally_.attempted += static_cast<long long>(log.latency_ms.size()) - log.failed_queries;
      for (const std::string& err : log.errors) tally_.fail("serve: reader: " + err);
    }
    layer["serve.window_util"] = quantile(window_ms, 0.5) / (kPeriod.count() * 1e3);
    layer["serve.oracle_hit_ratio"] = ratio(static_cast<double>(hits), static_cast<double>(distances));
    layer["serve.late_frac"] = ratio(static_cast<double>(late), static_cast<double>(late_us.size()));
    layer["dyn.regions_mean"] = ratio(static_cast<double>(regions), static_cast<double>(window_ms.size()));
    layer["serve.epochs"] = static_cast<double>(qe_->store().current_epoch());
    layer["serve.query_p50_us"] = 1e3 * quantile(query_ms, 0.5);
    layer["serve.query_p99_us"] = 1e3 * quantile(query_ms, 0.99);
    layer["serve.distance_p50_us"] = quantile(distance_us, 0.5);
    layer["serve.route_p50_us"] = quantile(route_us, 0.5);
    std::printf("serve: %zu windows, window p50 %.2f ms; %zu queries from due time p50 %.2f us "
                "p99 %.1f us; distance p50 %.2f us p99 %.2f us; route p50 %.2f us p99 %.2f us; "
                "generator late p50 %.2f us p99 %.1f us\n",
                window_ms.size(), quantile(window_ms, 0.5), query_ms.size(),
                1e3 * quantile(query_ms, 0.5), 1e3 * quantile(query_ms, 0.99),
                quantile(distance_us, 0.5), quantile(distance_us, 0.99), quantile(route_us, 0.5),
                quantile(route_us, 0.99), quantile(late_us, 0.5), quantile(late_us, 0.99));
  }

  /// The CLI's exit-code audit: on the final snapshot every served distance
  /// is at least the exact one and within the oracle's declared bound.
  void check() override {
    const Scope a("serve.audit");
    serve::QueryEngine::Reader auditor = qe_->reader();
    double bound = 0.0;
    bool bound_holds = false;
    {
      const serve::SnapshotStore::ReadGuard snap = auditor.pin();
      bound = snap->oracle.stretch_bound();
      bound_holds = !snap->oracle.truncated();
    }
    std::mt19937_64 rng(ctx_.seed ^ 0xA5A5A5A5ULL);
    std::uniform_int_distribution<int> pick(0, n0_ - 1);
    for (int i = 0; i < 256; ++i) {
      const int s = pick(rng);
      int d = pick(rng);
      if (s == d) d = (d + 1) % n0_;
      const serve::QueryEngine::DistanceAnswer est = auditor.distance(s, d);
      const serve::QueryEngine::RouteAnswer exact = auditor.route(s, d);
      const double slack = 1e-9 * std::max(1.0, exact.distance);
      const bool bad = !exact.reachable
                           ? est.distance != graph::kInf
                           : est.distance < exact.distance - slack ||
                                 (bound_holds && est.distance > bound * exact.distance + slack);
      if (bad) {
        tally_.fail("serve audit: d(" + std::to_string(s) + "," + std::to_string(d) + ") served " +
                    std::to_string(est.distance) + ", exact " + std::to_string(exact.distance));
      } else {
        tally_.ok();
      }
    }
    const Scope l("bench.lightness");
    lightness = graph::lightness(engine_->instance().g, engine_->spanner());
  }

 private:
  static constexpr int kWindow = 32;
  // A window's repair and publish take about 200 ms at n=8192 with one
  // writer thread. The period keeps the writer under half busy: at 64 events
  // every 400 ms it was 85% busy, windows queued whenever the host slowed,
  // and their median latency moved by ±30% from run to run.
  static constexpr std::chrono::duration<double> kPeriod{0.5};
  static constexpr int kReaders = 2;
  static constexpr double kRate = 2500.0;  ///< queries per second per reader.
  static constexpr int kWriterThreads = 1;
  static constexpr double kLateUs = 100.0;
  static constexpr std::chrono::milliseconds kCalibrationSlack{100};

  struct ReaderLog {
    std::vector<double> latency_ms;  ///< from the due time to the answer.
    std::vector<double> late_us;     ///< how late the query was sent.
    std::vector<double> distance_us;
    std::vector<double> route_us;
    long long oracle_hits = 0;
    long long failed_queries = 0;
    std::vector<std::string> errors;  ///< one per failed query, plus any set-up failure.
  };

  /// Busy-wait until `due`. A reader that slept between queries would wake
  /// late and on a cold core; the 2 µs distance queries then measured the
  /// scheduler (their median moved by ±30% from run to run). The pause hint
  /// keeps the spin from starving a hyperthread sibling running the writer.
  static void wait_until(Clock::time_point due) {
    while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  /// One reader: queries due at seeded exponential gaps, 7 distance to 1
  /// route, each timed from its due time.
  void read(int k, Clock::time_point start, Clock::time_point end, ReaderLog& log) {
    try {
      perfbench::Recorder::get().attach("reader " + std::to_string(k));
      serve::QueryEngine::Reader reader = qe_->reader();
      std::mt19937_64 rng(ctx_.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k + 1));
      std::exponential_distribution<double> gap(kRate);
      std::uniform_int_distribution<int> pick(0, n0_ - 1);
      const auto next_gap = [&] {
        return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap(rng)));
      };
      for (Clock::time_point due = start + next_gap(); due < end; due += next_gap()) {
        const int s = pick(rng);
        int d = pick(rng);
        if (s == d) d = (d + 1) % n0_;
        const bool is_route = log.latency_ms.size() % 8 == 7;
        wait_until(due);
        const Clock::time_point a = Clock::now();
        try {
          if (is_route) {
            const Scope q("serve.route");
            static_cast<void>(reader.route(s, d));
          } else {
            const Scope q("serve.distance");
            if (reader.distance(s, d).via_oracle) ++log.oracle_hits;
          }
        } catch (const std::exception& e) {
          ++log.failed_queries;
          log.errors.push_back(e.what());
        }
        const Clock::time_point b = Clock::now();
        log.latency_ms.push_back(ms_between(due, b));
        log.late_us.push_back(1e3 * ms_between(due, a));
        (is_route ? log.route_us : log.distance_us).push_back(1e3 * ms_between(a, b));
      }
    } catch (const std::exception& e) {
      log.errors.push_back(e.what());
    }
  }

  int n_;
  int windows_;
  int n0_ = 0;
  std::filesystem::path inst_path_;
  std::filesystem::path trace_path_;
  dynamic::ChurnTrace trace_;
  // Declared in this order so the engine, whose commit hook points into
  // qe_, is destroyed first; setup() resets them in the same order.
  std::unique_ptr<serve::QueryEngine> qe_;
  std::unique_ptr<dynamic::DynamicSpanner> engine_;
};

// ---------------------------------------------------------------------------
// dist: `localspan_cli span --algo relaxed-dist --net async --loss 0.1`.
// ---------------------------------------------------------------------------
class DistWorkload final : public Workload {
 public:
  DistWorkload(const Context& ctx, Tally& tally)
      : Workload(ctx, tally), n_(ctx.quick ? 512 : 1024), path_(ctx.dir / "dist.lsi") {}

  std::string describe() const override {
    return "relaxed-dist over the async network (loss 0.1), n=" + std::to_string(n_) +
           " uniform, " + std::to_string(kThreads) + " threads";
  }

  void setup() override {
    const Scope s("setup");
    save_instance(path_, make_instance(n_, ubg::Placement::kUniform, ctx_.seed));
  }

  void measure(double seconds, HostSpeed& host, Pass& pass) override {
    closed_loop(seconds, kMinCommands, host, pass, [this] {
      const Scope cmd("cmd.span");
      try {
        const ubg::UbgInstance inst = load_instance(path_);
        api::Options o = threads_option(kThreads);
        o.set("net", "async");
        o.set("loss", "0.1");
        o.set("net-seed", std::to_string(ctx_.seed));
        api::BuildResult r = timed_build("relaxed-dist", inst, std::move(o), true);
        std::string violation;
        {
          const Scope c("api.check");
          violation = api::check_guarantees(inst, r);
        }
        lightness = r.metrics.lightness;
        if (!violation.empty()) {
          tally_.fail("dist: " + violation);
        } else if (spanner_ && !(r.spanner == *spanner_)) {
          tally_.fail("dist: the spanner differs between runs of the same input");
        } else {
          tally_.ok();
        }
        spanner_ = std::move(r.spanner);
      } catch (const runtime::RetryBudgetExhausted& e) {
        tally_.fail(std::string("dist: retry budget exhausted: ") + e.what());
      } catch (const std::exception& e) {
        tally_.fail(std::string("dist: ") + e.what());
      }
    });
  }

  void check() override {
    if (!spanner_) return;  // every command failed, and each was counted.
    const ubg::UbgInstance inst = load_instance(path_);
    core::VerificationReport rep;
    {
      const Scope v("core.verify");
      rep = core::verify_spanner(inst, *spanner_, 1.0 + kEps);
    }
    if (rep.ok()) tally_.ok();
    else tally_.fail("dist verify: " + rep.summary());
  }

 private:
  // One thread: the async network is a single-threaded event simulation
  // either way. Over ten seeds, measured back to back, the median command
  // time spread by 17% (IQR/median) at 2 threads against 2.5% at one.
  static constexpr int kThreads = 1;

  int n_;
  std::filesystem::path path_;
  std::optional<graph::Graph> spanner_;  ///< the last command's output.
};

std::unique_ptr<Workload> make_workload(const Context& ctx, Tally& tally) {
  if (ctx.workload == "span") return std::make_unique<SpanWorkload>(ctx, tally);
  if (ctx.workload == "route") return std::make_unique<RouteWorkload>(ctx, tally);
  if (ctx.workload == "churn") return std::make_unique<ChurnWorkload>(ctx, tally);
  if (ctx.workload == "serve") return std::make_unique<ServeWorkload>(ctx, tally);
  if (ctx.workload == "dist") return std::make_unique<DistWorkload>(ctx, tally);
  return nullptr;
}

void run_setups(Workload& w, int min_setups, double budget_s, HostSpeed& host, Pass& pass) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0;
       i < kMaxSetups && (i < min_setups || seconds_between(t0, Clock::now()) < budget_s); ++i) {
    host.tick_setup();
    const Clock::time_point a = Clock::now();
    w.setup();
    pass.setup_s.push_back(seconds_between(a, Clock::now()));
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double obs_counter(const obs::Snapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

double obs_span_ns(const obs::Snapshot& snap, const char* name) {
  for (const obs::SpanStat& s : snap.spans) {
    if (s.name == name) return static_cast<double>(s.total_ns);
  }
  return 0.0;
}

/// Per-layer metrics of the traced pass. Shares are of the traced wall
/// time: self time of the bench-side spans, and the library's obs span
/// totals over the whole pass (`full`). Counts and ratios come from the
/// obs counters accumulated over the measured ops only (`before` to
/// `after`); counts are per op, so they repeat exactly where every op does
/// the same work. The pool values cover the whole pass: every timed op runs
/// on one thread, and the pool's work is route's determinism check.
std::map<std::string, double> layer_metrics(const perfbench::Attribution& at,
                                            const obs::Snapshot& full,
                                            const obs::Snapshot& before,
                                            const obs::Snapshot& after, std::size_t ops) {
  std::map<std::string, double> out;
  const double wall = static_cast<double>(at.wall_ns);
  for (const auto& [name, totals] : at.main) {
    const char* metric = "bench.self_pct";
    for (const auto& [span, share] : kSpanLayer) {
      if (name == span) metric = share;
    }
    out[metric] += 100.0 * static_cast<double>(totals.self_ns) / wall;
  }
  out["unattributed_pct"] = 100.0 * static_cast<double>(at.unattributed_ns) / wall;
  for (const auto& [span, metric] : kObsSpanShare) {
    out[metric] = 100.0 * obs_span_ns(full, span) / wall;
  }

  const auto count = [&](const char* name) {
    return obs_counter(after, name) - obs_counter(before, name);
  };
  const auto per_op = [&](const char* name) { return ratio(count(name), static_cast<double>(ops)); };
  out["rg.accept_ratio"] = ratio(count("rg.edges_added"), count("rg.edges_examined"));
  out["rg.heap_pops_per_op"] = per_op("rg.heap_pops");
  out["cover.waste_ratio"] = ratio(count("cover.speculation_waste"), count("cover.centers"));
  const double idle = obs_counter(full, "pool.idle_ns");
  out["pool.idle_frac"] = ratio(idle, idle + obs_span_ns(full, "pool.chunk"));
  out["pool.dispatches"] = obs_counter(full, "pool.dispatches");
  out["pool.tasks"] = obs_counter(full, "pool.tasks");
  out["net.rounds_per_op"] = per_op("net.rounds");
  out["net.messages_per_op"] = per_op("net.messages");
  out["net.async.posted_per_op"] = per_op("net.async.posted");
  out["net.async.retries_per_op"] = per_op("net.async.retries");
  // Transmissions per application DATA message, as in E17: every post is a
  // first DATA send, a retransmission or an ACK.
  const double posted = count("net.async.posted");
  out["net.async.overhead"] =
      ratio(posted, posted - count("net.async.acks") - count("net.async.retries"));
  return out;
}

/// The layer table: inclusive and self time per bench-side span, the
/// unattributed rest of the wall time, then the obs snapshot.
std::string layer_table(const perfbench::Attribution& at, const obs::Snapshot& snap) {
  std::string out;
  char buf[256];
  const double wall_ms = 1e-6 * static_cast<double>(at.wall_ns);
  std::snprintf(buf, sizeof(buf), "traced wall time %.3f ms (main thread)\n\n", wall_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-22s %8s %12s %12s %8s\n", "span (main thread)", "count",
                "incl ms", "self ms", "self %");
  out += buf;
  std::int64_t self_sum = 0;
  for (const auto& [name, t] : at.main) {
    std::snprintf(buf, sizeof(buf), "%-22s %8lld %12.3f %12.3f %8.2f\n", name.c_str(),
                  static_cast<long long>(t.count), 1e-6 * static_cast<double>(t.incl_ns),
                  1e-6 * static_cast<double>(t.self_ns),
                  100.0 * static_cast<double>(t.self_ns) / static_cast<double>(at.wall_ns));
    out += buf;
    self_sum += t.self_ns;
  }
  std::snprintf(buf, sizeof(buf), "%-22s %8s %12s %12.3f %8.2f\n", "unattributed", "", "",
                1e-6 * static_cast<double>(at.unattributed_ns),
                100.0 * static_cast<double>(at.unattributed_ns) / static_cast<double>(at.wall_ns));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-22s %8s %12s %12.3f %8.2f\n\n", "sum", "", "",
                1e-6 * static_cast<double>(self_sum + at.unattributed_ns),
                100.0 * static_cast<double>(self_sum + at.unattributed_ns) /
                    static_cast<double>(at.wall_ns));
  out += buf;
  if (!at.other.empty()) {
    std::snprintf(buf, sizeof(buf), "%-22s %8s %12s %12s\n", "span (other threads)", "count",
                  "incl ms", "mean us");
    out += buf;
    for (const auto& [name, t] : at.other) {
      std::snprintf(buf, sizeof(buf), "%-22s %8lld %12.3f %12.3f\n", name.c_str(),
                    static_cast<long long>(t.count), 1e-6 * static_cast<double>(t.incl_ns),
                    1e-3 * ratio(static_cast<double>(t.incl_ns), static_cast<double>(t.count)));
      out += buf;
    }
    out += "\n";
  }
  out += "obs snapshot of the traced pass:\n";
  out += obs::to_json(snap);
  out += "\n";
  return out;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path);
  if (!os || !(os << text)) throw std::runtime_error("cannot write " + path.string());
}

void print_result(bool correct, const Tally& tally, const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, v, defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_localspan --workload span|route|churn|serve|dist [--seed S]\n"
               "                       [--seconds T] [--trace 0|1] [--quick]\n");
  return 2;
}

/// Removes the scratch input directory however the run ends.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Calls that take no thread count (core::verify_spanner) use the
  // LOCALSPAN_THREADS default; pin it so the environment cannot change a number.
  setenv("LOCALSPAN_THREADS", "1", 1);
  obs::set_enabled(false);
  obs::set_thread_label("main");

  Context ctx;
  bool seconds_given = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--quick") {
        ctx.quick = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        ctx.workload = value;
      } else if (flag == "--seed") {
        ctx.seed = static_cast<std::uint64_t>(api::parse_int("--seed", value));
      } else if (flag == "--seconds") {
        ctx.seconds = api::parse_double("--seconds", value);
        seconds_given = true;
      } else if (flag == "--trace") {
        ctx.trace = api::parse_int("--trace", value) != 0;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  if (!seconds_given && ctx.quick) ctx.seconds = 1.0;
  if (!(ctx.seconds > 0.0)) return usage();

  try {
    ScratchDir scratch{std::filesystem::path(".bench_out") /
                       ("inputs-" + ctx.workload + "-" + std::to_string(getpid()))};
    std::filesystem::create_directories(scratch.path);
    ctx.dir = scratch.path;

    Tally tally;
    std::unique_ptr<Workload> w = make_workload(ctx, tally);
    if (!w) return usage();
    HostSpeed host;
    std::printf("workload %s (%s), seed %llu, %.3g s%s\n", ctx.workload.c_str(),
                w->describe().c_str(), static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? ", traced" : "");

    std::map<std::string, double> values;
    std::vector<MetricDef> defs;
    if (!ctx.trace) {
      Pass pass;
      run_setups(*w, kMinSetups, ctx.quick ? 0.0 : kSetupBudgetS, host, pass);
      const std::size_t op_samples_from = host.samples();
      w->measure(ctx.seconds, host, pass);
      host.tick();
      // Before the checks, whose extra work (route's pool command) is not
      // part of an op.
      values["peak_rss_mb"] = peak_rss_mb();
      w->check();
      // Times are scaled to the reference host speed (see HostSpeed) by the
      // kernel samples of their own phase; the raw values are printed too.
      const double setup_f = host.setup_factor();
      const double op_f = host.op_factor(op_samples_from);
      const double raw[] = {quantile(pass.setup_s, 0.5), quantile(pass.op_ms, 0.5)};
      values["setup_s"] = setup_f * raw[0];
      values["op_p50_ms"] = op_f * raw[1];
      values["lightness"] = w->lightness;
      defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
      std::printf("host: graph+text kernels median %.3f ms over %zu set-up samples (reference "
                  "%.1f ms); graph kernel median %.3f ms over %zu op samples (reference %.1f ms); "
                  "checksum %.17g\n",
                  host.setup_median_ms(), host.setup_samples(), HostSpeed::kSetupReferenceMs,
                  host.graph_median_ms(op_samples_from), host.samples() - op_samples_from,
                  HostSpeed::kGraphReferenceMs, host.checksum());
      const std::size_t samples[] = {pass.setup_s.size(), pass.op_ms.size(), 1, 1};
      for (std::size_t i = 0; i < defs.size(); ++i) {
        std::printf("  %-12s %14.6g %-6s (%zu samples)", defs[i].name, values[defs[i].name],
                    defs[i].unit, samples[i]);
        if (i < std::size(raw)) std::printf("  raw %.6g %s", raw[i], defs[i].unit);
        std::printf("\n");
      }
      // The tail is printed, not reported: see README.md, "End-to-end metrics".
      std::printf("  %-12s %14.6g %-6s (%zu samples)  raw %.6g ms\n", "op_p90",
                  op_f * quantile(pass.op_ms, 0.9), "ms", pass.op_ms.size(),
                  quantile(pass.op_ms, 0.9));
    } else {
      Pass untraced;
      run_setups(*w, 1, 0.0, host, untraced);
      w->measure(ctx.seconds / 2, host, untraced);
      obs::reset();
      obs::set_enabled(true);
      perfbench::Recorder& rec = perfbench::Recorder::get();
      rec.start();
      Pass traced;
      run_setups(*w, 1, 0.0, host, traced);
      const obs::Snapshot before = obs::snapshot();
      w->measure(ctx.seconds / 2, host, traced);
      const obs::Snapshot after = obs::snapshot();
      w->check();
      rec.stop();
      obs::set_enabled(false);
      const obs::Snapshot snap = obs::snapshot();
      const perfbench::Attribution at = perfbench::attribute(rec);
      values = layer_metrics(at, snap, before, after, traced.op_ms.size());
      for (const auto& [name, v] : w->layer) values[name] = v;
      values["trace_overhead_pct"] =
          100.0 * (ratio(quantile(traced.op_ms, 0.5), quantile(untraced.op_ms, 0.5)) - 1.0);
      const std::string table = layer_table(at, snap);
      const std::string stem = ctx.workload + "-seed" + std::to_string(ctx.seed);
      write_file(std::filesystem::path(".bench_out") / (stem + "-trace.json"),
                 perfbench::chrome_trace(rec));
      write_file(std::filesystem::path(".bench_out") / (stem + "-layers.txt"), table);
      std::printf("%s", table.substr(0, table.find("obs snapshot")).c_str());
      std::printf("wrote .bench_out/%s-trace.json and .bench_out/%s-layers.txt\n", stem.c_str(),
                  stem.c_str());
      defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
      for (const MetricDef& d : defs) {
        std::printf("  %-24s %14.6g %s\n", d.name, values[d.name], d.unit);
      }
    }
    const bool correct = tally.failed == 0;
    std::fflush(stdout);
    print_result(correct, tally, defs, values);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_localspan: %s\n", e.what());
    return 1;
  }
}
