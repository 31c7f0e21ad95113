#include "api/spanner_algorithm.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "geom/grid.hpp"
#include "graph/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::api {

namespace {

[[nodiscard]] std::string join_keys(const std::vector<OptionSpec>& schema) {
  if (schema.empty()) return "(none)";
  std::string out;
  for (const OptionSpec& spec : schema) {
    if (!out.empty()) out += ", ";
    out += spec.key;
  }
  return out;
}

}  // namespace

int parse_int(const std::string& what, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw std::invalid_argument(what + ": expected an integer, got '" + value + "'");
  }
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
    throw std::invalid_argument(what + ": integer out of range: '" + value + "'");
  }
  return static_cast<int>(v);
}

double parse_double(const std::string& what, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw std::invalid_argument(what + ": expected a number, got '" + value + "'");
  }
  if (errno == ERANGE && std::abs(v) == HUGE_VAL) {
    throw std::invalid_argument(what + ": number out of range: '" + value + "'");
  }
  return v;
}

const char* to_string(OptionType t) noexcept {
  switch (t) {
    case OptionType::kInt: return "int";
    case OptionType::kDouble: return "double";
    case OptionType::kBool: return "bool";
    case OptionType::kString: return "string";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

Options Options::parse(const std::vector<std::string>& kv_items) {
  Options out;
  for (const std::string& item : kv_items) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("option '" + item + "' is not of the form key=value");
    }
    const std::string key = item.substr(0, eq);
    if (out.has(key)) {
      throw std::invalid_argument("option '" + key + "' given more than once");
    }
    out.set(key, item.substr(eq + 1));
  }
  return out;
}

void Options::set(const std::string& key, const std::string& value) {
  if (key.empty()) throw std::invalid_argument("Options: empty option key");
  values_[key] = value;
}

bool Options::has(const std::string& key) const { return values_.contains(key); }

int Options::get_int(const std::string& key, int dflt) const {
  auto it = values_.find(key);
  return it == values_.end() ? dflt : parse_int("option " + key, it->second);
}

double Options::get_double(const std::string& key, double dflt) const {
  auto it = values_.find(key);
  return it == values_.end() ? dflt : parse_double("option " + key, it->second);
}

bool Options::get_bool(const std::string& key, bool dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("option " + key + ": expected a boolean (true/false), got '" + v +
                              "'");
}

std::string Options::get_string(const std::string& key, const std::string& dflt) const {
  auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

void Options::validate_against(const std::vector<OptionSpec>& schema,
                               const std::string& algo) const {
  for (const auto& [key, value] : values_) {
    const auto spec = std::find_if(schema.begin(), schema.end(),
                                   [&](const OptionSpec& s) { return s.key == key; });
    if (spec == schema.end()) {
      throw std::invalid_argument("algorithm '" + algo + "' does not accept option '" + key +
                                  "' (known options: " + join_keys(schema) + ")");
    }
    // Type-check by round-tripping through the typed accessor.
    switch (spec->type) {
      case OptionType::kInt: static_cast<void>(get_int(key, 0)); break;
      case OptionType::kDouble: static_cast<void>(get_double(key, 0.0)); break;
      case OptionType::kBool: static_cast<void>(get_bool(key, false)); break;
      case OptionType::kString: break;
    }
    static_cast<void>(value);
  }
}

// ---------------------------------------------------------------------------
// Guarantees
// ---------------------------------------------------------------------------

std::string Guarantees::describe() const {
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (!out.empty()) out += ' ';
    out += part;
  };
  if (subgraph) append("subgraph");
  if (stretch > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "stretch<=%.2f", stretch);
    append(buf);
  }
  if (max_degree > 0) append("deg<=" + std::to_string(max_degree));
  if (lightness > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "light<=%.0f", lightness);
    append(buf);
  }
  if (connectivity) append("conn");
  return out.empty() ? "-" : out;
}

bool AlgorithmInfo::accepts(const std::string& key) const {
  return std::any_of(options.begin(), options.end(),
                     [&](const OptionSpec& spec) { return spec.key == key; });
}

// ---------------------------------------------------------------------------
// AlgorithmRegistry
// ---------------------------------------------------------------------------

void AlgorithmRegistry::add(std::unique_ptr<SpannerAlgorithm> algo) {
  if (!algo) throw std::invalid_argument("AlgorithmRegistry: null algorithm");
  const std::string name = algo->info().name;
  if (name.empty()) throw std::invalid_argument("AlgorithmRegistry: empty algorithm name");
  if (algos_.contains(name)) {
    throw std::invalid_argument("AlgorithmRegistry: duplicate algorithm '" + name + "'");
  }
  algos_[name] = std::move(algo);
}

bool AlgorithmRegistry::contains(const std::string& name) const { return algos_.contains(name); }

const SpannerAlgorithm& AlgorithmRegistry::at(const std::string& name) const {
  auto it = algos_.find(name);
  if (it == algos_.end()) {
    std::string known;
    for (const auto& [key, value] : algos_) {
      if (!known.empty()) known += ", ";
      known += key;
      static_cast<void>(value);
    }
    throw std::invalid_argument("unknown algorithm '" + name + "' (available: " + known + ")");
  }
  return *it->second;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& [key, value] : algos_) {
    out.push_back(key);
    static_cast<void>(value);
  }
  return out;  // std::map iteration order is already sorted.
}

BuildResult AlgorithmRegistry::build(const std::string& name, const BuildRequest& req,
                                     bool measure) const {
  const SpannerAlgorithm& algo = at(name);
  const AlgorithmInfo& info = algo.info();
  req.options.validate_against(info.options, info.name);
  if (info.caps.dim2_only && req.inst.config.dim != 2) {
    throw std::invalid_argument("algorithm '" + name + "' is defined for dim == 2 only (instance has dim " +
                                std::to_string(req.inst.config.dim) + ")");
  }
  if (info.caps.uses_params) req.params.validate();

  // Declaration and the metric reference are request-derived measurement
  // inputs — both stay outside the timed window.
  const Guarantees guarantees = algo.guarantees(req);
  std::optional<graph::Graph> metric_reference = algo.metric_reference(req);

  // The build's one worker team: the caller's, or one made here. Options
  // were validated against the schema, so an algorithm without a `threads`
  // option reads 0, the LOCALSPAN_THREADS default and gets a team only for
  // the measure pass. Bit-identical at every thread count.
  const int threads = runtime::resolve_threads(req.options.get_int("threads", 0));
  if (req.pool && req.options.has("threads") && threads != req.pool->threads()) {
    throw std::invalid_argument("option threads=" + std::to_string(threads) +
                                " differs from the lent pool's " +
                                std::to_string(req.pool->threads()) + " threads");
  }
  std::optional<runtime::WorkerPool> team;
  if (!req.pool && threads > 1 && (measure || info.accepts("threads"))) team.emplace(threads);
  runtime::WorkerPool* const pool = req.pool ? req.pool : team ? &*team : nullptr;

  // Phase accounting rides the obs layer: diff the global span totals
  // around the timed call and filter to the algorithm's declared schema.
  // The "construct" span wraps every algorithm, so even opaque baselines
  // report a one-row breakdown through the same pipeline.
  const bool obs_on = obs::enabled();
  std::vector<obs::SpanStat> spans_before;
  if (obs_on) spans_before = obs::span_totals();

  const auto t0 = std::chrono::steady_clock::now();
  Construction c = [&] {
    static const obs::MetricId construct_span = obs::span_id("construct");
    const obs::Span span(construct_span);
    return algo.construct(req, pool);
  }();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  BuildResult res{std::move(c.spanner), seconds,       {},
                  guarantees,           std::move(c.phases), std::move(metric_reference),
                  {},                   {}};
  if (obs_on) {
    const std::vector<obs::SpanStat> spans_after = obs::span_totals();
    const auto totals_of = [](const std::vector<obs::SpanStat>& stats, const std::string& name) {
      for (const obs::SpanStat& s : stats) {
        if (s.name == name) return std::pair<std::int64_t, std::int64_t>{s.count, s.total_ns};
      }
      return std::pair<std::int64_t, std::int64_t>{0, 0};
    };
    const std::vector<std::string> fallback{"construct"};
    const std::vector<std::string>& declared = info.phases.empty() ? fallback : info.phases;
    for (const std::string& phase : declared) {
      const auto [count0, ns0] = totals_of(spans_before, phase);
      const auto [count1, ns1] = totals_of(spans_after, phase);
      if (count1 > count0) {
        res.phase_breakdown.push_back({phase, count1 - count0, (ns1 - ns0) * 1e-9});
      }
    }
  }
  const graph::Graph& ref = res.metric_reference ? *res.metric_reference : req.inst.g;
  res.metrics.edges = res.spanner.m();
  res.metrics.edges_per_node =
      res.spanner.n() > 0 ? static_cast<double>(res.spanner.m()) / res.spanner.n() : 0.0;
  res.metrics.max_degree = res.spanner.max_degree();
  if (measure) {
    static const obs::MetricId measure_span = obs::span_id("api.measure");
    const obs::Span span(measure_span);
    // Undeclared bounds are unbounded, so the certificate flags only what
    // the algorithm promised.
    const Guarantees& g = guarantees;
    res.certificate = core::certify(
        ref, res.spanner, {}, g.stretch > 0.0 ? g.stretch : graph::kInf,
        {g.max_degree > 0 ? g.max_degree : INT_MAX, g.lightness > 0.0 ? g.lightness : graph::kInf},
        {}, pool);
    res.metrics.stretch = res.certificate.measured_stretch;
    res.metrics.lightness = res.certificate.measured_lightness;
    const double ref_power = graph::power_cost(ref);
    res.metrics.power_ratio = ref_power > 0.0 ? graph::power_cost(res.spanner) / ref_power : 0.0;
  }
  return res;
}

const AlgorithmRegistry& registry() {
  // Intentionally leaked: built once, immutable afterwards, alive for the
  // whole process (no destruction-order hazards for static consumers).
  static const AlgorithmRegistry* reg = [] {
    auto* r = new AlgorithmRegistry();
    register_builtin_algorithms(*r);
    return r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Guarantee checking (shared by tests and the CLI)
// ---------------------------------------------------------------------------

std::string check_guarantees(const ubg::UbgInstance&, const BuildResult& result) {
  const Guarantees& g = result.guarantees;
  const core::VerificationReport& rep = result.certificate;
  const struct {
    bool declared, holds;
    const char* what;
  } checks[] = {{g.subgraph, rep.is_subgraph && rep.weights_match, "subgraph"},
                {g.connectivity, rep.connectivity_ok, "connectivity"},
                {g.stretch > 0.0, rep.stretch_ok, "stretch"},
                {g.max_degree > 0, rep.degree_ok, "max degree"},
                {g.lightness > 0.0, rep.lightness_ok, "lightness"}};
  for (const auto& c : checks) {
    if (c.declared && !c.holds) return std::string("declared ") + c.what + ", but " + rep.summary();
  }
  return {};
}

bool gray_zone_closed(const ubg::UbgInstance& inst) {
  // Every pair at distance <= 1 must be an edge; count pairs via the spatial
  // grid (near-linear for the evaluation densities) and compare against m.
  const geom::Grid grid(inst.points, 1.0);
  int pairs = 0;
  for (int i = 0; i < inst.g.n(); ++i) {
    bool missing = false;
    grid.for_neighbors_within(i, 1.0, [&](int j, double) {
      if (i < j) {
        ++pairs;
        if (!inst.g.has_edge(i, j)) missing = true;
      }
    });
    if (missing) return false;
  }
  return pairs == inst.g.m();
}

}  // namespace localspan::api
