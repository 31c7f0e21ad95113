#pragma once
/// \file spanner_algorithm.hpp
/// The unified topology-control build API.
///
/// Every construction in the repo — the paper's relaxed greedy algorithm
/// (sequential and distributed), classical SEQ-GREEDY, the Yao/Θ/Gabriel/RNG
/// baselines, the §1.6 fault-tolerance and energy extensions, and the trivial
/// MST / max-power reference topologies — sits behind one polymorphic
/// `SpannerAlgorithm` interface keyed by name in the `AlgorithmRegistry`
/// (following the taxonomy argument of Brust–Rothkugel and the
/// algorithm-family construction of Kluge et al.): a `BuildRequest`
/// (instance + core::Params + generic option map) goes in, a `BuildResult`
/// (spanner, timings, uniform quality metrics, declared guarantees, optional
/// phase trace) comes out. The CLI, the E6 comparison bench and the
/// scenario-matrix API test all drive constructions exclusively through this
/// layer, so adding an algorithm means writing one adapter and registering
/// it — every consumer picks it up by name.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "graph/graph.hpp"
#include "ubg/generator.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::api {

/// Type of one algorithm option (schemas are self-describing for --algo
/// list, the README table generator and typed validation).
enum class OptionType { kInt, kDouble, kBool, kString };

[[nodiscard]] const char* to_string(OptionType t) noexcept;

/// Strict numeric parsing shared by Options and the CLI flag parser: the
/// whole string must parse and the value must fit the target type — trailing
/// garbage, empty strings and out-of-range magnitudes all throw
/// std::invalid_argument naming `what` (e.g. "option k" or "--eps").
[[nodiscard]] int parse_int(const std::string& what, const std::string& value);
[[nodiscard]] double parse_double(const std::string& what, const std::string& value);

/// One entry of an algorithm's option schema.
struct OptionSpec {
  std::string key;
  OptionType type = OptionType::kString;
  std::string default_value;  ///< textual default, as accepted by Options.
  std::string description;
};

/// Generic key/value option map with typed accessors. Values are carried as
/// strings (the CLI's `--opt k=9` form); typed getters parse on access and
/// throw std::invalid_argument on malformed values. Keys unknown to an
/// algorithm's schema are rejected up front by validate_against — a typo'd
/// option can never be silently ignored.
class Options {
 public:
  Options() = default;

  /// Parse one "key=value" item (the CLI form). \throws std::invalid_argument
  /// when '=' is missing or the key is empty.
  static Options parse(const std::vector<std::string>& kv_items);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  /// Typed accessors: return the stored value parsed as the requested type,
  /// or `dflt` when the key is absent. \throws std::invalid_argument when a
  /// stored value does not parse as the requested type (full-string match).
  [[nodiscard]] int get_int(const std::string& key, int dflt) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt) const;
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& dflt) const;

  /// Reject unknown keys and type-check every provided value against the
  /// schema. \throws std::invalid_argument naming the offending key and the
  /// known options of `algo`.
  void validate_against(const std::vector<OptionSpec>& schema, const std::string& algo) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Capability flags a consumer can dispatch on without knowing the
/// algorithm (the registry enforces dim2_only before construction). What
/// an option schema already says — a structural `k`, a `seed`, the `net`
/// transport family, `threads` — is read from it with AlgorithmInfo::accepts.
struct Capabilities {
  bool dim2_only = false;     ///< construction defined for dim == 2 only.
  bool uses_params = true;    ///< output depends on core::Params (t, θ, δ, ...).
};

/// The guarantees an algorithm declares for a concrete request. Zero /
/// false means "not guaranteed" — the scenario-matrix API test checks
/// exactly the declared subset against independent measurements.
struct Guarantees {
  bool subgraph = true;        ///< output edges are edges of the input graph.
  bool connectivity = false;   ///< component structure of G preserved.
  double stretch = 0.0;        ///< > 0: max edge stretch <= this (build metric).
  int max_degree = 0;          ///< > 0: maximum degree <= this (policy cap).
  double lightness = 0.0;      ///< > 0: w(G')/w(MSF) <= this (policy cap).

  /// Compact rendering for --algo list / bench tables, e.g.
  /// "stretch<=1.50 deg<=64 light<=16 conn" or "subgraph".
  [[nodiscard]] std::string describe() const;
};

/// Self-description: everything the CLI enumeration, the README table and
/// the registry's validation need, with no construction run.
struct AlgorithmInfo {
  std::string name;                  ///< registry key, e.g. "relaxed-dist".
  std::string summary;               ///< one-line description.
  std::string reference;             ///< paper / source attribution.
  std::vector<OptionSpec> options;   ///< accepted options with defaults.
  Capabilities caps;
  /// The obs span names this algorithm's construction emits — ONE shared
  /// phase schema for every consumer (the registry diffs obs::span_totals()
  /// around construct() and reports exactly these, in this order). Empty
  /// means the construction is opaque: {"construct"} only. The API test
  /// fails when a declared phase never fires on a covered scenario.
  std::vector<std::string> phases;

  /// True iff the option schema declares `key`.
  [[nodiscard]] bool accepts(const std::string& key) const;
};

/// Input to one build: a generated instance, the paper's parameterization
/// and the algorithm-specific options. The instance must outlive the call.
struct BuildRequest {
  const ubg::UbgInstance& inst;
  core::Params params;
  Options options;
};

/// Uniform quality record measured by the registry (against the algorithm's
/// metric reference graph — the input α-UBG, or its energy reweighting for
/// transformed-metric constructions).
struct QualityMetrics {
  int edges = 0;
  double edges_per_node = 0.0;
  int max_degree = 0;
  double stretch = 0.0;      ///< max edge stretch, capped at 64.
  double lightness = 0.0;    ///< w(G')/w(MSF(reference)).
  double power_ratio = 0.0;  ///< power_cost(G') / power_cost(reference).
};

/// What an adapter's construct() returns; the registry wraps it into the
/// user-facing BuildResult (timing + uniform metrics). Guarantees and the
/// metric reference are declared via their own virtuals so that the timed
/// construct() call contains construction work only.
struct Construction {
  graph::Graph spanner;
  std::vector<core::PhaseStats> phases;  ///< optional per-phase trace.
};

/// One phase of a build, as measured by the obs layer (name is the obs span
/// name; count is how many times the span fired during construct()).
struct PhaseCost {
  std::string name;
  std::int64_t count = 0;
  double seconds = 0.0;
};

/// Outcome of AlgorithmRegistry::build.
struct BuildResult {
  graph::Graph spanner;
  double seconds = 0.0;  ///< wall time of construction only (no measurement).
  QualityMetrics metrics;
  Guarantees guarantees;
  std::vector<core::PhaseStats> phases;
  /// The graph `metrics` were measured against when it is not the input UBG
  /// (transformed-metric constructions) — consumers verifying the result
  /// independently must compare against this same reference.
  std::optional<graph::Graph> metric_reference;
  /// The full core::certify of the spanner against the metric reference,
  /// bounded by the declared guarantees; `metrics` and check_guarantees
  /// read it. All false when the build ran with measure=false.
  core::VerificationReport certificate;
  /// Per-phase wall costs in AlgorithmInfo::phases order, populated only
  /// when obs::enabled(): the registry diffs obs::span_totals() around the
  /// construct() call and filters to the declared schema, so every
  /// algorithm reports phases through the same pipeline. Phases that did
  /// not fire (e.g. every bin empty) are omitted.
  std::vector<PhaseCost> phase_breakdown;
};

/// A named topology-control construction. Implementations are stateless;
/// every per-request knob arrives via BuildRequest.
class SpannerAlgorithm {
 public:
  virtual ~SpannerAlgorithm() = default;

  [[nodiscard]] virtual const AlgorithmInfo& info() const = 0;

  /// The guarantees declared for this concrete request. Purely
  /// request-derived (never depends on the construction's output) and run
  /// outside the timed window — predicates like gray_zone_closed are free to
  /// scan the instance here without skewing BuildResult::seconds.
  [[nodiscard]] virtual Guarantees guarantees(const BuildRequest& req) const = 0;

  /// The graph quality metrics are measured against, when it is not the
  /// input UBG itself (e.g. the energy reweighting for transformed-metric
  /// constructions). Run outside the timed window.
  [[nodiscard]] virtual std::optional<graph::Graph> metric_reference(const BuildRequest&) const {
    return std::nullopt;
  }

  /// Run the construction on the build's worker team (`pool`, borrowed;
  /// null means serial). The registry has already validated options and
  /// capabilities when this is called; only this call is timed into
  /// BuildResult::seconds. \throws std::invalid_argument on request values
  /// outside the algorithm's domain.
  [[nodiscard]] virtual Construction construct(const BuildRequest& req,
                                               runtime::WorkerPool* pool) const = 0;
};

/// String-keyed registry over every known construction. The global instance
/// (`registry()`) is pre-populated with all built-in algorithms.
class AlgorithmRegistry {
 public:
  AlgorithmRegistry() = default;
  AlgorithmRegistry(const AlgorithmRegistry&) = delete;
  AlgorithmRegistry& operator=(const AlgorithmRegistry&) = delete;

  /// \throws std::invalid_argument on a duplicate or empty name.
  void add(std::unique_ptr<SpannerAlgorithm> algo);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// \throws std::invalid_argument naming the available algorithms when
  /// `name` is unknown.
  [[nodiscard]] const SpannerAlgorithm& at(const std::string& name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] int size() const noexcept { return static_cast<int>(algos_.size()); }

  /// The one entry point every consumer builds through: resolves `name`,
  /// rejects unknown options (and dim-2-only algorithms on higher-dimensional
  /// instances), validates params, times the construction and measures the
  /// uniform quality metrics. The `threads` option (absent: the
  /// LOCALSPAN_THREADS default) is resolved here into at most one worker
  /// team, which the construction borrows and the measure pass reuses. Pass
  /// measure=false when the caller discards the metrics (e.g. it only wants
  /// the spanner): the superlinear measurements (stretch, lightness, power)
  /// are skipped and left zero, and check_guarantees must not be applied to
  /// such a result. \throws std::invalid_argument on any validation failure.
  [[nodiscard]] BuildResult build(const std::string& name, const BuildRequest& req,
                                  bool measure = true) const;

 private:
  std::map<std::string, std::unique_ptr<SpannerAlgorithm>> algos_;
};

/// The process-wide registry, populated with the built-in algorithms on
/// first use (thread-safe via static-local initialization).
[[nodiscard]] const AlgorithmRegistry& registry();

/// Register every built-in construction into `reg` (exposed so tests can
/// build private registries).
void register_builtin_algorithms(AlgorithmRegistry& reg);

/// Check `result`'s declared guarantees (a subgraph's edge weights
/// included) against the certificate the registry measured on `inst`.
/// Returns an empty string when every declared guarantee holds, else a
/// description of the first violation. Shared by tests and the CLI.
[[nodiscard]] std::string check_guarantees(const ubg::UbgInstance& inst, const BuildResult& result);

/// True iff every node pair at distance <= 1 is a G-edge (the instance is a
/// "closed" UDG — always-connect gray zone). Proximity-graph baselines
/// (Gabriel, RNG, Yao, Θ) only preserve connectivity on closed instances,
/// so their adapters condition that declared guarantee on this predicate.
[[nodiscard]] bool gray_zone_closed(const ubg::UbgInstance& inst);

}  // namespace localspan::api
