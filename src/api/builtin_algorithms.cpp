/// \file builtin_algorithms.cpp
/// Adapters registering every construction in the repo behind the unified
/// SpannerAlgorithm interface. Each adapter is self-describing (name, option
/// schema with defaults, capability flags) and declares, per request, exactly
/// the guarantees its construction carries — the scenario-matrix API test
/// enforces the declared subset and nothing more.
///
/// Guarantee policy constants follow core/verify.hpp: the paper's theorems
/// give O(1) bounds without explicit constants, so certification (and thus
/// declaration) uses the repo-wide policy caps VerifyCaps{64, 16.0}.

#include <stdexcept>

#include "api/spanner_algorithm.hpp"
#include "baseline/gabriel.hpp"
#include "baseline/rng_graph.hpp"
#include "baseline/yao.hpp"
#include "core/distributed.hpp"
#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "core/verify.hpp"
#include "ext/energy.hpp"
#include "ext/fault_tolerant.hpp"
#include "graph/mst.hpp"

namespace localspan::api {

namespace {

const core::VerifyCaps kPolicyCaps{};

/// Shared by every adapter with a parallel construction path; the registry
/// resolves it into the team construct() borrows. 0 defers to the
/// LOCALSPAN_THREADS env default (1 when unset); any value produces a
/// bit-identical topology (tests/test_parallel.cpp enforces this).
const OptionSpec kThreadsSpec{
    "threads", OptionType::kInt, "0",
    "worker threads for the parallel passes (0 = LOCALSPAN_THREADS env, else 1); "
    "output is bit-identical for every value"};

/// The relaxed-greedy family declares the paper's three properties: stretch
/// always (Theorem 10 holds for both presets), the degree cap only with the
/// covered-edge filter on (Theorem 11 needs it), the lightness cap only when
/// the Theorem 13 weight conditions hold AND redundancy removal ran.
[[nodiscard]] Guarantees relaxed_guarantees(const BuildRequest& req,
                                            const core::RelaxedGreedyOptions& opts) {
  Guarantees g;
  g.connectivity = true;
  g.stretch = req.params.t;
  if (opts.covered_edge_filter) g.max_degree = kPolicyCaps.max_degree;
  if (opts.redundancy_removal && req.params.satisfies_weight_conditions()) {
    g.lightness = kPolicyCaps.lightness;
  }
  return g;
}

[[nodiscard]] core::RelaxedGreedyOptions relaxed_options(const BuildRequest& req,
                                                        runtime::WorkerPool* pool = nullptr) {
  core::RelaxedGreedyOptions opts;
  opts.redundancy_removal = req.options.get_bool("redundancy", true);
  opts.covered_edge_filter = req.options.get_bool("covered-filter", true);
  opts.worker_pool = pool;
  return opts;
}

const std::vector<OptionSpec> kRelaxedOptionSchema{
    {"redundancy", OptionType::kBool, "true", "run the §2.2.5 redundant-edge-removal pass"},
    {"covered-filter", OptionType::kBool, "true", "run the §2.2.2 θ-cone covered-edge filter"},
};

/// Phase schema of the relaxed-greedy phase loop (the obs span names its
/// per-bin pipeline emits), shared by the sequential and distributed drivers.
const std::vector<std::string> kRelaxedPhaseSchema{
    "construct", "rg.bins",   "rg.phase0",        "rg.snapshot", "rg.cover",
    "rg.filter", "rg.select", "rg.cluster_graph", "rg.queries",  "rg.redundancy"};

class RelaxedAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "relaxed",
        "sequential relaxed greedy spanner (the paper's core algorithm)",
        "Damian-Pandit-Pemmaraju PODC'06 §2",
        [] {
          std::vector<OptionSpec> opts = kRelaxedOptionSchema;
          opts.push_back(kThreadsSpec);
          return opts;
        }(),
        {},
        kRelaxedPhaseSchema};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    return relaxed_guarantees(req, relaxed_options(req));
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool* pool) const override {
    core::RelaxedGreedyResult r =
        core::relaxed_greedy(req.inst, req.params, relaxed_options(req, pool));
    return {std::move(r.spanner), std::move(r.phases)};
  }
};

/// Parse the `net` option family into core::NetOptions. Fault knobs are only
/// meaningful on the async transport, so any of them under net=sync is a
/// hard error (the no-effect rejection policy every CLI surface follows).
[[nodiscard]] core::NetOptions distributed_net_options(const BuildRequest& req) {
  core::NetOptions net;
  const std::string mode = req.options.get_string("net", "sync");
  if (mode == "sync") {
    net.mode = core::NetMode::kSync;
  } else if (mode == "async") {
    net.mode = core::NetMode::kAsync;
  } else {
    throw std::invalid_argument("relaxed-dist: option net must be 'sync' or 'async', got '" +
                                mode + "'");
  }
  if (net.mode == core::NetMode::kSync) {
    for (const char* knob :
         {"loss", "dup", "reorder", "straggle", "partition", "net-seed", "retries"}) {
      if (req.options.has(knob)) {
        throw std::invalid_argument(std::string("relaxed-dist: option ") + knob +
                                    " has no effect under net=sync (pass net=async)");
      }
    }
    return net;
  }
  runtime::AdversaryConfig& adv = net.adversary;
  adv.seed = static_cast<std::uint64_t>(req.options.get_int("net-seed", 1));
  adv.drop_prob = req.options.get_double("loss", 0.0);
  adv.dup_prob = req.options.get_double("dup", 0.0);
  adv.reorder_prob = req.options.get_double("reorder", 0.0);
  adv.straggler_fraction = req.options.get_double("straggle", 0.0);
  const std::string part = req.options.get_string("partition", "");
  if (!part.empty()) {
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "relaxed-dist: option partition must be 'START:HEAL' virtual times "
          "(HEAL <= START means the cut never heals)");
    }
    runtime::AdversaryConfig::Partition p;
    p.start = parse_double("option partition (start)", part.substr(0, colon));
    p.heal = parse_double("option partition (heal)", part.substr(colon + 1));
    p.side_seed = adv.seed;
    adv.partitions.push_back(p);
  }
  net.reliable.max_attempts = req.options.get_int("retries", 24);
  adv.validate();
  net.reliable.validate();
  return net;
}

class DistributedAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "relaxed-dist",
        "distributed relaxed greedy on the message-passing simulator (sync or adversarial async)",
        "Damian-Pandit-Pemmaraju PODC'06 §3",
        [] {
          std::vector<OptionSpec> opts = kRelaxedOptionSchema;
          opts.push_back(kThreadsSpec);
          opts.push_back({"seed", OptionType::kInt, "1", "seed for the Luby MIS draws"});
          opts.push_back({"net", OptionType::kString, "sync",
                          "transport: sync (lockstep rounds) or async (adversarial event queue)"});
          opts.push_back({"loss", OptionType::kDouble, "0", "async: per-transmission drop probability"});
          opts.push_back({"dup", OptionType::kDouble, "0", "async: per-transmission duplication probability"});
          opts.push_back({"reorder", OptionType::kDouble, "0",
                          "async: probability of a heavy-tail reordering delay"});
          opts.push_back({"straggle", OptionType::kDouble, "0",
                          "async: fraction of nodes with 8x link latency"});
          opts.push_back({"partition", OptionType::kString, "",
                          "async: 'START:HEAL' timed partition (HEAL <= START never heals)"});
          opts.push_back({"net-seed", OptionType::kInt, "1", "async: adversary seed"});
          opts.push_back({"retries", OptionType::kInt, "24",
                          "async: per-message retry budget before RetryBudgetExhausted"});
          return opts;
        }(),
        {},
        kRelaxedPhaseSchema};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    return relaxed_guarantees(req, relaxed_options(req));
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool* pool) const override {
    const core::RelaxedGreedyOptions opts = relaxed_options(req, pool);
    const auto seed = static_cast<std::uint64_t>(req.options.get_int("seed", 1));
    const core::NetOptions net = distributed_net_options(req);
    core::DistributedResult r =
        core::distributed_relaxed_greedy(req.inst, req.params, opts, seed, net);
    return {std::move(r.base.spanner), std::move(r.base.phases)};
  }
};

class GreedyAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "greedy",
        "classical SEQ-GREEDY t-spanner (strongest quality baseline)",
        "Althoefer et al. [4], paper §1.4",
        {},
        {},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    Guarantees g;
    g.connectivity = true;
    g.stretch = req.params.t;
    g.max_degree = kPolicyCaps.max_degree;
    g.lightness = kPolicyCaps.lightness;
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {core::seq_greedy(req.inst.g, req.params.t), {}};
  }
};

/// Yao and Θ keep one G-neighbor per cone. On a *closed* instance (every
/// pair at distance <= 1 is an edge) with k >= 7 cones the classical
/// shorter-edge induction applies and connectivity is preserved; on general
/// α-UBGs the witness edge may be missing, so only subgraph is declared.
[[nodiscard]] Guarantees cone_guarantees(const BuildRequest& req, int k) {
  Guarantees g;
  g.connectivity = k >= 7 && gray_zone_closed(req.inst);
  return g;
}

class YaoAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "yao",
        "symmetrized Yao graph: nearest G-neighbor per cone",
        "Yao [20], paper §1.3",
        {{"k", OptionType::kInt, "8", "number of cones (>= 3)"}},
        {.dim2_only = true, .uses_params = false},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    return cone_guarantees(req, req.options.get_int("k", 8));
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {baseline::yao_graph(req.inst, req.options.get_int("k", 8)), {}};
  }
};

class ThetaAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "theta",
        "Θ-graph: nearest projection onto the cone bisector per cone",
        "theta-graph sibling of Yao [20]; Lemma 3 analysis",
        {{"k", OptionType::kInt, "8", "number of cones (>= 3)"}},
        {.dim2_only = true, .uses_params = false},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    return cone_guarantees(req, req.options.get_int("k", 8));
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {baseline::theta_graph(req.inst, req.options.get_int("k", 8)), {}};
  }
};

class GabrielAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "gabriel",
        "Gabriel graph: drop edges with a witness inside the diameter ball",
        "planar-backbone family, paper §1.3 [13-15]",
        {},
        {.dim2_only = false, .uses_params = false},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    Guarantees g;
    g.connectivity = gray_zone_closed(req.inst);
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {baseline::gabriel_graph(req.inst), {}};
  }
};

class RngAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "rng",
        "relative neighborhood graph (the XTC topology)",
        "XTC [19], paper §1.3",
        {},
        {.dim2_only = false, .uses_params = false},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    Guarantees g;
    g.connectivity = gray_zone_closed(req.inst);
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {baseline::relative_neighborhood_graph(req.inst), {}};
  }
};

class EdgeFaultTolerantAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "ft-edge",
        "greedy k-edge fault-tolerant t-spanner",
        "paper §1.6 ext. 1, Czumaj-Zhao [2]",
        {{"k", OptionType::kInt, "1", "number of edge faults tolerated (>= 0)"}, kThreadsSpec},
        {},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    Guarantees g;
    g.connectivity = true;
    g.stretch = req.params.t;
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool* pool) const override {
    return {ext::fault_tolerant_greedy(req.inst.g, req.params.t, req.options.get_int("k", 1), pool),
            {}};
  }
};

class VertexFaultTolerantAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "ft-vertex",
        "greedy k-vertex fault-tolerant t-spanner (denser, stronger guarantee)",
        "paper §1.6 ext. 1, Czumaj-Zhao [2]",
        {{"k", OptionType::kInt, "1", "number of vertex faults tolerated (>= 0)"}, kThreadsSpec},
        {},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    Guarantees g;
    g.connectivity = true;
    g.stretch = req.params.t;
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool* pool) const override {
    return {ext::fault_tolerant_greedy_vertex(req.inst.g, req.params.t,
                                              req.options.get_int("k", 1), pool),
            {}};
  }
};

class EnergyAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "energy",
        "relaxed greedy under energy weights c*len^gamma (metrics vs the reweighted graph)",
        "paper §1.6 ext. 2-3",
        [] {
          std::vector<OptionSpec> opts = kRelaxedOptionSchema;
          opts.push_back({"c", OptionType::kDouble, "1.0", "energy cost scale (> 0)"});
          opts.push_back({"gamma", OptionType::kDouble, "2.0", "path-loss exponent (>= 1)"});
          opts.push_back(kThreadsSpec);
          return opts;
        }(),
        {},
        kRelaxedPhaseSchema};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest& req) const override {
    return relaxed_guarantees(req, relaxed_options(req));
  }

  // Guarantees hold in the energy metric; measure against the reweighted
  // input graph accordingly.
  std::optional<graph::Graph> metric_reference(const BuildRequest& req) const override {
    return ext::energy_reweight(req.inst, req.inst.g, req.options.get_double("c", 1.0),
                                req.options.get_double("gamma", 2.0));
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool* pool) const override {
    core::RelaxedGreedyOptions opts = relaxed_options(req, pool);
    opts.weight_transform = ext::energy_transform(req.options.get_double("c", 1.0),
                                                  req.options.get_double("gamma", 2.0));
    core::RelaxedGreedyResult r = core::relaxed_greedy(req.inst, req.params, opts);
    return {std::move(r.spanner), std::move(r.phases)};
  }
};

class MstAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "mst",
        "minimum spanning forest (weight lower bound; unbounded stretch)",
        "Kruskal; E6 reference row",
        {},
        {.dim2_only = false, .uses_params = false},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest&) const override {
    Guarantees g;
    g.connectivity = true;
    g.lightness = 1.0;  // the MSF is the lightness normalizer itself.
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {graph::minimum_spanning_forest(req.inst.g), {}};
  }
};

class MaxPowerAlgorithm final : public SpannerAlgorithm {
 public:
  const AlgorithmInfo& info() const override {
    static const AlgorithmInfo kInfo{
        "maxpower",
        "no topology control: the full α-UBG itself (stretch-1 reference)",
        "E6 reference row",
        {},
        {.dim2_only = false, .uses_params = false},
        {}};
    return kInfo;
  }

  Guarantees guarantees(const BuildRequest&) const override {
    Guarantees g;
    g.connectivity = true;
    g.stretch = 1.0;
    return g;
  }

  Construction construct(const BuildRequest& req, runtime::WorkerPool*) const override {
    return {req.inst.g, {}};
  }
};

}  // namespace

void register_builtin_algorithms(AlgorithmRegistry& reg) {
  reg.add(std::make_unique<RelaxedAlgorithm>());
  reg.add(std::make_unique<DistributedAlgorithm>());
  reg.add(std::make_unique<GreedyAlgorithm>());
  reg.add(std::make_unique<YaoAlgorithm>());
  reg.add(std::make_unique<ThetaAlgorithm>());
  reg.add(std::make_unique<GabrielAlgorithm>());
  reg.add(std::make_unique<RngAlgorithm>());
  reg.add(std::make_unique<EdgeFaultTolerantAlgorithm>());
  reg.add(std::make_unique<VertexFaultTolerantAlgorithm>());
  reg.add(std::make_unique<EnergyAlgorithm>());
  reg.add(std::make_unique<MstAlgorithm>());
  reg.add(std::make_unique<MaxPowerAlgorithm>());
}

}  // namespace localspan::api
