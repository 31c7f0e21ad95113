// The unified build API: AlgorithmRegistry resolution, option validation
// (unknown-key rejection, typed parsing), and the full cross product of
// every registered algorithm with the scenario matrix, checking each
// algorithm's declared guarantees against independent measurements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/spanner_algorithm.hpp"
#include "core/params.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "scenario_matrix.hpp"

namespace api = localspan::api;
namespace core = localspan::core;
namespace obs = localspan::obs;
namespace testinfra = localspan::testinfra;
using localspan::ubg::UbgInstance;

namespace {

core::Params practical(double alpha) { return core::Params::practical_params(0.5, alpha); }

/// Flip obs on for one test body and restore the off default on every exit
/// path (ASSERT_* returns early; the destructor still runs).
struct ObsEnabledScope {
  ObsEnabledScope() { obs::set_enabled(true); }
  ~ObsEnabledScope() {
    obs::set_enabled(false);
    obs::reset();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry surface.
// ---------------------------------------------------------------------------

TEST(Registry, ExposesTheFullAlgorithmFamily) {
  const api::AlgorithmRegistry& reg = api::registry();
  EXPECT_GE(reg.size(), 9);
  for (const char* name : {"relaxed", "relaxed-dist", "greedy", "yao", "theta", "gabriel", "rng",
                           "ft-edge", "ft-vertex", "energy", "mst", "maxpower"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    const api::AlgorithmInfo& info = reg.at(name).info();
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.summary.empty()) << name;
    EXPECT_FALSE(info.reference.empty()) << name;
  }
  const std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(static_cast<int>(names.size()), reg.size());
}

TEST(Registry, UnknownAlgorithmNamesTheAvailableOnes) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  try {
    static_cast<void>(
        api::registry().build("bogus", api::BuildRequest{inst, practical(inst.config.alpha), {}}));
    FAIL() << "unknown algorithm accepted";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("unknown algorithm 'bogus'"), std::string::npos);
    EXPECT_NE(std::string(ex.what()).find("relaxed"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  api::AlgorithmRegistry reg;
  api::register_builtin_algorithms(reg);
  EXPECT_GE(reg.size(), 9);
  EXPECT_THROW(api::register_builtin_algorithms(reg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Options: typed accessors, unknown-key rejection.
// ---------------------------------------------------------------------------

TEST(Options, ParsesKeyValueItems) {
  const api::Options opts = api::Options::parse({"k=9", "redundancy=false", "name=x"});
  EXPECT_EQ(opts.get_int("k", 0), 9);
  EXPECT_FALSE(opts.get_bool("redundancy", true));
  EXPECT_EQ(opts.get_string("name", ""), "x");
  EXPECT_EQ(opts.get_int("absent", 42), 42);
  EXPECT_THROW(api::Options::parse({"k9"}), std::invalid_argument);
  EXPECT_THROW(api::Options::parse({"=9"}), std::invalid_argument);
}

TEST(Options, TypedAccessorsRejectMalformedValues) {
  api::Options opts;
  opts.set("k", "abc");
  opts.set("flag", "maybe");
  EXPECT_THROW(static_cast<void>(opts.get_int("k", 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(opts.get_double("k", 0.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(opts.get_bool("flag", false)), std::invalid_argument);
}

TEST(Options, UnknownKeysAreRejectedUpFront) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  api::Options opts;
  opts.set("kk", "9");
  try {
    static_cast<void>(api::registry().build(
        "yao", api::BuildRequest{inst, practical(inst.config.alpha), std::move(opts)}));
    FAIL() << "unknown option accepted";
  } catch (const std::invalid_argument& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("does not accept option 'kk'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("known options: k"), std::string::npos) << msg;
  }
}

TEST(Options, TypeMismatchIsRejectedUpFront) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  api::Options opts;
  opts.set("k", "many");
  EXPECT_THROW(static_cast<void>(api::registry().build(
                   "yao", api::BuildRequest{inst, practical(inst.config.alpha), std::move(opts)})),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Capability enforcement and request plumbing.
// ---------------------------------------------------------------------------

TEST(Registry, Dim2OnlyAlgorithmsRejectHigherDimensions) {
  testinfra::Scenario sc;
  sc.dim = 3;
  sc.alpha = 0.75;
  const UbgInstance inst = sc.make();
  for (const char* name : {"yao", "theta"}) {
    try {
      static_cast<void>(api::registry().build(
          name, api::BuildRequest{inst, practical(inst.config.alpha), {}}));
      FAIL() << name << " accepted a dim-3 instance";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("dim == 2"), std::string::npos);
    }
  }
}

TEST(Registry, DeterministicGivenIdenticalRequests) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  const core::Params params = practical(inst.config.alpha);
  for (const char* name : {"relaxed", "yao", "relaxed-dist"}) {
    const api::BuildResult a = api::registry().build(name, api::BuildRequest{inst, params, {}});
    const api::BuildResult b = api::registry().build(name, api::BuildRequest{inst, params, {}});
    EXPECT_EQ(a.spanner, b.spanner) << name;
  }
}

TEST(Registry, OptionsReachTheConstruction) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  const core::Params params = practical(inst.config.alpha);
  api::Options k6;
  k6.set("k", "6");
  api::Options k12;
  k12.set("k", "12");
  const api::BuildResult few =
      api::registry().build("yao", api::BuildRequest{inst, params, std::move(k6)});
  const api::BuildResult many =
      api::registry().build("yao", api::BuildRequest{inst, params, std::move(k12)});
  EXPECT_LT(few.spanner.m(), many.spanner.m());

  // Ablation options flow into the relaxed pipeline: disabling the
  // covered-edge filter forfeits the declared degree cap.
  api::Options ablate;
  ablate.set("covered-filter", "false");
  const api::BuildResult nofilter =
      api::registry().build("relaxed", api::BuildRequest{inst, params, std::move(ablate)});
  EXPECT_EQ(nofilter.guarantees.max_degree, 0);
}

TEST(Registry, RelaxedFamilyReportsPhaseTrace) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  const api::BuildResult res =
      api::registry().build("relaxed", api::BuildRequest{inst, practical(inst.config.alpha), {}});
  EXPECT_FALSE(res.phases.empty());
  EXPECT_GT(res.seconds, 0.0);
}

// Satellite fix for the PhaseStats inconsistency: every algorithm reports
// phases through the SAME pipeline (the registry diffs obs span totals
// around construct() and filters to AlgorithmInfo::phases), so a declared
// phase that never fires — or a fired phase that was never declared — is a
// test failure, not a silent schema drift.
TEST(Registry, ObsPhaseBreakdownMatchesDeclaredSchema) {
  const ObsEnabledScope obs_scope;
  const UbgInstance inst = testinfra::Scenario{}.make();
  const core::Params params = practical(inst.config.alpha);

  for (const std::string& name : api::registry().names()) {
    const api::AlgorithmInfo& info = api::registry().at(name).info();
    if (info.caps.dim2_only && inst.config.dim != 2) continue;
    const api::BuildResult res =
        api::registry().build(name, api::BuildRequest{inst, params, {}}, /*measure=*/false);
    const std::vector<std::string> fallback{"construct"};
    const std::vector<std::string>& declared = info.phases.empty() ? fallback : info.phases;
    bool has_construct = false;
    for (const api::PhaseCost& pc : res.phase_breakdown) {
      EXPECT_NE(std::find(declared.begin(), declared.end(), pc.name), declared.end())
          << name << " reported undeclared phase '" << pc.name << "'";
      EXPECT_GT(pc.count, 0) << name << "/" << pc.name;
      EXPECT_GE(pc.seconds, 0.0) << name << "/" << pc.name;
      if (pc.name == "construct") {
        has_construct = true;
        EXPECT_EQ(pc.count, 1) << name;
      }
    }
    EXPECT_TRUE(has_construct) << name << " is missing the construct phase";
  }

  // On a scenario with nonempty weight bins the relaxed pipeline must fire
  // EVERY declared phase — a declared-but-dead phase name fails here.
  const api::BuildResult relaxed =
      api::registry().build("relaxed", api::BuildRequest{inst, params, {}}, /*measure=*/false);
  ASSERT_GT(relaxed.phases.size(), 1u)
      << "scenario has no nonempty bins; pick one that exercises the pipeline";
  const std::vector<std::string>& schema = api::registry().at("relaxed").info().phases;
  ASSERT_FALSE(schema.empty());
  for (const std::string& phase : schema) {
    const bool fired = std::any_of(relaxed.phase_breakdown.begin(), relaxed.phase_breakdown.end(),
                                   [&](const api::PhaseCost& pc) { return pc.name == phase; });
    EXPECT_TRUE(fired) << "declared phase '" << phase << "' never fired";
  }
}

TEST(Registry, MeasurePassIsTraced) {
  const ObsEnabledScope obs_scope;
  const UbgInstance inst = testinfra::Scenario{}.make();
  const api::BuildRequest req{inst, practical(inst.config.alpha), {}};
  const auto measure_spans = [] {
    for (const obs::SpanStat& s : obs::span_totals()) {
      if (s.name == "api.measure") return s.count;
    }
    return std::int64_t{0};
  };
  const std::int64_t before = measure_spans();
  (void)api::registry().build("relaxed", req, /*measure=*/false);
  EXPECT_EQ(measure_spans(), before);
  (void)api::registry().build("relaxed", req, /*measure=*/true);
  EXPECT_EQ(measure_spans(), before + 1);
}

TEST(Registry, EnergyMeasuresAgainstTheReweightedMetric) {
  const UbgInstance inst = testinfra::Scenario{}.make();
  const core::Params params = practical(inst.config.alpha);
  const api::BuildResult res =
      api::registry().build("energy", api::BuildRequest{inst, params, {}});
  // Guarantee holds in the energy metric (the registry measured against the
  // reweighted reference): declared and satisfied.
  EXPECT_GT(res.guarantees.stretch, 0.0);
  EXPECT_LE(res.metrics.stretch, res.guarantees.stretch * (1.0 + 1e-9));
}

TEST(CheckGuarantees, DeclaredSubgraphCoversEdgeWeights) {
  // A construction that emits a G edge with the wrong weight is not a
  // subgraph of G: span's guarantee check must say so, as verify does.
  class PerturbedWeight final : public api::SpannerAlgorithm {
   public:
    const api::AlgorithmInfo& info() const override {
      static const api::AlgorithmInfo kInfo{
          "perturbed", "one G edge at 1.5x its weight", "test", {}, {}, {}};
      return kInfo;
    }
    api::Guarantees guarantees(const api::BuildRequest&) const override { return {}; }
    api::Construction construct(const api::BuildRequest& req,
                                localspan::runtime::WorkerPool*) const override {
      localspan::graph::Graph out(req.inst.g.n());
      const localspan::graph::Edge e = req.inst.g.edges().front();
      out.add_edge(e.u, e.v, 1.5 * e.w);
      return {std::move(out), {}};
    }
  };
  api::AlgorithmRegistry reg;
  reg.add(std::make_unique<PerturbedWeight>());
  const UbgInstance inst = testinfra::Scenario{}.make();
  const api::BuildResult res =
      reg.build("perturbed", api::BuildRequest{inst, practical(inst.config.alpha), {}});
  ASSERT_TRUE(res.guarantees.subgraph);
  EXPECT_NE(api::check_guarantees(inst, res).find("weights=NO"), std::string::npos);
}

TEST(Registry, BuildsOnTheLentPool) {
  // A caller's pool is the build's one team: construct() receives it, and a
  // `threads` option naming another count is rejected.
  class PoolProbe final : public api::SpannerAlgorithm {
   public:
    mutable localspan::runtime::WorkerPool* seen = nullptr;
    const api::AlgorithmInfo& info() const override {
      static const api::AlgorithmInfo kInfo{
          "probe",
          "records its pool",
          "test",
          {{"threads", api::OptionType::kInt, "0", "worker threads"}},
          {},
          {}};
      return kInfo;
    }
    api::Guarantees guarantees(const api::BuildRequest&) const override { return {}; }
    api::Construction construct(const api::BuildRequest& req,
                                localspan::runtime::WorkerPool* pool) const override {
      seen = pool;
      return {localspan::graph::Graph(req.inst.g.n()), {}};
    }
  };
  api::AlgorithmRegistry reg;
  auto owned = std::make_unique<PoolProbe>();
  const PoolProbe* probe = owned.get();
  reg.add(std::move(owned));
  const UbgInstance inst = testinfra::Scenario{}.make();
  const core::Params params = practical(inst.config.alpha);
  localspan::runtime::WorkerPool pool(3);
  api::Options three;
  three.set("threads", "3");
  api::Options two;
  two.set("threads", "2");
  api::Options one;
  one.set("threads", "1");
  static_cast<void>(reg.build("probe", api::BuildRequest{inst, params, {}, &pool}));
  EXPECT_EQ(probe->seen, &pool);
  probe->seen = nullptr;
  static_cast<void>(reg.build("probe", api::BuildRequest{inst, params, three, &pool}, false));
  EXPECT_EQ(probe->seen, &pool);
  EXPECT_THROW(static_cast<void>(reg.build("probe", api::BuildRequest{inst, params, two, &pool})),
               std::invalid_argument);
  static_cast<void>(reg.build("probe", api::BuildRequest{inst, params, one}));
  EXPECT_EQ(probe->seen, nullptr);

  // A real build on a lent pool is the serial build, metrics included.
  const api::BuildResult serial =
      api::registry().build("relaxed", api::BuildRequest{inst, params, one});
  const api::BuildResult lent =
      api::registry().build("relaxed", api::BuildRequest{inst, params, {}, &pool});
  EXPECT_EQ(lent.spanner, serial.spanner);
  EXPECT_EQ(lent.metrics.stretch, serial.metrics.stretch);
  EXPECT_EQ(lent.metrics.lightness, serial.metrics.lightness);
}

// ---------------------------------------------------------------------------
// The tentpole sweep: every registered algorithm x the scenario matrix,
// checking each declared guarantee against independent measurement.
// ---------------------------------------------------------------------------

struct ApiCell {
  std::string algo;
  testinfra::Scenario scenario;

  [[nodiscard]] std::string name() const {
    std::string a = algo;
    std::replace(a.begin(), a.end(), '-', '_');
    return a + "_" + scenario.name();
  }
};

std::vector<ApiCell> api_matrix() {
  std::vector<ApiCell> out;
  for (const std::string& algo : api::registry().names()) {
    for (const testinfra::Scenario& sc : testinfra::standard_matrix()) {
      out.push_back(ApiCell{algo, sc});
    }
  }
  return out;
}

struct ApiCellName {
  std::string operator()(const ::testing::TestParamInfo<ApiCell>& info) const {
    return info.param.name();
  }
};

class ApiMatrix : public ::testing::TestWithParam<ApiCell> {};

TEST_P(ApiMatrix, DeclaredGuaranteesHold) {
  const ApiCell& cell = GetParam();
  const api::AlgorithmRegistry& reg = api::registry();
  const api::AlgorithmInfo& info = reg.at(cell.algo).info();
  if (info.caps.dim2_only && cell.scenario.dim != 2) {
    GTEST_SKIP() << cell.algo << " is dim-2 only";
  }
  const UbgInstance inst = cell.scenario.make();
  const core::Params params = practical(inst.config.alpha);
  const api::BuildResult res = reg.build(cell.algo, api::BuildRequest{inst, params, {}});

  // Structural sanity of the uniform result record.
  EXPECT_EQ(res.spanner.n(), inst.g.n());
  EXPECT_EQ(res.metrics.edges, res.spanner.m());
  EXPECT_EQ(res.metrics.max_degree, res.spanner.max_degree());
  EXPECT_GE(res.seconds, 0.0);

  // Every declared guarantee must hold under independent measurement.
  const std::string violation = api::check_guarantees(inst, res);
  EXPECT_TRUE(violation.empty()) << cell.algo << " on " << cell.scenario.name() << ": "
                                 << violation;
}

INSTANTIATE_TEST_SUITE_P(EveryAlgorithm, ApiMatrix, ::testing::ValuesIn(api_matrix()),
                         ApiCellName{});
