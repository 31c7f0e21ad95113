/// Experiment E6 — comparison against classical topology-control baselines
/// (§1.3: planar backbones [13-15,19], Yao graphs [20], MST, max power).
///
/// The whole table is produced through the api::AlgorithmRegistry — no
/// direct construction calls: every registered algorithm is swept with its
/// default options on one UDG workload (alpha=1 so every baseline is
/// well-defined) and emits one uniform JSON record (name, size, quality
/// metrics, build time, declared guarantees). A second sweep row re-runs the
/// paper's algorithm under the theorem-faithful strict preset.
///
/// LOCALSPAN_BENCH_QUICK=1 trims n for CI smoke runs; the record shape is
/// identical (tools/collect_bench.cpp validates it when aggregating).
#include <cstdio>
#include <cstdlib>

#include "api/spanner_algorithm.hpp"
#include "bench_util.hpp"
#include "core/params.hpp"

using namespace localspan;
using benchutil::fmt;
using benchutil::fmt_int;

namespace {

void add_row(benchutil::Table* table, const std::string& label, const std::string& preset,
             const api::BuildResult& res) {
  // Quality columns are stated in the row's own metric: "euclid" rows share
  // the input UDG as reference and compare directly; "reweighted" rows
  // (energy) are measured against their transformed reference graph and are
  // not unit-comparable with the euclid rows.
  const char* metric = res.metric_reference ? "reweighted" : "euclid";
  table->add_row({label, preset, metric, fmt_int(res.metrics.edges),
                  fmt(res.metrics.edges_per_node, 2), fmt_int(res.metrics.max_degree),
                  fmt(res.metrics.stretch, 3), fmt(res.metrics.lightness, 3),
                  fmt(res.metrics.power_ratio, 3), fmt(1e3 * res.seconds, 2),
                  res.guarantees.describe()});
}

}  // namespace

int main() {
  const bool quick = std::getenv("LOCALSPAN_BENCH_QUICK") != nullptr;
  const int n = quick ? 220 : 512;
  benchutil::JsonReport report("E6");
  report.meta("n", static_cast<long long>(n));
  report.meta("alpha", 1.0);
  report.meta("seed", static_cast<long long>(6));
  report.meta("quick", std::string(quick ? "yes" : "no"));
  std::printf("E6: registry sweep over every algorithm. n=%d, alpha=1.0 (UDG), d=2, uniform, seed=6\n",
              n);
  const auto inst = benchutil::standard_instance(n, 1.0, 6);
  const api::AlgorithmRegistry& reg = api::registry();
  const core::Params practical = core::Params::practical_params(0.5, 1.0);

  benchutil::Table table({"algo", "params", "metric", "edges", "edges/n", "max deg",
                          "stretch (cap 64)", "lightness", "power/ref", "build ms", "declared"});
  for (const std::string& name : reg.names()) {
    const api::BuildResult res = reg.build(name, api::BuildRequest{inst, practical, {}});
    const std::string violation = api::check_guarantees(inst, res);
    if (!violation.empty()) {
      std::fprintf(stderr, "E6: %s violated its declared guarantees: %s\n", name.c_str(),
                   violation.c_str());
      return 1;
    }
    add_row(&table, name, reg.at(name).info().caps.uses_params ? "practical" : "-", res);
  }
  // The theorem-faithful preset for the paper's algorithm, same pipeline
  // (and the same declared-guarantee gate — under strict params the relaxed
  // row additionally declares the lightness cap).
  const core::Params strict = core::Params::strict_params(0.5, 1.0);
  const api::BuildResult strict_res = reg.build("relaxed", api::BuildRequest{inst, strict, {}});
  const std::string strict_violation = api::check_guarantees(inst, strict_res);
  if (!strict_violation.empty()) {
    std::fprintf(stderr, "E6: relaxed (strict) violated its declared guarantees: %s\n",
                 strict_violation.c_str());
    return 1;
  }
  add_row(&table, "relaxed", "strict", strict_res);

  report.print("E6: only the paper's construction bounds stretch, degree AND weight at once", table);
  return report.write() ? 0 : 1;
}
