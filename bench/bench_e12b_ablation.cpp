/// Experiment E12 (part 2) — ablations of the algorithm's design choices:
///   * strict vs practical parameter presets (bin ratio r, hence phase count),
///   * redundancy removal on/off (§2.2.5; the weight proof needs it on),
///   * covered-edge filtering effect (visible through the query counts).
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "core/relaxed_greedy.hpp"
#include "graph/metrics.hpp"

using namespace localspan;
using benchutil::fmt;
using benchutil::fmt_int;

namespace {

struct Outcome {
  double ms;
  core::RelaxedGreedyResult result;
};

Outcome run(const ubg::UbgInstance& inst, const core::Params& params,
            const core::RelaxedGreedyOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = core::relaxed_greedy(inst, params, opts);
  const auto dt = std::chrono::steady_clock::now() - t0;
  return {std::chrono::duration<double, std::milli>(dt).count(), std::move(result)};
}

}  // namespace

int main() {
  benchutil::JsonReport report("E12b");
  std::printf("E12b: ablations. n=768, eps=0.5, alpha=0.75, d=2, seed=12\n");
  const auto inst = benchutil::standard_instance(768, 0.75, 12);
  const core::Params strict = core::Params::strict_params(0.5, 0.75);
  const core::Params practical = core::Params::practical_params(0.5, 0.75);
  core::RelaxedGreedyOptions with;
  core::RelaxedGreedyOptions without;
  without.redundancy_removal = false;
  core::RelaxedGreedyOptions no_filter;
  no_filter.covered_edge_filter = false;

  benchutil::Table table({"variant", "time ms", "bins", "phases", "edges", "stretch",
                          "max deg", "lightness", "removed"});
  struct Case {
    const char* name;
    const core::Params* params;
    const core::RelaxedGreedyOptions* opts;
  };
  for (const Case& c : {Case{"strict + redundancy", &strict, &with},
                        Case{"strict, no redundancy", &strict, &without},
                        Case{"practical + redundancy", &practical, &with},
                        Case{"practical, no redundancy", &practical, &without},
                        Case{"practical, no covered filter", &practical, &no_filter}}) {
    const Outcome o = run(inst, *c.params, *c.opts);
    int removed = 0;
    for (const core::PhaseStats& st : o.result.phases) removed += st.removed;
    table.add_row({c.name, fmt(o.ms, 1), fmt_int(o.result.total_bins),
                   fmt_int(o.result.nonempty_bins), fmt_int(o.result.spanner.m()),
                   fmt(graph::max_edge_stretch(inst.g, o.result.spanner), 4),
                   fmt_int(o.result.spanner.max_degree()),
                   fmt(graph::lightness(inst.g, o.result.spanner), 3), fmt_int(removed)});
  }
  report.print("E12b: strict params buy sparser/lighter output for ~10x more phases; "
              "redundancy removal trims weight at equal stretch", table);
  return report.write() ? 0 : 1;
}
