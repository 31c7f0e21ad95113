/// Experiment E12 (part 1) — sequential running-time scaling, the
/// Das–Narasimhan acceleration story of §1.4: naive SEQ-GREEDY re-runs a
/// bounded Dijkstra per edge on the growing spanner, while the relaxed
/// algorithm answers each bin's queries on the O(1)-hop cluster graph.
/// A second table measures the deterministic parallel construction runtime
/// (runtime/parallel.hpp): the relaxed build at 1/2/4/8 worker threads with
/// the speedup over the serial build — the output is bit-identical at every
/// thread count, so the column is pure wall-clock. The ablation table lives
/// in bench_e12b_ablation.
///
/// Emits the localspan BENCH_E12.json artifact (schema_version 1) so
/// tools/collect_bench.cpp can validate the threads/speedup columns.
/// LOCALSPAN_BENCH_QUICK=1 trims sizes for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/distributed.hpp"
#include "core/greedy.hpp"
#include "core/relaxed_greedy.hpp"
#include "runtime/parallel.hpp"

using namespace localspan;
namespace bu = localspan::benchutil;

namespace {

/// Best-of-`reps` wall time of fn(), in seconds.
template <class Fn>
double time_best(int reps, const Fn& fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
  const bool quick = std::getenv("LOCALSPAN_BENCH_QUICK") != nullptr;
  const double eps = 0.5;
  const double alpha = 0.75;
  const int reps = quick ? 1 : 2;
  const core::Params practical = core::Params::practical_params(eps, alpha);
  const core::Params strict = core::Params::strict_params(eps, alpha);

  bu::JsonReport report("E12");
  report.meta("eps", eps);
  report.meta("alpha", alpha);
  report.meta("quick", std::string(quick ? "yes" : "no"));

  // Table 1: sequential runtime scaling across the algorithm family.
  {
    bu::Table table({"algo", "n", "m", "ms"});
    const std::vector<int> ns = quick ? std::vector<int>{128, 256}
                                      : std::vector<int>{128, 256, 512, 1024};
    for (int n : ns) {
      const ubg::UbgInstance inst = bu::standard_instance(n, alpha, 12);
      const double seq_ms =
          1e3 * time_best(reps, [&] { static_cast<void>(core::seq_greedy(inst.g, 1.5).m()); });
      table.add_row({"seq-greedy", bu::fmt_int(n), bu::fmt_int(inst.g.m()), bu::fmt(seq_ms)});
      const double rel_ms = 1e3 * time_best(reps, [&] {
        static_cast<void>(core::relaxed_greedy(inst, practical).spanner.m());
      });
      table.add_row(
          {"relaxed (practical)", bu::fmt_int(n), bu::fmt_int(inst.g.m()), bu::fmt(rel_ms)});
      if (n <= 512) {
        const double strict_ms = 1e3 * time_best(reps, [&] {
          static_cast<void>(core::relaxed_greedy(inst, strict).spanner.m());
        });
        table.add_row(
            {"relaxed (strict)", bu::fmt_int(n), bu::fmt_int(inst.g.m()), bu::fmt(strict_ms)});
      }
      if (n <= 512) {
        const double dist_ms = 1e3 * time_best(reps, [&] {
          static_cast<void>(core::distributed_relaxed_greedy(inst, practical, {}, 12));
        });
        table.add_row({"distributed", bu::fmt_int(n), bu::fmt_int(inst.g.m()), bu::fmt(dist_ms)});
      }
    }
    report.print("E12: sequential runtime scaling", table);
  }

  // Table 2: deterministic parallel construction scaling. One serial
  // reference per n; every other row reports speedup = serial / parallel
  // (the topologies are bit-identical, asserted by tests/test_parallel.cpp,
  // so wall time is the only thing that may differ).
  {
    bu::Table table({"n", "threads", "build ms", "speedup"});
    const std::vector<int> ns = quick ? std::vector<int>{256} : std::vector<int>{1024, 4096};
    const std::vector<int> threads = quick ? std::vector<int>{1, 2}
                                           : std::vector<int>{1, 2, 4, 8};
    for (int n : ns) {
      const ubg::UbgInstance inst = bu::standard_instance(n, alpha, 12);
      double serial_ms = 0.0;
      for (int t : threads) {
        std::optional<runtime::WorkerPool> pool;
        if (t > 1) pool.emplace(t);
        core::RelaxedGreedyOptions opts;
        opts.worker_pool = pool ? &*pool : nullptr;
        const double ms = 1e3 * time_best(reps, [&] {
          static_cast<void>(core::relaxed_greedy(inst, practical, opts).spanner.m());
        });
        if (t == 1) serial_ms = ms;
        table.add_row({bu::fmt_int(n), bu::fmt_int(t), bu::fmt(ms),
                       bu::fmt(serial_ms / std::max(ms, 1e-9), 2)});
      }
    }
    report.print("E12: parallel construction scaling (relaxed, practical)", table);
  }

  return report.write() ? 0 : 1;
}
