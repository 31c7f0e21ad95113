/// E16 — query serving: epoch-published snapshots + cluster-cover routing
/// oracle vs per-query Dijkstra, and end-to-end concurrent serving under
/// live churn.
///
/// Table 1 (static snapshot): one topology per n, published once; the
/// serving path (oracle labels with the exact-Dijkstra near/fallback
/// policy, i.e. exactly what QueryEngine::Reader::distance runs) is timed
/// against answering every query with a fresh early-exit Dijkstra. The
/// speedup is algorithmic — label lookups are ~O(label) while Dijkstra is
/// ~O(ball log ball) — so it holds on a 1-core container. The Dijkstra-
/// timed prefix of the queries is also audited with serve::audit, the
/// predicate the CLI's `serve` uses: served >= exact, and served <= bound *
/// exact (the oracle's declared stretch bound, 5 with the default sigma =
/// beta = 2) unless the oracle is truncated, which voids the upper bound.
/// `stretch_ok` in meta reports the verdict and collect_bench fails the
/// artifact when it is not "yes".
///
/// Table 2 (concurrent serving): R reader threads issue distance/route
/// queries nonstop while the writer ingests churn windows through
/// DynamicSpanner::apply_batch; every commit republishes a snapshot via the
/// engine's commit hook, and a replaced snapshot is freed once its last
/// reader lets go. Reported: aggregate qps, exact p50/p99/max query
/// latency (merged per-thread logs, so publish pauses show up as tail
/// latency, which is the claim under test), epochs published and the
/// oracle hit rate. The load is serve::run_readers, the CLI's harness; each
/// cell's final snapshot is audited on 256 pairs, and the verdict is ANDed
/// into `stretch_ok`.
///
/// LOCALSPAN_BENCH_QUICK=1 trims sizes/queries for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"
#include "serve/load.hpp"
#include "serve/query_engine.hpp"

using namespace localspan;
namespace bu = localspan::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StaticCell {
  int n = 0;
  int m = 0;
  int levels = 0;
  double labels_per_v = 0.0;
  double publish_ms = 0.0;  ///< snapshot build incl. oracle labels.
  int queries = 0;
  double serve_us = 0.0;  ///< serving path, fallbacks included.
  double hit_pct = 0.0;
  int dij_timed = 0;
  double dij_us = 0.0;  ///< per-query early-exit Dijkstra baseline.
  double mean_stretch = 0.0;
  double max_stretch = 0.0;
  double bound = 0.0;
  bool stretch_ok = true;
};

StaticCell run_static(int n, int serve_queries, int dij_queries, const core::Params& params) {
  StaticCell cell;
  cell.n = n;
  cell.queries = serve_queries;
  const ubg::UbgInstance inst = bu::standard_instance(n, 0.75, 7);
  const graph::Graph spanner = core::relaxed_greedy(inst, params).spanner;
  cell.m = spanner.m();

  serve::QueryEngine qe;
  {
    const auto t0 = Clock::now();
    qe.publish(spanner, params.t);
    cell.publish_ms = 1e3 * seconds_since(t0);
  }
  serve::QueryEngine::Reader reader = qe.reader();
  {
    const serve::SnapshotStore::ReadGuard snap = reader.pin();
    cell.levels = snap->oracle.levels();
    cell.labels_per_v =
        static_cast<double>(snap->oracle.total_label_entries()) / std::max(n, 1);
    cell.bound = snap->oracle.stretch_bound();
  }

  const std::vector<std::pair<int, int>> pairs = serve::draw_pairs(n, serve_queries, 7);
  // Warm the reader workspace (first fallback sizes the buffers).
  for (int i = 0; i < std::min(serve_queries, 32); ++i) {
    static_cast<void>(reader.distance(pairs[static_cast<std::size_t>(i)].first,
                                      pairs[static_cast<std::size_t>(i)].second));
  }

  long long hits = 0;
  {
    const auto t0 = Clock::now();
    for (const auto& [s, d] : pairs) {
      if (reader.distance(s, d).via_oracle) ++hits;
    }
    cell.serve_us = 1e6 * seconds_since(t0) / std::max(serve_queries, 1);
  }
  cell.hit_pct = 100.0 * static_cast<double>(hits) / std::max(serve_queries, 1);

  // Per-query Dijkstra baseline on a prefix of the same pairs (the mean is
  // stable after a few hundred searches; full sweeps at n=100000 would
  // dominate the bench for no information).
  cell.dij_timed = std::min(dij_queries, serve_queries);
  const auto timed = std::span(pairs).first(static_cast<std::size_t>(cell.dij_timed));
  const graph::CsrView csr(spanner);
  graph::DijkstraWorkspace ws(spanner.n());
  {
    const auto t0 = Clock::now();
    for (const auto& [s, d] : timed) static_cast<void>(ws.distance(csr, s, d));
    cell.dij_us = 1e6 * seconds_since(t0) / std::max(cell.dij_timed, 1);
  }

  // Stretch audit over the same prefix, with its own exact searches.
  const serve::AuditReport audit = serve::audit(qe, timed);
  cell.stretch_ok = audit.ok();
  cell.mean_stretch = audit.mean_ratio;
  cell.max_stretch = audit.max_ratio;
  return cell;
}

struct ChurnCell {
  int readers = 0;
  int queries_per_reader = 0;
  std::size_t events = 0;
  int windows = 0;
  std::uint64_t epochs = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double hit_pct = 0.0;
  double repair_s = 0.0;
  bool stretch_ok = true;  ///< serve::audit of the final snapshot.
};

ChurnCell run_churn(const ubg::UbgInstance& inst, const dynamic::ChurnTrace& trace,
                    const core::Params& params, int readers, int queries, int batch) {
  ChurnCell cell;
  cell.readers = readers;
  cell.queries_per_reader = queries;
  cell.events = trace.events.size();
  const int n = inst.g.n();

  dynamic::DynamicSpanner engine(inst, params);
  serve::QueryEngine qe;
  qe.attach(engine);
  qe.publish(engine);

  const serve::LoadReport load = serve::run_readers(qe, {readers, queries, n, 7}, [&] {
    cell.repair_s = dynamic::apply_windows(
        engine, trace.events, batch,
        [&](int window, const dynamic::BatchStats&) { cell.windows = window; });
  });
  cell.epochs = qe.store().current_epoch();
  cell.qps = load.qps();
  cell.p50_us = load.percentile(0.50);
  cell.p99_us = load.percentile(0.99);
  cell.max_us = load.percentile(1.0);
  cell.hit_pct =
      100.0 * static_cast<double>(load.oracle) / std::max(load.oracle + load.exact, 1LL);
  cell.stretch_ok = serve::audit(qe, serve::draw_pairs(n, 256, 7)).ok();
  return cell;
}

}  // namespace

int main() {
  const bool quick = std::getenv("LOCALSPAN_BENCH_QUICK") != nullptr;
  const double eps = 0.5;
  const double alpha = 0.75;
  const core::Params params = core::Params::practical_params(eps, alpha);

  bu::JsonReport report("E16");
  report.meta("eps", eps);
  report.meta("alpha", alpha);
  report.meta("quick", std::string(quick ? "yes" : "no"));
  report.meta("nproc", static_cast<long long>(runtime::hardware_threads()));

  bool stretch_ok = true;
  {
    // Oracle vs per-query Dijkstra. The n=100000 row is the scale leg the
    // ROADMAP names: labels answer in microseconds while a Dijkstra walks a
    // 10^5-node component.
    const std::vector<int> ns = quick ? std::vector<int>{512, 2048}
                                      : std::vector<int>{2048, 16384, 100000};
    const int serve_queries = quick ? 2000 : 20000;
    bu::Table table({"n", "m", "levels", "labels/v", "publish ms", "queries", "serve us/q",
                     "serve qps", "hit %", "dijkstra us/q", "dij timed", "speedup",
                     "mean stretch", "max stretch", "bound"});
    for (int n : ns) {
      const int dij_queries = n >= 100000 ? 200 : (quick ? 400 : 2000);
      const StaticCell cell = run_static(n, serve_queries, dij_queries, params);
      stretch_ok = stretch_ok && cell.stretch_ok;
      table.add_row({bu::fmt_int(cell.n), bu::fmt_int(cell.m), bu::fmt_int(cell.levels),
                     bu::fmt(cell.labels_per_v, 1), bu::fmt(cell.publish_ms, 1),
                     bu::fmt_int(cell.queries), bu::fmt(cell.serve_us, 3),
                     bu::fmt(1e6 / std::max(cell.serve_us, 1e-9), 0), bu::fmt(cell.hit_pct, 1),
                     bu::fmt(cell.dij_us, 3), bu::fmt_int(cell.dij_timed),
                     bu::fmt(cell.dij_us / std::max(cell.serve_us, 1e-9), 1),
                     bu::fmt(cell.mean_stretch, 4), bu::fmt(cell.max_stretch, 4),
                     bu::fmt(cell.bound, 2)});
    }
    report.print("E16: oracle-served distance queries vs per-query Dijkstra", table);
  }

  {
    // Concurrent serving under churn: readers vs one repairing writer.
    const int n = quick ? 384 : 2048;
    const int events = quick ? 12 : 256;
    const int batch = quick ? 4 : 64;
    const int queries = quick ? 500 : 10000;
    const ubg::UbgInstance inst = bu::standard_instance(n, alpha, 7);
    dynamic::PoissonChurnConfig pc;
    pc.events = events;
    pc.seed = 7;
    const dynamic::ChurnTrace trace = dynamic::poisson_churn(inst, pc);

    bu::Table table({"n", "readers", "queries/rdr", "events", "windows", "epochs", "qps",
                     "p50 us", "p99 us", "max us", "hit %", "repair s"});
    for (int readers : quick ? std::vector<int>{2} : std::vector<int>{1, 2, 4}) {
      const ChurnCell cell = run_churn(inst, trace, params, readers, queries, batch);
      stretch_ok = stretch_ok && cell.stretch_ok;
      table.add_row({bu::fmt_int(n), bu::fmt_int(cell.readers),
                     bu::fmt_int(cell.queries_per_reader),
                     bu::fmt_int(static_cast<long long>(cell.events)), bu::fmt_int(cell.windows),
                     bu::fmt_int(static_cast<long long>(cell.epochs)), bu::fmt(cell.qps, 0),
                     bu::fmt(cell.p50_us, 1), bu::fmt(cell.p99_us, 1), bu::fmt(cell.max_us, 1),
                     bu::fmt(cell.hit_pct, 1), bu::fmt(cell.repair_s, 3)});
    }
    report.print("E16: concurrent serving under live churn (snapshot flips per window)", table);
  }
  report.meta("stretch_ok", std::string(stretch_ok ? "yes" : "no"));

  if (!stretch_ok) std::printf("E16: STRETCH AUDIT FAILED — see stretch columns above\n");
  return report.write() && stretch_ok ? 0 : 1;
}
