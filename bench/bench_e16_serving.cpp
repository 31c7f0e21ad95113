/// E16 — query serving: epoch-published snapshots + cluster-cover routing
/// oracle vs per-query Dijkstra, and end-to-end concurrent serving under
/// live churn.
///
/// Table 1 (static snapshot): one topology per n, published once; the
/// serving path (oracle labels with the exact-Dijkstra near/fallback
/// policy, i.e. exactly what QueryEngine::Reader::distance runs) is timed
/// against answering every query with a fresh early-exit Dijkstra. The
/// speedup is algorithmic — label lookups are ~O(label) while Dijkstra is
/// ~O(ball log ball) — so it holds on a 1-core container. Every timed
/// query is also checked against the exact distance: served >= exact and
/// served <= bound * exact (the oracle's declared stretch bound, 5 with
/// the default sigma = beta = 2); `stretch_ok` in meta reports the sweep's
/// verdict and collect_bench fails the artifact when it is not "yes".
///
/// Table 2 (concurrent serving): R reader threads issue distance/route
/// queries nonstop while the writer ingests churn windows through
/// DynamicSpanner::apply_batch; every commit republishes a snapshot via the
/// engine's commit hook, and a replaced snapshot is freed once its last
/// reader lets go. Reported: aggregate qps, exact p50/p99/max query
/// latency (merged per-thread logs, so publish pauses show up as tail
/// latency, which is the claim under test), epochs published and the
/// oracle hit rate.
///
/// LOCALSPAN_BENCH_QUICK=1 trims sizes/queries for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/sp_workspace.hpp"
#include "runtime/parallel.hpp"
#include "serve/query_engine.hpp"

using namespace localspan;
namespace bu = localspan::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::pair<int, int>> draw_pairs(int n, int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int s = pick(rng);
    int d = pick(rng);
    if (s == d) d = (d + 1) % n;
    pairs.emplace_back(s, d);
  }
  return pairs;
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

  const std::vector<std::pair<int, int>> pairs = draw_pairs(n, serve_queries, 7);
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
  const graph::CsrView csr(spanner);
  graph::DijkstraWorkspace ws(spanner.n());
  std::vector<double> exact(static_cast<std::size_t>(cell.dij_timed));
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < cell.dij_timed; ++i) {
      exact[static_cast<std::size_t>(i)] =
          ws.distance(csr, pairs[static_cast<std::size_t>(i)].first,
                      pairs[static_cast<std::size_t>(i)].second);
    }
    cell.dij_us = 1e6 * seconds_since(t0) / std::max(cell.dij_timed, 1);
  }

  // Stretch audit over the exact prefix: served in [exact, bound * exact].
  double stretch_sum = 0.0;
  int stretch_count = 0;
  for (int i = 0; i < cell.dij_timed; ++i) {
    const double served = reader
                              .distance(pairs[static_cast<std::size_t>(i)].first,
                                        pairs[static_cast<std::size_t>(i)].second)
                              .distance;
    const double ex = exact[static_cast<std::size_t>(i)];
    if (ex == graph::kInf) {
      if (served != graph::kInf) cell.stretch_ok = false;
      continue;
    }
    const double tol = 1e-9 * std::max(1.0, ex);
    if (served < ex - tol || served > cell.bound * ex + tol) cell.stretch_ok = false;
    const double ratio = ex > 0.0 ? served / ex : 1.0;
    stretch_sum += ratio;
    cell.max_stretch = std::max(cell.max_stretch, ratio);
    ++stretch_count;
  }
  cell.mean_stretch = stretch_count > 0 ? stretch_sum / stretch_count : 1.0;
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

  struct ThreadLog {
    std::vector<std::int64_t> lat_ns;
    long long hits = 0;
    double seconds = 0.0;
  };
  std::vector<ThreadLog> logs(static_cast<std::size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  for (int k = 0; k < readers; ++k) {
    threads.emplace_back([&qe, &logs, k, n, queries] {
      ThreadLog& log = logs[static_cast<std::size_t>(k)];
      serve::QueryEngine::Reader reader = qe.reader();
      std::mt19937_64 rng(0xC0FFEEu + static_cast<unsigned>(k));
      std::uniform_int_distribution<int> pick(0, n - 1);
      log.lat_ns.reserve(static_cast<std::size_t>(queries));
      const auto t0 = Clock::now();
      for (int q = 0; q < queries; ++q) {
        const int s = pick(rng);
        int d = pick(rng);
        if (s == d) d = (d + 1) % n;
        const auto q0 = Clock::now();
        if (q % 8 == 7) {
          static_cast<void>(reader.route(s, d));
        } else if (reader.distance(s, d).via_oracle) {
          ++log.hits;
        }
        log.lat_ns.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - q0).count());
      }
      log.seconds = seconds_since(t0);
    });
  }

  for (std::size_t i = 0; i < trace.events.size(); i += static_cast<std::size_t>(batch)) {
    const std::size_t len =
        std::min<std::size_t>(static_cast<std::size_t>(batch), trace.events.size() - i);
    cell.repair_s +=
        engine.apply_batch(std::span<const dynamic::ChurnEvent>(trace.events.data() + i, len))
            .seconds;
    ++cell.windows;
  }
  for (std::thread& t : threads) t.join();
  cell.epochs = qe.store().current_epoch();

  std::vector<std::int64_t> lat;
  long long hits = 0;
  double slowest = 0.0;
  for (const ThreadLog& log : logs) {
    lat.insert(lat.end(), log.lat_ns.begin(), log.lat_ns.end());
    hits += log.hits;
    slowest = std::max(slowest, log.seconds);
  }
  std::sort(lat.begin(), lat.end());
  const auto pct = [&lat](double p) {
    if (lat.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(p * (static_cast<double>(lat.size()) - 1.0));
    return static_cast<double>(lat[idx]) / 1e3;
  };
  cell.qps = slowest > 0.0 ? static_cast<double>(lat.size()) / slowest : 0.0;
  cell.p50_us = pct(0.50);
  cell.p99_us = pct(0.99);
  cell.max_us = pct(1.0);
  const long long distance_queries =
      static_cast<long long>(readers) * queries - static_cast<long long>(readers) * (queries / 8);
  cell.hit_pct = 100.0 * static_cast<double>(hits) / std::max(distance_queries, 1LL);
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
  report.meta("stretch_ok", std::string(stretch_ok ? "yes" : "no"));

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
      table.add_row({bu::fmt_int(n), bu::fmt_int(cell.readers),
                     bu::fmt_int(cell.queries_per_reader),
                     bu::fmt_int(static_cast<long long>(cell.events)), bu::fmt_int(cell.windows),
                     bu::fmt_int(static_cast<long long>(cell.epochs)), bu::fmt(cell.qps, 0),
                     bu::fmt(cell.p50_us, 1), bu::fmt(cell.p99_us, 1), bu::fmt(cell.max_us, 1),
                     bu::fmt(cell.hit_pct, 1), bu::fmt(cell.repair_s, 3)});
    }
    report.print("E16: concurrent serving under live churn (snapshot flips per window)", table);
  }

  if (!stretch_ok) std::printf("E16: STRETCH AUDIT FAILED — see stretch columns above\n");
  return report.write() && stretch_ok ? 0 : 1;
}
