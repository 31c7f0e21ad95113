#include "serve/load.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace localspan::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One reader thread's private log; merged after the join, so the query
/// loop shares nothing with other readers.
struct ReaderLog {
  LoadReport part;
  std::exception_ptr error;
};

void run_reader(QueryEngine& qe, const LoadOptions& opts, int k, ReaderLog& log) {
  const std::string label = "reader-" + std::to_string(k);
  obs::set_thread_label(label.c_str());
  QueryEngine::Reader reader = qe.reader();
  const std::vector<std::pair<int, int>> pairs = draw_pairs(
      opts.n, opts.queries, opts.seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k + 1)));
  LoadReport& rep = log.part;
  rep.lat_ns.reserve(pairs.size());
  const auto t0 = Clock::now();
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    const auto [s, d] = pairs[q];
    const auto q0 = Clock::now();
    if (q % 8 == 7) {
      ++rep.routed;
      if (!reader.route(s, d).reachable) ++rep.unreachable;
    } else {
      const QueryEngine::DistanceAnswer a = reader.distance(s, d);
      ++(a.via_oracle ? rep.oracle : rep.exact);
      if (a.distance == graph::kInf) ++rep.unreachable;
    }
    rep.lat_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - q0).count());
  }
  rep.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::vector<std::pair<int, int>> draw_pairs(int n, int count, std::uint64_t seed) {
  if (n < 1 || count < 0) throw std::invalid_argument("draw_pairs: need n >= 1 and count >= 0");
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

double LoadReport::percentile(double p) const {
  if (lat_ns.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * (static_cast<double>(lat_ns.size()) - 1.0));
  return static_cast<double>(lat_ns[idx]) / 1e3;
}

double LoadReport::qps() const {
  return seconds > 0.0 ? static_cast<double>(lat_ns.size()) / seconds : 0.0;
}

LoadReport run_readers(QueryEngine& qe, const LoadOptions& opts,
                       const std::function<void()>& writer) {
  std::vector<ReaderLog> logs(static_cast<std::size_t>(std::max(opts.readers, 0)));
  {
    // Declared after `logs`: a jthread joins on destruction, so the
    // readers are joined before their logs go, on every exit path.
    std::vector<std::jthread> threads;
    threads.reserve(logs.size());
    for (int k = 0; k < static_cast<int>(logs.size()); ++k) {
      threads.emplace_back([&qe, &opts, &logs, k] {
        ReaderLog& log = logs[static_cast<std::size_t>(k)];
        try {
          run_reader(qe, opts, k, log);
        } catch (...) {
          log.error = std::current_exception();
        }
      });
    }
    if (writer) writer();
  }

  LoadReport out;
  for (const ReaderLog& log : logs) {
    if (log.error) std::rethrow_exception(log.error);
    const LoadReport& part = log.part;
    out.lat_ns.insert(out.lat_ns.end(), part.lat_ns.begin(), part.lat_ns.end());
    out.oracle += part.oracle;
    out.exact += part.exact;
    out.routed += part.routed;
    out.unreachable += part.unreachable;
    out.seconds = std::max(out.seconds, part.seconds);
  }
  std::sort(out.lat_ns.begin(), out.lat_ns.end());
  return out;
}

bool within_bound(double served, double exact, double bound, bool bound_holds) {
  if (exact == graph::kInf) return served == graph::kInf;
  const double tol = 1e-9 * std::max(1.0, exact);
  return served >= exact - tol && (!bound_holds || served <= bound * exact + tol);
}

AuditReport audit(QueryEngine& qe, std::span<const std::pair<int, int>> pairs) {
  QueryEngine::Reader reader = qe.reader();
  const SnapshotStore::ReadGuard snap = reader.pin();
  const bool bound_holds = !snap->oracle.truncated();
  AuditReport rep;
  rep.bound = snap->oracle.stretch_bound();
  graph::DijkstraWorkspace ws(snap->n);
  double ratio_sum = 0.0;
  for (const auto& [s, d] : pairs) {
    const double served = reader.distance(s, d).distance;  // range-checks the pair
    const double exact = ws.distance(snap->csr, s, d);
    if (!within_bound(served, exact, rep.bound, bound_holds) && ++rep.violations <= 5) {
      rep.first.push_back({s, d, served, exact});
    }
    if (exact == graph::kInf) continue;
    const double ratio = exact > 0.0 ? served / exact : 1.0;
    ratio_sum += ratio;
    rep.max_ratio = std::max(rep.max_ratio, ratio);
    ++rep.reachable;
  }
  if (qe.store().current_epoch() != snap->epoch) {
    throw std::logic_error("serve::audit: a publish moved the epoch during the audit");
  }
  if (rep.reachable > 0) rep.mean_ratio = ratio_sum / rep.reachable;
  return rep;
}

}  // namespace localspan::serve
