#pragma once
/// \file load.hpp
/// The one serving harness: reader load against a QueryEngine while a
/// writer republishes, and the audit of served distances. The CLI's
/// `serve`, bench E16 and the tests all run these, so a served answer is
/// judged by one predicate (within_bound) everywhere.

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "serve/query_engine.hpp"

namespace localspan::serve {

/// `count` seeded pairs drawn uniformly from [0, n), with d != s whenever
/// n > 1. \throws std::invalid_argument when n < 1 or count < 0.
[[nodiscard]] std::vector<std::pair<int, int>> draw_pairs(int n, int count, std::uint64_t seed);

struct LoadOptions {
  int readers = 1;
  int queries = 0;         ///< per reader; every 8th is a route().
  int n = 0;               ///< pairs are drawn from [0, n).
  std::uint64_t seed = 0;  ///< reader k draws from seed ^ (0x9E3779B97F4A7C15·(k+1)).
};

struct LoadReport {
  std::vector<std::int64_t> lat_ns;  ///< every query's latency, ascending.
  long long oracle = 0;       ///< distance() answered from labels.
  long long exact = 0;        ///< distance() answered by a search.
  long long routed = 0;       ///< route() queries.
  long long unreachable = 0;  ///< answers of kInf / unreachable, of either kind.
  double seconds = 0.0;       ///< wall time of the slowest reader.

  /// The p-quantile (p in [0, 1]) of the latencies, in microseconds.
  [[nodiscard]] double percentile(double p) const;
  /// Queries per second over the slowest reader's wall time.
  [[nodiscard]] double qps() const;
};

/// Start opts.readers threads, each with its own Reader, pair stream and
/// latency log, run `writer` (when set) on the calling thread, join every
/// reader and merge the logs. A reader's exception is rethrown (the first
/// reader's first) once all threads have joined; so is the writer's.
LoadReport run_readers(QueryEngine& qe, const LoadOptions& opts,
                       const std::function<void()>& writer);

/// The acceptance predicate for one served distance: never below the exact
/// distance (1e-9·max(1, exact) tolerance), at most bound·exact when
/// `bound_holds` (the oracle is not truncated), and kInf exactly when the
/// pair is unreachable (exact == kInf).
[[nodiscard]] bool within_bound(double served, double exact, double bound, bool bound_holds);

struct AuditReport {
  struct Violation {
    int s = 0;
    int d = 0;
    double served = 0.0;
    double exact = 0.0;
  };
  int reachable = 0;          ///< pairs with a finite exact distance.
  int violations = 0;
  double mean_ratio = 1.0;    ///< served / exact over the reachable pairs.
  double max_ratio = 0.0;
  double bound = 0.0;         ///< the snapshot oracle's stretch_bound().
  std::vector<Violation> first;  ///< the first few violations.

  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
};

/// Check Reader::distance on every pair against a plain Dijkstra on the
/// pinned current snapshot, with within_bound. \throws std::logic_error
/// when a publish moves the epoch during the audit, std::invalid_argument
/// on a pair out of the snapshot's range.
[[nodiscard]] AuditReport audit(QueryEngine& qe, std::span<const std::pair<int, int>> pairs);

}  // namespace localspan::serve
