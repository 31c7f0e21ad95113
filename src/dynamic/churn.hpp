#pragma once
/// \file churn.hpp
/// Dynamic-topology event model: traces of join/leave/move events over an
/// α-UBG deployment, plus deterministic trace generators for the three
/// workload families the evaluation needs — memoryless node churn (Poisson),
/// mobility (random waypoint), and correlated regional failure.
///
/// A trace is a replayable artifact: given the same seed instance, applying
/// the events in order always produces the same topology sequence, so
/// incremental-maintenance runs can be archived, diffed against full
/// recomputation, and replayed in benchmarks. Serialization (JSON and a
/// compact binary format) lives in io/trace_io.hpp.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "ubg/generator.hpp"

namespace localspan::dynamic {

enum class EventKind {
  kJoin,   ///< a new radio powers on at `pos` (node id assigned by the trace).
  kLeave,  ///< radio `node` powers off / fails.
  kMove,   ///< radio `node` relocates to `pos`.
};

[[nodiscard]] const char* to_string(EventKind k) noexcept;

/// One topology-change event. `node` is the subject id: for joins the trace
/// assigns the id (reusing ids of departed nodes first, then fresh ones), so
/// replays are deterministic and the engine never has to guess slots. `pos`
/// is meaningful for join/move only.
struct ChurnEvent {
  double time = 0.0;
  EventKind kind = EventKind::kJoin;
  int node = 0;
  geom::Point pos = geom::Point(2);

  bool operator==(const ChurnEvent& o) const noexcept {
    return time == o.time && kind == o.kind && node == o.node &&
           (kind == EventKind::kLeave || pos == o.pos);
  }
};

/// A replayable event sequence against a fixed deployment model (dimension,
/// α and box side are recorded so a trace cannot be applied to a mismatched
/// instance by accident). Events are ordered by nondecreasing time.
struct ChurnTrace {
  int dim = 2;
  double alpha = 0.75;
  double side = 0.0;
  std::vector<ChurnEvent> events;

  bool operator==(const ChurnTrace& o) const noexcept {
    return dim == o.dim && alpha == o.alpha && side == o.side && events == o.events;
  }
};

/// Structural sanity check against a seed instance: matching dim/α,
/// nondecreasing times, and event ids valid under replay (leaves and moves
/// reference live nodes, joins reference dead slots or fresh ids).
/// Returns an empty string when valid, else a diagnostic.
[[nodiscard]] std::string validate_trace(const ChurnTrace& trace, const ubg::UbgInstance& inst);

// ---------------------------------------------------------------------------
// Trace generators. All are deterministic functions of (instance, config).
// ---------------------------------------------------------------------------

/// Memoryless churn: exponential inter-arrival times at `rate` events per
/// unit time; each event is a join (uniform position in the deployment box)
/// with probability `join_fraction`, else the departure of a uniformly
/// chosen live node. Joins reuse the lowest departed id before minting new
/// ones, so the id space stays compact. \throws std::invalid_argument unless
/// rate > 0.
struct PoissonChurnConfig {
  int events = 64;
  double rate = 4.0;           ///< expected events per unit time.
  double join_fraction = 0.5;  ///< P(join); the rest are leaves.
  std::uint64_t seed = 1;
};
[[nodiscard]] ChurnTrace poisson_churn(const ubg::UbgInstance& inst, const PoissonChurnConfig& cfg);

/// Random waypoint mobility: `movers` distinct nodes each pick a uniform
/// waypoint, travel toward it at `speed` (distance per unit time), and pick
/// a new one on arrival. Positions are sampled every `sample_dt` for
/// `duration` time units and emitted as move events. \throws
/// std::invalid_argument unless sample_dt > 0.
struct WaypointConfig {
  int movers = 8;
  double speed = 0.25;
  double sample_dt = 0.25;
  double duration = 8.0;
  std::uint64_t seed = 1;
};
[[nodiscard]] ChurnTrace random_waypoint(const ubg::UbgInstance& inst, const WaypointConfig& cfg);

/// Correlated regional failure: every node within `radius` of a uniformly
/// chosen epicenter fails at `fail_time` (a burst of leaves), and — when
/// `rejoin` is set — powers back on at its original position at
/// `rejoin_time` (a burst of joins). Models localized outages: jamming,
/// power loss, weather cells.
struct RegionalFailureConfig {
  double radius = 1.5;
  double fail_time = 1.0;
  bool rejoin = true;
  double rejoin_time = 2.0;
  std::uint64_t seed = 1;
};
[[nodiscard]] ChurnTrace regional_failure(const ubg::UbgInstance& inst,
                                          const RegionalFailureConfig& cfg);

}  // namespace localspan::dynamic
