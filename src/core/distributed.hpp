#pragma once
/// \file distributed.hpp
/// The distributed relaxed greedy algorithm (paper §3), executed on the
/// synchronous message-passing simulator with full round/message accounting.
///
/// It runs the §2 phase loop of relaxed_greedy (detail::run_relaxed_phases)
/// with two substitutions: the cluster cover is the MIS-based one of
/// §3.2.1, and both MIS steps run Luby over the chosen transport. Each phase
/// is then charged its rounds (Theorems 16-21):
///   cover      — ball gather (⌈2δW/α⌉ hops) + MIS on the proximity graph J
///                (Luby on the simulator; J-edges span ≤ ⌈2δW/α⌉ G-hops so
///                each J-round costs that many G-rounds) + 1 attach round;
///   select     — cluster heads gather 1+⌈2δW/α⌉ hops            (O(1));
///   clustergraph — gather ⌈2(2δ+1)W/α⌉ hops                     (O(1));
///   query      — brute-force search ⌈2(2δ+1)/α⌉ hops (Theorem 9, O(1));
///   redundancy — constant-hop exchange + MIS on the conflict graph J.
/// Phase 0 (§3.1) costs O(1) rounds: 2 to learn the closed neighborhood
/// topology, 1 to announce chosen spanner edges.
///
/// Alongside the measured rounds (Luby MIS: O(log n) w.h.p.) the driver
/// reports the KMW-model rounds where each MIS invocation is charged
/// log*(n) iterations instead — the paper's O(log n · log* n) bound refers
/// to that model (mis/luby.hpp explains the substitution).

#include <cstdint>

#include "core/relaxed_greedy.hpp"
#include "runtime/async_network.hpp"
#include "runtime/reliable.hpp"

namespace localspan::core {

/// Transport selection for the message-passing phases (the Luby MIS
/// invocations — every other phase is constant-hop gathers whose rounds are
/// charged analytically to DistributedStats either way).
enum class NetMode { kSync, kAsync };

struct NetOptions {
  NetMode mode = NetMode::kSync;
  runtime::AdversaryConfig adversary;  ///< fault injection (async mode only).
  runtime::ReliableConfig reliable;    ///< retransmission policy (async mode only).
  bool record_transcript = false;      ///< keep per-delivery replay records.
};

/// Aggregated async-transport outcome across all MIS invocations of a run.
/// Empty (all zeros) in sync mode.
struct AsyncNetSummary {
  runtime::AsyncStats physical;    ///< transport-level frame counters.
  runtime::ReliableStats protocol; ///< delivery-protocol counters.
  double convergence_time = 0.0;   ///< summed final virtual time per invocation.
  int invocations = 0;             ///< MIS runs that used the async transport.
  std::vector<runtime::DeliveryRecord> transcript;  ///< when recorded.
};

/// Round accounting of one phase (one processed bin).
struct PhaseRounds {
  int bin = 0;
  long long cover = 0;
  long long select = 0;
  long long cluster_graph = 0;
  long long query = 0;
  long long redundancy = 0;
  long long mis_rounds_measured = 0;   ///< Luby network rounds × hop factor.
  long long mis_rounds_kmw_model = 0;  ///< log*(n) iterations × hop factor.

  [[nodiscard]] long long total_measured() const noexcept {
    return cover + select + cluster_graph + query + redundancy;
  }
};

/// Network-level outcome of the distributed run.
struct DistributedStats {
  long long rounds_measured = 0;
  long long rounds_kmw_model = 0;
  long long messages = 0;
  int mis_invocations = 0;
  int max_luby_iterations = 0;
  std::vector<PhaseRounds> per_phase;
  AsyncNetSummary async;
};

struct DistributedResult {
  RelaxedGreedyResult base;  ///< spanner + per-phase algorithmic stats.
  DistributedStats net;
};

/// Run §3's distributed algorithm. Deterministic given `seed` (which drives
/// the Luby MIS draws). The output satisfies the same three properties as
/// the sequential algorithm; it differs edge-wise because cluster centers
/// come from an MIS rather than a sequential sweep.
///
/// With `net.mode == NetMode::kAsync` the MIS protocols run over the
/// adversarial asynchronous transport behind the reliable-delivery layer;
/// because that layer reconstructs exact round semantics, the spanner (and
/// every round/message count) is bit-identical to the sync run for any
/// adversary under which delivery succeeds. A partition that never heals
/// surfaces as `runtime::RetryBudgetExhausted`.
[[nodiscard]] DistributedResult distributed_relaxed_greedy(const ubg::UbgInstance& inst,
                                                           const Params& params,
                                                           const RelaxedGreedyOptions& opts = {},
                                                           std::uint64_t seed = 1,
                                                           const NetOptions& net = {});

}  // namespace localspan::core
