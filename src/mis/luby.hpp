#pragma once
/// \file luby.hpp
/// Luby's randomized distributed MIS, once per transport: message by
/// message over any `runtime::Network` (the library's is the reliable async
/// transport), and pool-parallel with analytic round accounting for the
/// synchronous one.
///
/// The paper invokes the Kuhn–Moscibroda–Wattenhofer O(log* n) MIS [11] on
/// its derived bounded-growth graphs. KMW is a substantial algorithm in its
/// own right; in its place we run the *actual distributed* Luby algorithm
/// (correct MIS, O(log n) rounds w.h.p.) and additionally report the
/// KMW-model round charge (log* n per invocation) so experiment E4 can plot
/// both the measured and the paper-claimed round shapes.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/network.hpp"

namespace localspan::runtime {
class WorkerPool;
}

namespace localspan::mis {

struct LubyStats {
  int iterations = 0;         ///< Luby rounds until all nodes decided.
  long long network_rounds = 0;  ///< simulator rounds (2 per iteration).
  long long messages = 0;        ///< total messages exchanged.
};

/// The shared deterministic priority draw: splitmix64 of the
/// (seed, iteration, node) triple mapped to a uniform double in [0, 1).
/// Every Luby variant — synchronous, asynchronous/reliable, and the
/// pool-parallel harvester — consumes exactly this function, so they all
/// break symmetry with identical priorities and produce identical sets.
[[nodiscard]] double luby_priority(std::uint64_t seed, int iteration, int node);

/// Luby's algorithm over any `runtime::Network` implementation. Per
/// iteration every undecided node draws a value (luby_priority), broadcasts
/// it, joins if it is the strict (value, id)-minimum in its undecided
/// neighborhood, then broadcasts the decision; dominated neighbors retire.
/// Deterministic given `seed`. `net` must be freshly constructed over
/// topology `g`. Because every decision depends only on round-boundary
/// inbox contents and the deterministic (seed, iteration, node) value
/// draws, the MIS is bit-identical across transports that deliver the same
/// round semantics — the property `ReliableNetwork` provides over the
/// adversarial simulator.
[[nodiscard]] std::vector<int> luby_mis_on(runtime::Network& net, const graph::Graph& g,
                                           std::uint64_t seed, LubyStats* stats = nullptr);

/// Pool-parallel Luby: the same protocol executed as two harvest/commit
/// passes per iteration on the deterministic runtime instead of message by
/// message on a simulator. Pass 1 harvests, per node, the frozen-state
/// join decision (strict (priority, id)-minimum among still-active
/// neighbors, priorities from luby_priority); pass 2 harvests which nodes a
/// winner retires. Both passes read only the previous iteration's state and
/// commit serially in node order via runtime::scatter_commit, so the result
/// — the set AND the reported stats, which mirror the simulator's message
/// accounting analytically (2 rounds per iteration; active-degree messages
/// in round one, winner-degree in round two) — is **bit-identical to
/// luby_mis_on over a lockstep synchronous network** at every thread count.
/// With obs on, each of the two rounds per iteration records the `net.*`
/// round metrics that network would. `pool` may be null (serial).
[[nodiscard]] std::vector<int> luby_mis_parallel(const graph::Graph& g, std::uint64_t seed,
                                                 LubyStats* stats = nullptr,
                                                 runtime::WorkerPool* pool = nullptr);

}  // namespace localspan::mis
