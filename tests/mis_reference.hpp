#pragma once
/// \file mis_reference.hpp
/// Maximal independent sets for the tests. Both MIS consumers in the paper
/// (cluster-cover centers §3.2.1, redundant-edge thinning §2.2.5/§3.2.5)
/// only need *some* MIS. Both constructions use Luby's algorithm
/// (mis/luby.hpp): the sequential relaxed greedy runs `luby_mis_parallel`
/// with a fixed seed on its worker pool; the distributed one runs the same
/// protocol with a per-phase seed, through `luby_mis_parallel` under
/// net=sync and `luby_mis_on` under net=async. The greedy MIS below is the
/// deterministic reference the tests drive the cluster and redundancy
/// passes with, `luby_mis` is the message-level Luby both library variants
/// are held against, and the checker validates every MIS the tests draw.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mis/luby.hpp"
#include "ledger_reference.hpp"

namespace localspan::mis {

/// Luby's algorithm (`luby_mis_on`) run message by message on the lockstep
/// `runtime::SyncNetwork` (network_reference.hpp): the round-semantics
/// reference for `luby_mis_parallel` and for `luby_mis_on` over
/// `runtime::ReliableNetwork`. Deterministic given `seed`.
///
/// \param ledger optional ledger charged under section `section`.
[[nodiscard]] std::vector<int> luby_mis(const graph::Graph& g, std::uint64_t seed,
                                        LubyStats* stats = nullptr,
                                        runtime::RoundLedger* ledger = nullptr,
                                        const std::string& section = "mis");

/// Deterministic greedy MIS: scan vertices in increasing id, add a vertex
/// when none of its neighbors was added. O(n + m), always maximal.
[[nodiscard]] std::vector<int> greedy_mis(const graph::Graph& g);

/// True iff `set` is independent in g and maximal (every vertex outside has
/// a neighbor inside).
[[nodiscard]] bool is_maximal_independent_set(const graph::Graph& g, const std::vector<int>& set);

}  // namespace localspan::mis
