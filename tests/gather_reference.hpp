#pragma once
/// \file gather_reference.hpp
/// Message-level k-hop topology gathering, the reference the tests hold the
/// distributed driver's round charge against.
///
/// Every step of §3 begins with "node u gathers information from nodes at
/// most k hops away". The distributed driver charges this at the model level
/// (k rounds, degree-proportional messages); this module implements the
/// actual flooding protocol on the SyncNetwork so that the charged model can
/// be validated against a real execution (and so tests can observe per-node
/// views): each node starts knowing its incident edges and, for k rounds,
/// forwards every newly learned edge record to all neighbors. A record is
/// (u, v, w) — O(log n) bits, so message counts are records transferred,
/// matching the model's message-size discipline.

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "ledger_reference.hpp"

namespace localspan::runtime {

/// Execute the k-round flooding protocol on topology g. Returns, for each
/// node, its learned view: a graph over the full id space containing every
/// edge with at least one endpoint within k hops of the node.
/// Charges `ledger` (if non-null) k rounds and one message per record
/// transferred, under section `section`.
[[nodiscard]] std::vector<graph::Graph> khop_views(const graph::Graph& g, int k,
                                                   RoundLedger* ledger = nullptr,
                                                   const std::string& section = "gather");

}  // namespace localspan::runtime
