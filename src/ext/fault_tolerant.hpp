#pragma once
/// \file fault_tolerant.hpp
/// Extension 1 of §1.6: k-fault-tolerant spanners (ideas from Czumaj–Zhao [2]).
///
/// A k-edge fault-tolerant t-spanner G' of G guarantees that for every edge
/// set F, |F| <= k, G'−F is a t-spanner of G−F. The paper only sketches this
/// extension; we implement the greedy edge-fault variant: process edges in
/// non-decreasing weight; keep {u,v} unless the current output already holds
/// k+1 pairwise edge-disjoint uv-paths each of length <= t·w(u,v). Disjoint
/// paths are peeled greedily (shortest first), which can only over-include
/// edges — never violating the fault-tolerance property being built.
/// Experiment E10 injects random faults and re-measures stretch.

#include <cstdint>

#include "graph/graph.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::ext {

/// Greedy k-edge fault-tolerant t-spanner.
/// k = 0 degenerates to the classical SEQ-GREEDY.
///
/// With a `pool` of several workers the per-edge peeling checks run
/// speculatively in parallel waves: a wave of upcoming edges is checked
/// against a snapshot of the output, and results are consumed in
/// sorted-edge order up to (and including) the first edge that gets added —
/// later results saw a stale output and are recomputed in the next wave, so
/// the output is bit-identical to the serial greedy (pool null).
/// \throws std::invalid_argument unless t >= 1 and k >= 0.
[[nodiscard]] graph::Graph fault_tolerant_greedy(const graph::Graph& g, double t, int k,
                                                 runtime::WorkerPool* pool = nullptr);

/// Greedy k-VERTEX fault-tolerant t-spanner (§1.6 names this variant first):
/// keep {u,v} unless the output already holds k+1 internally vertex-disjoint
/// uv-paths of length <= t·w(u,v) (greedy peel of interior vertices).
/// Vertex-disjointness implies edge-disjointness, so this output also
/// survives k edge faults; it is denser than the edge variant.
/// `pool` as in fault_tolerant_greedy (bit-identical speculative waves).
[[nodiscard]] graph::Graph fault_tolerant_greedy_vertex(const graph::Graph& g, double t, int k,
                                                        runtime::WorkerPool* pool = nullptr);

/// Remove `faults` random edges (seeded) from a copy of `g'` — the fault
/// injector for the E10 resilience measurements. Returns the faulted copy
/// and writes the removed edges to `removed` when non-null.
[[nodiscard]] graph::Graph inject_edge_faults(const graph::Graph& g, int faults,
                                              std::uint64_t seed,
                                              std::vector<graph::Edge>* removed = nullptr);

/// Remove `faults` random vertices (all incident edges) from a copy of g.
/// Vertex ids are preserved; the victims are reported via `removed_vertices`.
[[nodiscard]] graph::Graph inject_vertex_faults(const graph::Graph& g, int faults,
                                                std::uint64_t seed,
                                                std::vector<int>* removed_vertices = nullptr);

}  // namespace localspan::ext
