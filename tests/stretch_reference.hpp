#pragma once
/// \file stretch_reference.hpp
/// Pairwise stretch sampling for the tests: an independent cross-check of
/// graph::max_edge_stretch's per-edge witness pass.

#include <cstdint>

#include "graph/graph.hpp"
#include "runtime/parallel.hpp"

namespace localspan::graph {

/// Stretch over `samples` random vertex pairs (ratio of sp_sub to sp_g);
/// pairs disconnected in g are skipped. Cross-validates max_edge_stretch.
/// Samples are grouped by source vertex, so a source drawn k times costs
/// its two unbounded searches once, not k times (the drawn pair set is
/// identical either way). The sample count is 64-bit end-to-end: n=1e5-scale
/// sweeps ask for sample budgets that wrapped 32-bit counters.
/// A `pool` parallelizes the per-source-group searches (bit-identical;
/// same semantics as max_edge_stretch).
[[nodiscard]] double sampled_pair_stretch(const Graph& g, const Graph& sub, std::int64_t samples,
                                          std::uint64_t seed, runtime::WorkerPool* pool = nullptr);

}  // namespace localspan::graph
