#pragma once
/// \file dijkstra.hpp
/// Shortest-path machinery — the dense reference implementation.
///
/// Every shortest-path question in the paper is *radius-bounded*: cluster
/// covers explore to δW_{i-1} (§2.2.1), cluster-graph construction to
/// (2δ+1)W_{i-1} (Lemma 5), queries to t·|xy| (§2.2.4). We therefore expose
/// bounded Dijkstra variants that stop expanding past the bound — this is
/// both the asymptotic trick of Das–Narasimhan and what keeps the phased
/// algorithm near-linear in practice.
///
/// These functions allocate and initialize O(n) dist/parent arrays per
/// call, which makes the memory traffic global even when the settled ball
/// is tiny. Hot paths use graph::DijkstraWorkspace (sp_workspace.hpp)
/// instead — epoch-stamped scratch with O(1) reset and zero steady-state
/// allocation; the functions here survive as the reference implementation
/// the workspace is tested against (tests/test_sp_workspace.cpp) and as
/// the convenient form for one-shot callers off the hot path.

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace localspan::graph {

/// Result of a (possibly bounded) single-source run.
struct ShortestPaths {
  std::vector<double> dist;  ///< dist[v] = sp(src, v), kInf if not settled.
  std::vector<int> parent;   ///< parent[v] on a shortest path tree, -1 at roots/unreached.
};

/// Single-source Dijkstra from src over the whole graph.
[[nodiscard]] ShortestPaths dijkstra(const Graph& g, int src);

/// Single-source Dijkstra that settles only vertices with sp(src,v) <= radius.
/// All other vertices report kInf. Cost is proportional to the ball explored.
[[nodiscard]] ShortestPaths dijkstra_bounded(const Graph& g, int src, double radius);

/// sp(u, v), or kInf if it exceeds `bound`. Early-exits as soon as v is
/// settled or the frontier minimum passes the bound.
[[nodiscard]] double sp_distance(const Graph& g, int u, int v, double bound = kInf);

/// Multi-source bounded Dijkstra: dist[v] = min over sources s of sp(s, v),
/// settling only vertices within `radius`. When `weight` is non-null each
/// stored edge weight is mapped through it before use (so the dynamic engine
/// can measure balls in §1.6-transformed weights without copying the graph).
/// Duplicate sources are fine; `parent` marks sources with -1 as usual.
[[nodiscard]] ShortestPaths dijkstra_multi_bounded(
    const Graph& g, std::span<const int> sources, double radius,
    const std::function<double(double)>& weight = {});

/// Vertices within `k` hops of src (unweighted BFS ball), including src.
/// Models the "gather information from <= k hops away" primitive that the
/// distributed algorithm uses throughout §3.
[[nodiscard]] std::vector<int> khop_ball(const Graph& g, int src, int k);

/// Hop count of the shortest *weighted* path realizing dist via `parent`,
/// or -1 if v was not reached. Used to validate Lemma 8 / Theorem 9.
[[nodiscard]] int path_hops(const ShortestPaths& sp, int v);

}  // namespace localspan::graph
