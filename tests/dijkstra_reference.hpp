#pragma once
/// \file dijkstra_reference.hpp
/// Dense Dijkstra — the reference the shortest-path workspace is tested
/// against.
///
/// These functions allocate and initialize O(n) dist/parent arrays per
/// call. The library's searches all run on graph::DijkstraWorkspace
/// (sp_workspace.hpp), whose epoch-stamped scratch touches only the ball a
/// search settles; the tests compare it, and the passes built on it,
/// against these plain implementations.

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
