#pragma once
/// \file graph.hpp
/// Weighted undirected graph — the shared substrate for the input α-UBG G,
/// the partial spanners G'_i and the derived conflict graphs J of the
/// paper (the cluster graph H_{i-1}, frozen once built, is a CsrView).
///
/// Adjacency-list representation with value semantics. Edge weights are
/// positive doubles (Euclidean lengths by default; the §1.6 energy extension
/// uses c·|uv|^γ). Parallel edges are rejected, self-loops are illegal.

#include <limits>
#include <span>
#include <vector>

namespace localspan::graph {

/// Distance value meaning "unreachable (within the bound)".
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One directed half of an undirected edge as stored in adjacency lists.
struct Neighbor {
  int to;
  double w;
};

/// An undirected edge with endpoints u < v.
struct Edge {
  int u;
  int v;
  double w;

  bool operator==(const Edge& o) const noexcept { return u == o.u && v == o.v && w == o.w; }
};

/// Weighted undirected simple graph on vertices 0..n-1.
class Graph {
 public:
  /// Edgeless graph on n >= 0 vertices.
  explicit Graph(int n = 0);

  [[nodiscard]] int n() const noexcept { return static_cast<int>(adj_.size()); }
  [[nodiscard]] int m() const noexcept { return m_; }

  /// Append an isolated vertex; returns its id (the new n-1). Existing ids
  /// and edges are untouched — the growth primitive for dynamic topologies.
  int add_vertex();

  /// Add undirected edge {u,v} with weight w > 0.
  /// \returns true if added, false if the edge already existed (weight kept).
  /// \throws std::invalid_argument on bad endpoints, self-loop or w <= 0.
  bool add_edge(int u, int v, double w);

  /// add_edge each of `edges` in list order, every row reserved up front.
  /// \returns the index of the first edge already present (it and those
  /// after it are not added), or -1.
  int add_edges(std::span<const Edge> edges);

  /// Remove undirected edge {u,v}. \returns true if it existed.
  bool remove_edge(int u, int v);

  [[nodiscard]] bool has_edge(int u, int v) const;

  /// Weight of existing edge {u,v}. \throws std::invalid_argument if absent.
  [[nodiscard]] double edge_weight(int u, int v) const;

  [[nodiscard]] std::span<const Neighbor> neighbors(int u) const;
  [[nodiscard]] int degree(int u) const;
  [[nodiscard]] int max_degree() const noexcept;

  /// Sum of all edge weights: w(G) in the paper's notation.
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }

  /// Materialized edge list, each edge once with u < v, sorted by (u,v).
  [[nodiscard]] std::vector<Edge> edges() const;

  bool operator==(const Graph& o) const;

 private:
  void check_vertex(int u) const;

  std::vector<std::vector<Neighbor>> adj_;
  int m_ = 0;
  double total_weight_ = 0.0;
};

}  // namespace localspan::graph
