#pragma once
/// \file serialize.hpp
/// Persistence and interchange for instances and topologies.
///
/// Formats:
///  * instance text format (versioned, round-trippable): node coordinates +
///    edge list — lets experiments be archived and replayed exactly;
///  * Graphviz DOT with positions (`neato -n2` renders the layout) for
///    eyeballing spanners;
///  * CSV edge lists for spreadsheet/pandas post-processing of experiments.

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "ubg/generator.hpp"

namespace localspan::io {

/// Write an instance (config, points, edges) to a stream in the versioned
/// text format. Doubles are written with 17 significant decimal digits
/// (max_digits10), which read back bit for bit.
void write_instance(std::ostream& os, const ubg::UbgInstance& inst);

/// Parse an instance written by write_instance.
/// \throws std::runtime_error on malformed input or version mismatch.
[[nodiscard]] ubg::UbgInstance read_instance(std::istream& is);

/// Convenience file wrappers. \throws std::runtime_error on I/O failure.
void save_instance(const std::string& path, const ubg::UbgInstance& inst);
[[nodiscard]] ubg::UbgInstance load_instance(const std::string& path);

/// Graphviz DOT of `topo` using the instance's 2-D positions (first two
/// coordinates when dim > 2). Spanner edges can be highlighted by passing
/// the spanner as `highlight` (its edges render bold/colored).
void write_dot(std::ostream& os, const ubg::UbgInstance& inst, const graph::Graph& topo,
               const graph::Graph* highlight = nullptr);

/// CSV edge list: "u,v,weight\n" rows with a header.
void write_edge_csv(std::ostream& os, const graph::Graph& g);

}  // namespace localspan::io
