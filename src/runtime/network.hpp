#pragma once
/// \file network.hpp
/// The message-passing transport interface (the model of §1.1).
///
/// `Network` is the round-structured transport interface every distributed
/// protocol in the repo is written against: stage messages to topology
/// neighbors, `end_round()` to make them visible, read them back via
/// `inbox()`. The library implements it once, as `runtime::ReliableNetwork`
/// (reliable.hpp): the synchronous round semantics of §1.1 reconstructed on
/// top of the adversarial discrete-event simulator (async_network.hpp) via a
/// per-link sequencing + ack/retry protocol, so protocols written for
/// synchronous semantics run unmodified under message loss, duplication,
/// reordering and partitions. The synchronous transport itself needs no
/// messages: `mis::luby_mis_parallel` counts its rounds analytically. The
/// lockstep simulator the tests hold both against lives with the test
/// references (tests/network_reference.hpp).
///
/// Only topology neighbors can talk. Algorithms that run on derived graphs
/// (the conflict graphs J of §3.2.1/§3.2.5, whose "edges" are constant-hop
/// paths of G) instantiate a network over the derived topology and scale the
/// charged rounds by the hop factor.

#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace localspan::runtime {

/// Wire format: a small tagged value, enough for the MIS and gather
/// protocols the paper's algorithm needs (message size O(log n) as required).
struct Packet {
  int kind = 0;
  double value = 0.0;
  int from_payload = 0;  ///< optional secondary field (ids etc.).
};

namespace detail {
/// Shared transport validation: vertex ids must index the topology and
/// payload values must be finite (a NaN smuggled through a comparison-based
/// protocol like Luby's poisons every decision downstream).
/// \throws std::invalid_argument on an out-of-range id.
void check_vertex(int n, int v, const char* who);
/// \throws std::domain_error on a non-finite Packet::value.
void check_packet(const Packet& p, const char* who);
}  // namespace detail

/// Round-structured message transport. Inbox contents become visible at the
/// round boundary; within a round, every staged message is addressed to a
/// topology neighbor of its sender.
class Network {
 public:
  virtual ~Network() = default;

  /// Stage a message for delivery at the end of this round.
  /// \throws std::invalid_argument if an id is out of range or {from,to} is
  ///         not an edge of the topology.
  /// \throws std::domain_error if the packet value is non-finite.
  virtual void send(int from, int to, const Packet& p) = 0;

  /// Stage the same message to every neighbor of `from`.
  virtual void broadcast(int from, const Packet& p) = 0;

  /// Deliver all staged messages; increments the round counter.
  virtual void end_round() = 0;

  /// Messages delivered to v in the previous round, as (sender, packet).
  [[nodiscard]] virtual const std::vector<std::pair<int, Packet>>& inbox(int v) const = 0;

  [[nodiscard]] virtual long long rounds() const noexcept = 0;
  [[nodiscard]] virtual long long messages() const noexcept = 0;
};

}  // namespace localspan::runtime
