#pragma once
/// \file network_reference.hpp
/// The lockstep synchronous simulator of §1.1, the round-semantics
/// reference the tests hold the library's transports against.
///
/// `end_round()` delivers every staged message simultaneously and charges
/// the ledger, exactly the LOCAL-model constraint of §1.1. The library runs
/// the synchronous transport without messages (`mis::luby_mis_parallel`
/// counts its rounds analytically) and the asynchronous one through
/// `runtime::ReliableNetwork`; both must reproduce this simulator's inboxes,
/// rounds and messages.

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "ledger_reference.hpp"
#include "runtime/network.hpp"

namespace localspan::runtime {

class SyncNetwork final : public Network {
 public:
  /// \param topo   communication topology (must outlive the network).
  /// \param ledger ledger charged one round per end_round(); may be null.
  /// \param section ledger section name for charges.
  SyncNetwork(const graph::Graph& topo, RoundLedger* ledger, std::string section);

  void send(int from, int to, const Packet& p) override;
  void broadcast(int from, const Packet& p) override;
  void end_round() override;
  [[nodiscard]] const std::vector<std::pair<int, Packet>>& inbox(int v) const override;

  [[nodiscard]] long long rounds() const noexcept override { return rounds_; }
  [[nodiscard]] long long messages() const noexcept override { return messages_; }

 private:
  const graph::Graph& topo_;
  RoundLedger* ledger_;
  std::string section_;
  std::vector<std::vector<std::pair<int, Packet>>> inbox_;
  std::vector<std::vector<std::pair<int, Packet>>> outbox_;
  long long rounds_ = 0;
  long long messages_ = 0;
};

}  // namespace localspan::runtime
