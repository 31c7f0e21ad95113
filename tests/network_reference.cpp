#include "network_reference.hpp"

#include <stdexcept>

namespace localspan::runtime {

SyncNetwork::SyncNetwork(const graph::Graph& topo, RoundLedger* ledger, std::string section)
    : topo_(topo),
      ledger_(ledger),
      section_(std::move(section)),
      inbox_(static_cast<std::size_t>(topo.n())),
      outbox_(static_cast<std::size_t>(topo.n())) {}

void SyncNetwork::send(int from, int to, const Packet& p) {
  detail::check_vertex(topo_.n(), from, "SyncNetwork::send");
  detail::check_vertex(topo_.n(), to, "SyncNetwork::send");
  detail::check_packet(p, "SyncNetwork::send");
  if (!topo_.has_edge(from, to)) {
    throw std::invalid_argument("SyncNetwork::send: recipients must be topology neighbors");
  }
  outbox_[static_cast<std::size_t>(to)].emplace_back(from, p);
}

void SyncNetwork::broadcast(int from, const Packet& p) {
  detail::check_vertex(topo_.n(), from, "SyncNetwork::broadcast");
  detail::check_packet(p, "SyncNetwork::broadcast");
  for (const graph::Neighbor& nb : topo_.neighbors(from)) {
    outbox_[static_cast<std::size_t>(nb.to)].emplace_back(from, p);
  }
}

void SyncNetwork::end_round() {
  long long delivered = 0;
  for (std::size_t v = 0; v < outbox_.size(); ++v) {
    delivered += static_cast<long long>(outbox_[v].size());
    inbox_[v] = std::move(outbox_[v]);
    outbox_[v].clear();
  }
  ++rounds_;
  messages_ += delivered;
  if (ledger_ != nullptr) ledger_->charge(section_, 1, delivered);
}

const std::vector<std::pair<int, Packet>>& SyncNetwork::inbox(int v) const {
  detail::check_vertex(static_cast<int>(inbox_.size()), v, "SyncNetwork::inbox");
  return inbox_[static_cast<std::size_t>(v)];
}

}  // namespace localspan::runtime
