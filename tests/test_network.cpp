// Tests for the synchronous message-passing simulator (network_reference.hpp):
// error paths, inbox lifecycle between rounds, and round/message accounting.
#include <gtest/gtest.h>

#include <limits>

#include "graph/graph.hpp"
#include "network_reference.hpp"
#include "ledger_reference.hpp"

namespace gr = localspan::graph;
namespace rt = localspan::runtime;

namespace {

/// A 4-path 0-1-2-3: enough topology for neighbor/non-neighbor cases.
gr::Graph path4() {
  gr::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  return g;
}

}  // namespace

TEST(SyncNetwork, SendOnNonEdgeThrows) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  EXPECT_THROW(net.send(0, 2, {}), std::invalid_argument);  // not an edge
  EXPECT_THROW(net.send(0, 3, {}), std::invalid_argument);
  EXPECT_THROW(net.send(0, 0, {}), std::invalid_argument);  // self-message
  // The LOCAL-model constraint rejects before staging: nothing delivered.
  net.end_round();
  EXPECT_EQ(net.messages(), 0);
  EXPECT_TRUE(net.inbox(2).empty());
}

TEST(SyncNetwork, InboxOutOfRangeThrows) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  EXPECT_THROW(static_cast<void>(net.inbox(-1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(net.inbox(4)), std::invalid_argument);
}

TEST(SyncNetwork, SendOutOfRangeIdsThrow) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  EXPECT_THROW(net.send(-1, 1, {}), std::invalid_argument);
  EXPECT_THROW(net.send(0, 4, {}), std::invalid_argument);
  EXPECT_THROW(net.send(4, 0, {}), std::invalid_argument);
  EXPECT_THROW(net.send(0, 1000000, {}), std::invalid_argument);
  // Rejected before staging: nothing is delivered.
  net.end_round();
  EXPECT_EQ(net.messages(), 0);
}

TEST(SyncNetwork, BroadcastOutOfRangeIdThrows) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  EXPECT_THROW(net.broadcast(-1, {}), std::invalid_argument);
  EXPECT_THROW(net.broadcast(4, {}), std::invalid_argument);
  net.end_round();
  EXPECT_EQ(net.messages(), 0);
}

TEST(SyncNetwork, NonFinitePacketValueThrows) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN value smuggled through a comparison-based protocol (Luby's strict
  // minimum) would poison every downstream decision — typed rejection.
  EXPECT_THROW(net.send(0, 1, {1, nan, 0}), std::domain_error);
  EXPECT_THROW(net.send(0, 1, {1, inf, 0}), std::domain_error);
  EXPECT_THROW(net.send(0, 1, {1, -inf, 0}), std::domain_error);
  EXPECT_THROW(net.broadcast(1, {1, nan, 0}), std::domain_error);
  net.end_round();
  EXPECT_EQ(net.messages(), 0);
  // Finite values still pass.
  net.send(0, 1, {1, 0.0, 0});
  net.end_round();
  EXPECT_EQ(net.messages(), 1);
}

TEST(SyncNetwork, DeliveryAndInboxClearingBetweenRounds) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");

  // Round 1: 0 -> 1 and 2 -> 1.
  net.send(0, 1, {7, 0.5, 42});
  net.send(2, 1, {8, 1.5, 43});
  // Nothing is visible before the round barrier.
  EXPECT_TRUE(net.inbox(1).empty());
  net.end_round();

  const auto& inbox1 = net.inbox(1);
  ASSERT_EQ(inbox1.size(), 2u);
  EXPECT_EQ(inbox1[0].first, 0);
  EXPECT_EQ(inbox1[0].second.kind, 7);
  EXPECT_DOUBLE_EQ(inbox1[0].second.value, 0.5);
  EXPECT_EQ(inbox1[0].second.from_payload, 42);
  EXPECT_EQ(inbox1[1].first, 2);

  // Round 2 with no sends: last round's inbox must be cleared, not leak.
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());

  // Round 3: a fresh send replaces, not appends.
  net.send(1, 2, {9, 0.0, 0});
  net.end_round();
  ASSERT_EQ(net.inbox(2).size(), 1u);
  EXPECT_EQ(net.inbox(2)[0].second.kind, 9);
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(SyncNetwork, BroadcastReachesExactlyTheNeighbors) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  net.broadcast(1, {3, 0.25, 1});
  net.end_round();
  ASSERT_EQ(net.inbox(0).size(), 1u);
  ASSERT_EQ(net.inbox(2).size(), 1u);
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_TRUE(net.inbox(3).empty());
  EXPECT_EQ(net.messages(), 2);
}

TEST(SyncNetwork, RoundAndMessageCountersAccumulate) {
  const gr::Graph g = path4();
  rt::SyncNetwork net(g, nullptr, "test");
  EXPECT_EQ(net.rounds(), 0);
  EXPECT_EQ(net.messages(), 0);

  net.send(0, 1, {});
  net.end_round();
  EXPECT_EQ(net.rounds(), 1);
  EXPECT_EQ(net.messages(), 1);

  // Empty rounds still count as rounds (synchronous time advances).
  net.end_round();
  EXPECT_EQ(net.rounds(), 2);
  EXPECT_EQ(net.messages(), 1);

  net.broadcast(2, {});
  net.send(3, 2, {});
  net.end_round();
  EXPECT_EQ(net.rounds(), 3);
  EXPECT_EQ(net.messages(), 4);
}

TEST(SyncNetwork, LedgerChargedPerSection) {
  const gr::Graph g = path4();
  rt::RoundLedger ledger;
  {
    rt::SyncNetwork net(g, &ledger, "phase-a");
    net.send(0, 1, {});
    net.end_round();
    net.end_round();
  }
  {
    rt::SyncNetwork net(g, &ledger, "phase-b");
    net.broadcast(1, {});
    net.end_round();
  }
  EXPECT_EQ(ledger.rounds(), 3);
  EXPECT_EQ(ledger.messages(), 3);
  ASSERT_EQ(ledger.rounds_by_section().size(), 2u);
  EXPECT_EQ(ledger.rounds_by_section().at("phase-a"), 2);
  EXPECT_EQ(ledger.rounds_by_section().at("phase-b"), 1);
}
