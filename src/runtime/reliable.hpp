#pragma once
/// \file reliable.hpp
/// Reliable round delivery over the adversarial asynchronous network.
///
/// `ReliableNetwork` implements the `Network` interface on top of
/// `AsyncNetwork`, so protocols written for synchronous round semantics run
/// unmodified under message loss, duplication, reordering, stragglers and
/// healing partitions. The protocol is classical stop-and-wait-per-message:
///
///   - every staged message gets a per-link (sender → receiver) sequence
///     number; the receiver suppresses duplicates with a contiguous floor +
///     out-of-order seen set and ACKs every DATA it sees (including dups,
///     because the previous ACK may have been lost);
///   - the sender retransmits unacked DATA on a timer with exponential
///     backoff (`rto`, ×`backoff` per attempt, capped at `rto_max`) and a
///     hard retry budget (`max_attempts`), whose exhaustion is the typed
///     `RetryBudgetExhausted` error — the only way a run fails to terminate
///     cleanly, and it only happens under a partition that never heals;
///   - `end_round()` drains the event queue until quiescence (every staged
///     message of the round acked), which is the termination detector: a
///     round ends exactly when nothing in it can still make progress.
///
/// Bit-identity with a lockstep synchronous network is by construction: the
/// round inbox is sorted by (sender, link sequence), which equals the
/// synchronous staging order for protocols that stage in ascending sender
/// order (Luby does), and `rounds()`/`messages()` count application-level
/// rounds and messages, not physical frames — so round counts and
/// downstream decisions are exactly those of the synchronous run.

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "runtime/async_network.hpp"
#include "runtime/network.hpp"

namespace localspan::runtime {

/// Retransmission policy knobs.
struct ReliableConfig {
  double rto = 4.0;       ///< initial retransmission timeout (virtual time).
  double backoff = 2.0;   ///< rto multiplier per failed attempt.
  double rto_max = 64.0;  ///< backoff cap.
  int max_attempts = 24;  ///< transmissions per message before giving up.

  /// \throws std::invalid_argument naming the first out-of-domain knob.
  void validate() const;
};

/// Base class for delivery-protocol failures.
class ReliableDeliveryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown from `end_round()` when a message exhausts its retry budget —
/// under the fault matrix this means a partition that never healed.
class RetryBudgetExhausted : public ReliableDeliveryError {
 public:
  RetryBudgetExhausted(int from, int to, std::uint64_t seq, int attempts);

  int from() const noexcept { return from_; }
  int to() const noexcept { return to_; }
  std::uint64_t seq() const noexcept { return seq_; }
  int attempts() const noexcept { return attempts_; }

 private:
  int from_;
  int to_;
  std::uint64_t seq_;
  int attempts_;
};

/// Protocol-level counters (the physical-transport view lives in
/// `AsyncNetwork::stats()`).
struct ReliableStats {
  long long data_sent = 0;       ///< first transmissions (== app messages).
  long long retransmits = 0;     ///< timer-driven resends.
  long long timeouts = 0;        ///< timer fires that found an unacked message.
  long long acks_sent = 0;       ///< ACK frames posted (incl. re-ACKs of dups).
  long long acks_received = 0;   ///< ACKs that retired a pending message.
  long long stale_acks = 0;      ///< duplicate/late ACKs ignored.
  long long dup_suppressed = 0;  ///< duplicate DATA discarded at the receiver.
};

class ReliableNetwork final : public Network {
 public:
  /// \param net    adversarial transport (must outlive this object).
  /// \throws std::invalid_argument when cfg fails validation.
  ReliableNetwork(AsyncNetwork& net, ReliableConfig cfg);

  void send(int from, int to, const Packet& p) override;
  void broadcast(int from, const Packet& p) override;

  /// Run the delivery protocol to quiescence for this round's staged
  /// messages, then publish them to the inboxes in (sender, sequence) order.
  /// \throws RetryBudgetExhausted if any message runs out of attempts.
  void end_round() override;

  [[nodiscard]] const std::vector<std::pair<int, Packet>>& inbox(int v) const override;

  [[nodiscard]] long long rounds() const noexcept override { return rounds_; }
  [[nodiscard]] long long messages() const noexcept override { return messages_; }

  [[nodiscard]] const ReliableStats& stats() const noexcept { return stats_; }
  [[nodiscard]] AsyncNetwork& transport() noexcept { return net_; }

 private:
  struct Pending {
    int from = -1;
    int to = -1;
    Frame frame;
    double rto = 0.0;
    int attempts = 0;
    bool acked = false;
  };
  struct ReceiverLink {
    std::uint64_t floor = 0;        ///< highest contiguous sequence seen.
    std::set<std::uint64_t> ahead;  ///< out-of-order sequences above floor.
    [[nodiscard]] bool seen(std::uint64_t seq) const;
    void mark(std::uint64_t seq);
  };

  static std::uint64_t link_key(int from, int to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }
  void transmit(Pending& p, std::size_t index);
  void handle_data(const AsyncEvent& ev);
  void handle_ack(const AsyncEvent& ev);
  void handle_timer(std::uint64_t cookie);

  AsyncNetwork& net_;
  ReliableConfig cfg_;

  // Persistent across rounds: link sequence counters and receiver dup state
  // (late duplicates from round r must still be recognized in round r+1).
  std::unordered_map<std::uint64_t, std::uint64_t> send_seq_;
  std::unordered_map<std::uint64_t, ReceiverLink> recv_;

  // Per-round protocol state.
  std::vector<Pending> pending_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> awaiting_;  ///< (link, seq) → index.
  std::size_t unacked_ = 0;
  std::vector<std::vector<std::pair<int, Packet>>> staging_;  ///< receiver → arrived this round.
  std::vector<std::vector<std::uint64_t>> staging_seq_;       ///< parallel: link seq per arrival.

  std::vector<std::vector<std::pair<int, Packet>>> inbox_;
  long long rounds_ = 0;
  long long messages_ = 0;
  ReliableStats stats_;
};

}  // namespace localspan::runtime
