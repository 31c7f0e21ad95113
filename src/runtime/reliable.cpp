#include "runtime/reliable.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.hpp"

namespace localspan::runtime {

namespace {

enum FrameType : int { kData = 1, kAck = 2 };

struct ReliableMetrics {
  obs::MetricId retries = obs::counter_id("net.async.retries");
  obs::MetricId timeouts = obs::counter_id("net.async.timeouts");
  obs::MetricId acks = obs::counter_id("net.async.acks");
  obs::MetricId dup_suppressed = obs::counter_id("net.async.dup_suppressed");
};

const ReliableMetrics& reliable_metrics() {
  static const ReliableMetrics m;
  return m;
}

}  // namespace

void ReliableConfig::validate() const {
  if (!(rto > 0.0) || !std::isfinite(rto)) {
    throw std::invalid_argument("ReliableConfig: rto must be finite and > 0");
  }
  if (!(backoff >= 1.0) || !std::isfinite(backoff)) {
    throw std::invalid_argument("ReliableConfig: backoff must be finite and >= 1");
  }
  if (!(rto_max >= rto) || !std::isfinite(rto_max)) {
    throw std::invalid_argument("ReliableConfig: rto_max must be finite and >= rto");
  }
  if (max_attempts < 1) {
    throw std::invalid_argument("ReliableConfig: max_attempts must be >= 1");
  }
}

RetryBudgetExhausted::RetryBudgetExhausted(int from, int to, std::uint64_t seq, int attempts)
    : ReliableDeliveryError("ReliableNetwork: message " + std::to_string(from) + " -> " +
                            std::to_string(to) + " seq " + std::to_string(seq) +
                            " exhausted its retry budget after " + std::to_string(attempts) +
                            " attempts (partition never healed?)"),
      from_(from),
      to_(to),
      seq_(seq),
      attempts_(attempts) {}

bool ReliableNetwork::ReceiverLink::seen(std::uint64_t seq) const {
  return seq <= floor || ahead.count(seq) != 0;
}

void ReliableNetwork::ReceiverLink::mark(std::uint64_t seq) {
  if (seq == floor + 1) {
    ++floor;
    // Absorb any out-of-order arrivals that became contiguous.
    auto it = ahead.begin();
    while (it != ahead.end() && *it == floor + 1) {
      ++floor;
      it = ahead.erase(it);
    }
  } else if (seq > floor) {
    ahead.insert(seq);
  }
}

ReliableNetwork::ReliableNetwork(AsyncNetwork& net, ReliableConfig cfg)
    : net_(net),
      cfg_(cfg),
      staging_(static_cast<std::size_t>(net.topology().n())),
      staging_seq_(static_cast<std::size_t>(net.topology().n())),
      inbox_(static_cast<std::size_t>(net.topology().n())) {
  cfg_.validate();
}

void ReliableNetwork::send(int from, int to, const Packet& p) {
  const int n = net_.topology().n();
  detail::check_vertex(n, from, "ReliableNetwork::send");
  detail::check_vertex(n, to, "ReliableNetwork::send");
  detail::check_packet(p, "ReliableNetwork::send");
  if (!net_.topology().has_edge(from, to)) {
    throw std::invalid_argument("ReliableNetwork::send: recipients must be topology neighbors");
  }
  Pending pend;
  pend.from = from;
  pend.to = to;
  pend.frame.type = kData;
  pend.frame.seq = ++send_seq_[link_key(from, to)];
  pend.frame.payload = p;
  pend.rto = cfg_.rto;
  pending_.push_back(pend);
}

void ReliableNetwork::broadcast(int from, const Packet& p) {
  detail::check_vertex(net_.topology().n(), from, "ReliableNetwork::broadcast");
  detail::check_packet(p, "ReliableNetwork::broadcast");
  for (const graph::Neighbor& nb : net_.topology().neighbors(from)) {
    Pending pend;
    pend.from = from;
    pend.to = nb.to;
    pend.frame.type = kData;
    pend.frame.seq = ++send_seq_[link_key(from, nb.to)];
    pend.frame.payload = p;
    pend.rto = cfg_.rto;
    pending_.push_back(pend);
  }
}

void ReliableNetwork::transmit(Pending& p, std::size_t index) {
  ++p.attempts;
  net_.post(p.from, p.to, p.frame);
  // One outstanding timer per unacked message; stale timers are ignored via
  // the epoch encoded in the cookie (high 32 bits = round being delivered).
  const std::uint64_t cookie =
      (static_cast<std::uint64_t>(rounds_ + 1) << 32) | static_cast<std::uint64_t>(index);
  net_.schedule_timer(p.rto, cookie);
  p.rto = std::min(p.rto * cfg_.backoff, cfg_.rto_max);
}

void ReliableNetwork::handle_data(const AsyncEvent& ev) {
  // Always ACK, even a duplicate: the ACK that retired the original copy may
  // itself have been lost, and the sender is still retransmitting.
  Frame ack;
  ack.type = kAck;
  ack.seq = ev.frame.seq;
  ack.payload = Packet{};
  net_.post(ev.to, ev.from, ack);
  ++stats_.acks_sent;
  if (obs::enabled()) obs::counter_add(reliable_metrics().acks, 1);

  ReceiverLink& link = recv_[link_key(ev.from, ev.to)];
  if (link.seen(ev.frame.seq)) {
    ++stats_.dup_suppressed;
    if (obs::enabled()) obs::counter_add(reliable_metrics().dup_suppressed, 1);
    return;
  }
  link.mark(ev.frame.seq);
  // Fresh DATA always belongs to the round in flight: every earlier round
  // reached quiescence, which implies all its sequences were seen.
  staging_[static_cast<std::size_t>(ev.to)].emplace_back(ev.from, ev.frame.payload);
  staging_seq_[static_cast<std::size_t>(ev.to)].push_back(ev.frame.seq);
}

void ReliableNetwork::handle_ack(const AsyncEvent& ev) {
  // The ACK travels receiver → sender, so the DATA link it retires is
  // (ev.to, ev.from): ev.from is acking DATA it received from ev.to.
  const auto it = awaiting_.find({link_key(ev.to, ev.from), ev.frame.seq});
  if (it == awaiting_.end() || pending_[it->second].acked) {
    ++stats_.stale_acks;
    return;
  }
  pending_[it->second].acked = true;
  --unacked_;
  ++stats_.acks_received;
}

void ReliableNetwork::handle_timer(std::uint64_t cookie) {
  const std::uint64_t epoch = cookie >> 32;
  if (epoch != static_cast<std::uint64_t>(rounds_ + 1)) return;  // stale round.
  const std::size_t index = static_cast<std::size_t>(cookie & 0xFFFFFFFFULL);
  Pending& p = pending_[index];
  if (p.acked) return;  // retired while the timer was in flight.
  ++stats_.timeouts;
  if (obs::enabled()) obs::counter_add(reliable_metrics().timeouts, 1);
  if (p.attempts >= cfg_.max_attempts) {
    throw RetryBudgetExhausted(p.from, p.to, p.frame.seq, p.attempts);
  }
  ++stats_.retransmits;
  if (obs::enabled()) obs::counter_add(reliable_metrics().retries, 1);
  transmit(p, index);
}

void ReliableNetwork::end_round() {
  // Launch every staged message, then drive the event loop to quiescence.
  awaiting_.clear();
  unacked_ = pending_.size();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Pending& p = pending_[i];
    awaiting_[{link_key(p.from, p.to), p.frame.seq}] = i;
    ++stats_.data_sent;
    transmit(p, i);
  }

  AsyncEvent ev;
  while (unacked_ > 0) {
    if (!net_.next(ev)) {
      // Unreachable by construction (an unacked message always has a timer
      // outstanding), but guard against protocol bugs with a typed error.
      throw ReliableDeliveryError(
          "ReliableNetwork: event queue drained with unacked messages outstanding");
    }
    if (ev.kind == AsyncEventKind::kTimer) {
      handle_timer(ev.cookie);
    } else if (ev.frame.type == kData) {
      handle_data(ev);
    } else {
      handle_ack(ev);
    }
  }

  // Quiescence: publish this round's arrivals in (sender, sequence) order —
  // exactly the synchronous staging order for ascending-sender protocols.
  const long long delivered = static_cast<long long>(pending_.size());
  for (std::size_t v = 0; v < staging_.size(); ++v) {
    auto& msgs = staging_[v];
    auto& seqs = staging_seq_[v];
    std::vector<std::size_t> order(msgs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (msgs[a].first != msgs[b].first) return msgs[a].first < msgs[b].first;
      return seqs[a] < seqs[b];
    });
    auto& box = inbox_[v];
    box.clear();
    box.reserve(order.size());
    for (std::size_t idx : order) box.push_back(msgs[idx]);
    msgs.clear();
    seqs.clear();
  }
  pending_.clear();
  awaiting_.clear();

  ++rounds_;
  messages_ += delivered;
}

const std::vector<std::pair<int, Packet>>& ReliableNetwork::inbox(int v) const {
  detail::check_vertex(static_cast<int>(inbox_.size()), v, "ReliableNetwork::inbox");
  return inbox_[static_cast<std::size_t>(v)];
}

}  // namespace localspan::runtime
