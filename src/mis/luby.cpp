#include "mis/luby.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/network.hpp"
#include "runtime/parallel.hpp"

namespace localspan::mis {

namespace {

constexpr int kMark = 1;
constexpr int kJoin = 2;

enum class State { kActive, kInMis, kOut };

/// The paper's communication measure, messages/bytes per synchronous round,
/// recorded by the pool-parallel variant for the messages a lockstep
/// network would deliver (it never stages one).
struct LubyNetMetrics {
  obs::MetricId rounds = obs::counter_id("net.rounds");
  obs::MetricId messages = obs::counter_id("net.messages");
  obs::MetricId bytes = obs::counter_id("net.bytes");
  obs::MetricId round_messages = obs::histogram_id("net.round_messages");
};

const LubyNetMetrics& luby_net_metrics() {
  static const LubyNetMetrics m;
  return m;
}

void record_round(long long delivered) {
  if (!obs::enabled()) return;
  const LubyNetMetrics& m = luby_net_metrics();
  obs::counter_add(m.rounds, 1);
  obs::counter_add(m.messages, delivered);
  obs::counter_add(m.bytes, delivered * static_cast<long long>(sizeof(runtime::Packet)));
  obs::histogram_record(m.round_messages, delivered);
}

}  // namespace

double luby_priority(std::uint64_t seed, int iteration, int node) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(iteration) + 1) +
                    0xD1B54A32D192ED03ULL * (static_cast<std::uint64_t>(node) + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::vector<int> luby_mis_on(runtime::Network& net, const graph::Graph& g, std::uint64_t seed,
                             LubyStats* stats) {
  const int n = g.n();
  std::vector<State> state(static_cast<std::size_t>(n), State::kActive);
  std::vector<double> my_value(static_cast<std::size_t>(n), 0.0);
  int active = n;
  int iteration = 0;

  while (active > 0) {
    ++iteration;
    // Sub-round 1: undecided nodes broadcast their drawn values.
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      my_value[static_cast<std::size_t>(v)] = luby_priority(seed, iteration, v);
      net.broadcast(v, {kMark, my_value[static_cast<std::size_t>(v)], v});
    }
    net.end_round();

    // Decide: strict (value, id)-local-minimum among still-active neighbors
    // joins. Only active nodes broadcast marks, so the inbox is exactly the
    // active neighborhood.
    std::vector<char> joining(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      bool wins = true;
      for (const auto& [from, p] : net.inbox(v)) {
        if (p.kind != kMark) continue;
        if (std::pair(p.value, from) < std::pair(my_value[static_cast<std::size_t>(v)], v)) {
          wins = false;
          break;
        }
      }
      joining[static_cast<std::size_t>(v)] = wins ? 1 : 0;
    }

    // Sub-round 2: winners announce; dominated neighbors retire.
    for (int v = 0; v < n; ++v) {
      if (joining[static_cast<std::size_t>(v)]) net.broadcast(v, {kJoin, 0.0, v});
    }
    net.end_round();
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      if (joining[static_cast<std::size_t>(v)]) {
        state[static_cast<std::size_t>(v)] = State::kInMis;
        --active;
        continue;
      }
      for (const auto& [from, p] : net.inbox(v)) {
        (void)from;
        if (p.kind == kJoin) {
          state[static_cast<std::size_t>(v)] = State::kOut;
          --active;
          break;
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->iterations = iteration;
    stats->network_rounds = net.rounds();
    stats->messages = net.messages();
  }
  std::vector<int> out;
  for (int v = 0; v < n; ++v) {
    if (state[static_cast<std::size_t>(v)] == State::kInMis) out.push_back(v);
  }
  return out;
}

std::vector<int> luby_mis_parallel(const graph::Graph& g, std::uint64_t seed, LubyStats* stats,
                                   runtime::WorkerPool* pool) {
  const int n = g.n();
  std::vector<State> state(static_cast<std::size_t>(n), State::kActive);
  std::vector<char> joining(static_cast<std::size_t>(n), 0);
  std::vector<char> retired(static_cast<std::size_t>(n), 0);
  // scatter_commit plumbs per-worker Dijkstra workspaces; the MIS harvests
  // need none, so the serial fallback slot stays empty (no allocation).
  graph::DijkstraWorkspace no_ws;
  int active = n;
  int iteration = 0;
  long long rounds = 0;
  long long messages = 0;

  while (active > 0) {
    ++iteration;
    long long round1 = 0;  // marks: one message per active half-edge.
    long long round2 = 0;  // join announcements: one per winner half-edge.

    // Pass 1 — decide. Each node's join bit is a pure function of the
    // previous iteration's state and the shared priorities, harvested in
    // parallel into a node-owned slot; the commit tallies the simulator's
    // round-1 message charge (every active node broadcasts its mark).
    runtime::scatter_commit(
        pool, no_ws, n,
        [&](graph::DijkstraWorkspace&, int, int v) {
          if (state[static_cast<std::size_t>(v)] != State::kActive) {
            joining[static_cast<std::size_t>(v)] = 0;
            return;
          }
          const double mine = luby_priority(seed, iteration, v);
          char wins = 1;
          for (const graph::Neighbor& nb : g.neighbors(v)) {
            const int z = nb.to;
            if (state[static_cast<std::size_t>(z)] != State::kActive) continue;
            if (std::pair(luby_priority(seed, iteration, z), z) < std::pair(mine, v)) {
              wins = 0;
              break;
            }
          }
          joining[static_cast<std::size_t>(v)] = wins;
        },
        [&](int v) {
          if (state[static_cast<std::size_t>(v)] == State::kActive) round1 += g.degree(v);
        });

    // Pass 2 — retire. A non-winner retires iff some neighbor joined this
    // iteration (the kJoin inbox test); the commit applies both state
    // transitions in ascending node order and tallies the round-2 charge
    // (every winner broadcasts its announcement).
    runtime::scatter_commit(
        pool, no_ws, n,
        [&](graph::DijkstraWorkspace&, int, int v) {
          retired[static_cast<std::size_t>(v)] = 0;
          if (state[static_cast<std::size_t>(v)] != State::kActive ||
              joining[static_cast<std::size_t>(v)]) {
            return;
          }
          for (const graph::Neighbor& nb : g.neighbors(v)) {
            if (joining[static_cast<std::size_t>(nb.to)]) {
              retired[static_cast<std::size_t>(v)] = 1;
              break;
            }
          }
        },
        [&](int v) {
          if (joining[static_cast<std::size_t>(v)]) {
            round2 += g.degree(v);
            state[static_cast<std::size_t>(v)] = State::kInMis;
            --active;
          } else if (retired[static_cast<std::size_t>(v)]) {
            state[static_cast<std::size_t>(v)] = State::kOut;
            --active;
          }
        });

    rounds += 2;
    messages += round1 + round2;
    record_round(round1);
    record_round(round2);
  }

  if (stats != nullptr) {
    stats->iterations = iteration;
    stats->network_rounds = rounds;
    stats->messages = messages;
  }
  std::vector<int> out;
  for (int v = 0; v < n; ++v) {
    if (state[static_cast<std::size_t>(v)] == State::kInMis) out.push_back(v);
  }
  return out;
}

}  // namespace localspan::mis
