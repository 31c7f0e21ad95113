#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "mis/luby.hpp"

namespace localspan::core {

namespace {

/// Hops needed in G to explore a Euclidean-scale radius L: on any shortest
/// path, vertices two hops apart are > α apart (else the direct edge would
/// exist in an α-UBG), so a path of length L has at most ⌈2L/α⌉ hops.
long long hops_for(double length, double alpha) {
  return std::max<long long>(1, static_cast<long long>(std::ceil(2.0 * length / alpha)));
}

/// Fold one async MIS invocation's transport and protocol counters into the
/// run summary.
void add_async_run(AsyncNetSummary& async, const runtime::AsyncNetwork& anet,
                   const runtime::ReliableNetwork& rnet, bool record_transcript) {
  const runtime::AsyncStats& ps = anet.stats();
  async.physical.posted += ps.posted;
  async.physical.delivered += ps.delivered;
  async.physical.dropped += ps.dropped;
  async.physical.partition_dropped += ps.partition_dropped;
  async.physical.duplicated += ps.duplicated;
  async.physical.reordered += ps.reordered;
  async.physical.straggled += ps.straggled;
  async.physical.timers += ps.timers;
  const runtime::ReliableStats& rs = rnet.stats();
  async.protocol.data_sent += rs.data_sent;
  async.protocol.retransmits += rs.retransmits;
  async.protocol.timeouts += rs.timeouts;
  async.protocol.acks_sent += rs.acks_sent;
  async.protocol.acks_received += rs.acks_received;
  async.protocol.stale_acks += rs.stale_acks;
  async.protocol.dup_suppressed += rs.dup_suppressed;
  async.convergence_time += anet.now();
  ++async.invocations;
  if (record_transcript) {
    async.transcript.insert(async.transcript.end(), anet.transcript().begin(),
                            anet.transcript().end());
  }
}

}  // namespace

DistributedResult distributed_relaxed_greedy(const ubg::UbgInstance& inst, const Params& params,
                                             const RelaxedGreedyOptions& opts, std::uint64_t seed,
                                             const NetOptions& net_opts) {
  if (net_opts.mode == NetMode::kAsync) {
    net_opts.adversary.validate();
    net_opts.reliable.validate();
  }
  const int n = inst.g.n();
  const long long m_edges = inst.g.m();
  const int lstar = log_star(static_cast<double>(std::max(2, n)));
  DistributedStats net;
  // Every charge adds its rounds and messages straight into `net`.
  const auto charge = [&](long long rounds, long long messages) {
    net.rounds_measured += rounds;
    net.messages += messages;
  };

  // MIS transport: sync (the pool-parallel harvester, which reproduces a
  // lockstep network's round/message accounting analytically and
  // bit-identically — both consume mis::luby_priority) or the adversarial
  // async runtime behind the reliable-delivery layer. Each invocation gets a
  // fresh network over its derived graph J and its own adversary seed
  // (hashed from the base seed and the invocation index), so a whole run
  // replays deterministically while invocations stay decorrelated.
  std::uint64_t mis_seed = seed;
  int async_invocation = 0;
  const auto run_mis = [&](const graph::Graph& j, mis::LubyStats* luby) {
    if (net_opts.mode == NetMode::kSync) {
      return mis::luby_mis_parallel(j, ++mis_seed, luby, opts.worker_pool);
    }
    runtime::AdversaryConfig adv = net_opts.adversary;
    adv.seed = adv.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(++async_invocation);
    runtime::AsyncNetwork anet(j, adv);
    anet.set_record_transcript(net_opts.record_transcript);
    runtime::ReliableNetwork rnet(anet, net_opts.reliable);
    std::vector<int> out = mis::luby_mis_on(rnet, j, ++mis_seed, luby);
    add_async_run(net.async, anet, rnet, net_opts.record_transcript);
    return out;
  };

  // (i) cluster cover (§3.2.1): every node gathers its δW ball, a Luby MIS
  // on the proximity graph J picks the centers, the rest attach.
  mis::LubyStats cover_luby;
  const auto cover = [&](const graph::CsrView& csr, double radius, graph::DijkstraWorkspace& ws) {
    return cluster::mis_cover(
        csr, radius, ws, [&](const graph::Graph& j) { return run_mis(j, &cover_luby); },
        opts.worker_pool);
  };
  // (v) redundancy removal (§3.2.5): a Luby MIS on the conflict graph J.
  mis::LubyStats redundancy_luby;
  const auto redundancy_mis = [&](const graph::Graph& j) { return run_mis(j, &redundancy_luby); };

  // Round accounting of a finished phase. Every step other than the MIS
  // runs is a constant-hop gather whose rounds follow from the phase's
  // Euclidean scale W_{i-1}; the tally only sums, so charging the whole
  // phase at its end gives the same totals as charging step by step.
  const auto charge_phase = [&](const PhaseStats& st) {
    const double w_eucl = st.w_lo;
    PhaseRounds pr;
    pr.bin = st.bin;

    // cover: learn the δW ball of G'_{i-1}, each J-round costs k_ball
    // G-rounds, 1 round to attach to a center.
    const long long k_ball = hops_for(params.delta * w_eucl, params.alpha);
    pr.cover = k_ball + cover_luby.network_rounds * k_ball + 1;
    pr.mis_rounds_measured += cover_luby.network_rounds * k_ball;
    pr.mis_rounds_kmw_model += static_cast<long long>(lstar) * k_ball;
    charge(pr.cover, k_ball * 2 * m_edges + cover_luby.messages * k_ball + n);
    net.mis_invocations += 1;
    net.max_luby_iterations = std::max(net.max_luby_iterations, cover_luby.iterations);

    // select (§3.2.2): cluster heads gather 1 + 2δW/α hops.
    pr.select = k_ball + 1;
    charge(pr.select, (k_ball + 1) * 2 * m_edges);

    // clustergraph (§3.2.3): gather 2(2δ+1)W/α hops.
    pr.cluster_graph = hops_for((2.0 * params.delta + 1.0) * w_eucl, params.alpha);
    charge(pr.cluster_graph, pr.cluster_graph * 2 * m_edges);

    // query (§3.2.4): Theorem 9 constant-hop search.
    pr.query = hops_for(2.0 * params.delta + 1.0, params.alpha);
    charge(pr.query, pr.query * 2 * m_edges);

    // redundancy (§3.2.5): constant-hop exchange + Luby MIS on J (J-edges
    // span <= 2 t1 r W/α G-hops).
    if (opts.redundancy_removal && st.added >= 2) {
      const long long k_red =
          hops_for(params.t1 * params.r * std::min(w_eucl, 1.0) * params.r, params.alpha);
      pr.redundancy = k_red + redundancy_luby.network_rounds * k_red;
      pr.mis_rounds_measured += redundancy_luby.network_rounds * k_red;
      pr.mis_rounds_kmw_model += static_cast<long long>(lstar) * k_red;
      charge(pr.redundancy, k_red * 2 * m_edges + redundancy_luby.messages * k_red);
      net.mis_invocations += 1;
      net.max_luby_iterations = std::max(net.max_luby_iterations, redundancy_luby.iterations);
    }
    net.per_phase.push_back(pr);
    cover_luby = {};
    redundancy_luby = {};
  };

  // Phase 0 (§3.1): every node learns its closed neighborhood topology in 2
  // rounds, spans its G_0 component (a clique, Lemma 1) locally and
  // announces its incident spanner edges in 1 round.
  charge(3, 3 * 2 * m_edges);
  RelaxedGreedyResult base = detail::run_relaxed_phases(
      inst, params, opts, {.cover = cover, .mis = redundancy_mis, .after_phase = charge_phase});

  // KMW model: deterministic steps unchanged, MIS rounds replaced by the
  // log*(n) model.
  long long kmw = 3;  // phase 0
  for (const PhaseRounds& pr : net.per_phase) {
    kmw += pr.total_measured() - pr.mis_rounds_measured + pr.mis_rounds_kmw_model;
  }
  net.rounds_kmw_model = kmw;
  return {std::move(base), std::move(net)};
}

}  // namespace localspan::core
