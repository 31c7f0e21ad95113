/// Experiment E17 — the distributed construction under an adversarial
/// asynchronous network (ROADMAP item 4).
///
/// The synchronous simulator (E4) charges one round per lockstep barrier;
/// here the Luby MIS phases run over the discrete-event AsyncNetwork behind
/// the reliable-delivery protocol, and we measure what realism costs:
/// physical transmissions (DATA + retransmits + ACKs + duplicates) versus
/// the app-level message count, and convergence in virtual time versus the
/// synchronous round count — across the fault matrix of adversary
/// intensities. Every row also re-states the robustness claim: terminated =
/// the protocol reached quiescence in every round, identical = the emitted
/// spanner is bit-identical to the synchronous build.
///
/// Full mode also measures memory (ROADMAP 4a): `relaxed` and then the
/// synchronous `relaxed-dist` build the same n=16384 instance first, and the
/// process peak RSS after each lands in meta (`relaxed_peak_rss_mb`,
/// `peak_rss_mb`); tools/collect_bench.cpp gates the second at <= 3x the
/// first. The n=16384 run is also the last row of the E17b sync table.
///
/// LOCALSPAN_BENCH_QUICK=1 trims the size sweep and skips the memory run for
/// CI smoke runs.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/distributed.hpp"
#include "core/relaxed_greedy.hpp"
#include "runtime/async_network.hpp"
#include "runtime/parallel.hpp"

using namespace localspan;
using benchutil::fmt;
using benchutil::fmt_int;

namespace {

struct Preset {
  const char* name;
  runtime::AdversaryConfig cfg;
};

std::vector<Preset> presets() {
  std::vector<Preset> out;
  {
    runtime::AdversaryConfig c;
    out.push_back({"jitter-only", c});
  }
  {
    runtime::AdversaryConfig c;
    c.drop_prob = 0.05;
    out.push_back({"loss-0.05", c});
  }
  {
    runtime::AdversaryConfig c;
    c.drop_prob = 0.2;
    out.push_back({"loss-0.20", c});
  }
  {
    runtime::AdversaryConfig c;
    c.dup_prob = 0.2;
    c.reorder_prob = 0.3;
    out.push_back({"dup+reorder", c});
  }
  {
    runtime::AdversaryConfig c;
    c.straggler_fraction = 0.1;
    out.push_back({"straggler-0.1", c});
  }
  {
    runtime::AdversaryConfig c;
    c.drop_prob = 0.1;
    c.dup_prob = 0.1;
    c.reorder_prob = 0.2;
    c.straggler_fraction = 0.1;
    c.partitions.push_back({3.0, 20.0, 11});
    out.push_back({"combined", c});
  }
  return out;
}

/// The process's peak resident set so far (ru_maxrss is in KiB on Linux).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main() {
  const bool quick = std::getenv("LOCALSPAN_BENCH_QUICK") != nullptr;
  benchutil::JsonReport report("E17");
  std::printf("E17: relaxed-dist on the adversarial async network vs the sync simulator.\n");
  std::printf("eps=0.5, alpha=0.75, d=2, uniform, seed 11 (same workload shape as E4)\n");
  const core::Params params = core::Params::practical_params(0.5, 0.75);
  report.meta("eps", 0.5);
  report.meta("alpha", 0.75);
  report.meta("seed", 11LL);
  report.meta("quick", std::string(quick ? "yes" : "no"));
  report.meta("nproc", static_cast<long long>(runtime::hardware_threads()));

  const std::vector<int> sizes = quick ? std::vector<int>{256} : std::vector<int>{512, 2048};

  const auto sync_row = [](int n, const core::DistributedResult& r) {
    return std::vector<std::string>{fmt_int(n), fmt_int(r.net.rounds_measured),
                                    fmt_int(r.net.rounds_kmw_model), fmt_int(r.net.messages)};
  };

  // Memory run first, while the process peak is still its own: ru_maxrss
  // only ever grows, so relaxed's peak is read before relaxed-dist runs.
  constexpr int kMemoryN = 16384;
  std::vector<std::string> memory_row;
  if (!quick) {
    const auto inst = benchutil::standard_instance(kMemoryN, 0.75, 11);
    static_cast<void>(core::relaxed_greedy(inst, params));
    const double relaxed_mb = peak_rss_mb();
    const auto r = core::distributed_relaxed_greedy(inst, params, {}, 11);
    const double dist_mb = peak_rss_mb();
    report.meta("memory_n", static_cast<long long>(kMemoryN));
    report.meta("relaxed_peak_rss_mb", relaxed_mb);
    report.meta("peak_rss_mb", dist_mb);
    std::printf("memory at n=%d: relaxed peak %.1f MB, relaxed-dist peak %.1f MB\n", kMemoryN,
                relaxed_mb, dist_mb);
    memory_row = sync_row(kMemoryN, r);
  }

  benchutil::Table table({"n", "adversary", "rounds", "app msgs", "transmissions", "overhead",
                          "retransmits", "drops", "dups", "acks", "convergence vtime",
                          "terminated", "identical"});
  for (int n : sizes) {
    const auto inst = benchutil::standard_instance(n, 0.75, 11);
    const auto sync_r = core::distributed_relaxed_greedy(inst, params, {}, 11);

    for (const Preset& p : presets()) {
      core::NetOptions net;
      net.mode = core::NetMode::kAsync;
      net.adversary = p.cfg;
      net.adversary.seed = 11ULL * 1000003ULL + static_cast<std::uint64_t>(n);

      bool terminated = true;
      bool identical = false;
      core::DistributedResult async_r{{graph::Graph(0), params, {}, 0, 0, 0}, {}};
      try {
        async_r = core::distributed_relaxed_greedy(inst, params, {}, 11, net);
        identical = async_r.base.spanner == sync_r.base.spanner &&
                    async_r.net.rounds_measured == sync_r.net.rounds_measured &&
                    async_r.net.messages == sync_r.net.messages;
      } catch (const std::exception& e) {
        terminated = false;
        std::fprintf(stderr, "E17: %s n=%d FAILED to terminate: %s\n", p.name, n, e.what());
      }

      const core::AsyncNetSummary& a = async_r.net.async;
      // Physical transmissions include ACK frames; app msgs is the protocol
      // DATA count, which equals the synchronous message total of the same
      // MIS invocations.
      const long long app = a.protocol.data_sent;
      const double overhead =
          app > 0 ? static_cast<double>(a.physical.posted) / static_cast<double>(app) : 0.0;
      table.add_row({fmt_int(n), p.name, fmt_int(async_r.net.rounds_measured), fmt_int(app),
                     fmt_int(a.physical.posted), fmt(overhead, 2),
                     fmt_int(a.protocol.retransmits), fmt_int(a.physical.dropped),
                     fmt_int(a.physical.duplicated), fmt_int(a.protocol.acks_sent),
                     fmt(a.convergence_time, 1), terminated ? "yes" : "no",
                     identical ? "yes" : "no"});
    }
  }
  report.print("E17: message complexity + convergence under the fault matrix "
               "(terminated/identical must be yes on every row)",
               table);

  // Reference: the synchronous round/message counts this is measured against
  // (the E4 view of the same instances).
  benchutil::Table sync_table({"n", "rounds (Luby)", "rounds (KMW model)", "messages"});
  for (int n : sizes) {
    const auto inst = benchutil::standard_instance(n, 0.75, 11);
    sync_table.add_row(sync_row(n, core::distributed_relaxed_greedy(inst, params, {}, 11)));
  }
  if (!memory_row.empty()) sync_table.add_row(memory_row);
  report.print("E17b: synchronous reference (E4 shape, same instances)", sync_table);
  return report.write() ? 0 : 1;
}
