#include "mis_reference.hpp"

#include "network_reference.hpp"

namespace localspan::mis {

std::vector<int> luby_mis(const graph::Graph& g, std::uint64_t seed, LubyStats* stats,
                          runtime::RoundLedger* ledger, const std::string& section) {
  runtime::SyncNetwork net(g, ledger, section);
  return luby_mis_on(net, g, seed, stats);
}

std::vector<int> greedy_mis(const graph::Graph& g) {
  std::vector<char> blocked(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> out;
  for (int v = 0; v < g.n(); ++v) {
    if (blocked[static_cast<std::size_t>(v)]) continue;
    out.push_back(v);
    for (const graph::Neighbor& nb : g.neighbors(v)) blocked[static_cast<std::size_t>(nb.to)] = 1;
  }
  return out;
}

bool is_maximal_independent_set(const graph::Graph& g, const std::vector<int>& set) {
  std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
  for (int v : set) {
    if (v < 0 || v >= g.n()) return false;
    in[static_cast<std::size_t>(v)] = 1;
  }
  for (int v : set) {
    for (const graph::Neighbor& nb : g.neighbors(v)) {
      if (in[static_cast<std::size_t>(nb.to)]) return false;  // not independent
    }
  }
  for (int v = 0; v < g.n(); ++v) {
    if (in[static_cast<std::size_t>(v)]) continue;
    bool dominated = false;
    for (const graph::Neighbor& nb : g.neighbors(v)) {
      if (in[static_cast<std::size_t>(nb.to)]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;  // not maximal
  }
  return true;
}

}  // namespace localspan::mis
