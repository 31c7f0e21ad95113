#include "gather_reference.hpp"

#include <stdexcept>

namespace localspan::runtime {

std::vector<graph::Graph> khop_views(const graph::Graph& g, int k, RoundLedger* ledger,
                                     const std::string& section) {
  if (k < 0) throw std::invalid_argument("khop_views: negative hop count");
  const int n = g.n();
  std::vector<graph::Graph> view(static_cast<std::size_t>(n), graph::Graph(n));
  // fresh[v]: records v learned last round and must forward this round.
  std::vector<std::vector<graph::Edge>> fresh(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (const graph::Neighbor& nb : g.neighbors(v)) {
      if (view[static_cast<std::size_t>(v)].add_edge(v, nb.to, nb.w)) {
        fresh[static_cast<std::size_t>(v)].push_back(
            {std::min(v, nb.to), std::max(v, nb.to), nb.w});
      }
    }
  }
  for (int round = 0; round < k; ++round) {
    std::vector<std::vector<graph::Edge>> next(static_cast<std::size_t>(n));
    long long records = 0;
    for (int v = 0; v < n; ++v) {
      if (fresh[static_cast<std::size_t>(v)].empty()) continue;
      for (const graph::Neighbor& nb : g.neighbors(v)) {
        records += static_cast<long long>(fresh[static_cast<std::size_t>(v)].size());
        for (const graph::Edge& rec : fresh[static_cast<std::size_t>(v)]) {
          if (view[static_cast<std::size_t>(nb.to)].add_edge(rec.u, rec.v, rec.w)) {
            next[static_cast<std::size_t>(nb.to)].push_back(rec);
          }
        }
      }
    }
    fresh = std::move(next);
    if (ledger != nullptr) ledger->charge(section, 1, records);
  }
  return view;
}

}  // namespace localspan::runtime
