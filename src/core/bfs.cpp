#include "core/bfs.hpp"

#include "common/assert.hpp"
#include "engine/engine.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

BfsResult run_bfs(const Shared& shared, Network& net, const Graph& g,
                  const BroadcastTrees& bt, NodeId source, uint64_t rng_tag) {
  const NodeId n = g.n();
  NCC_ASSERT(source < n);
  const Overlay& topo = shared.topo();
  obs::Span span(net, "bfs");
  uint64_t start_rounds = net.stats().total_rounds();

  BfsResult res;
  res.dist.assign(n, UINT32_MAX);
  res.parent.resize(n);
  for (NodeId u = 0; u < n; ++u) res.parent[u] = u;
  res.dist[source] = 0;

  std::vector<NodeId> active{source};
  std::vector<Val> payload(n, Val{0, 0});
  const uint32_t S = net.engine().threads();
  std::vector<std::vector<NodeId>> parts(S);
  while (true) {
    ++res.phases;
    obs::Span phase_span(net, "bfs.phase");
    net.engine().for_each(active.size(),
                          [&](uint64_t i) { payload[active[i]] = Val{active[i], 0}; });
    auto exch = neighborhood_exchange(shared, net, bt, active, payload,
                                      agg::min_by_first,
                                      mix64(rng_tag ^ (res.phases * 977)));
    // Frontier scan: per-node state only; the next frontier is collected per
    // shard and concatenated in shard order (== node order).
    net.engine().ranges(n, [&](uint32_t s, uint64_t b, uint64_t e) {
      for (NodeId u = static_cast<NodeId>(b); u < static_cast<NodeId>(e); ++u) {
        if (res.dist[u] != UINT32_MAX || !exch.at_node[u].has_value()) continue;
        res.dist[u] = res.phases;
        res.parent[u] = static_cast<NodeId>((*exch.at_node[u])[0]);
        parts[s].push_back(u);
      }
    });
    std::vector<NodeId> next;
    for (uint32_t s = 0; s < S; ++s) {
      next.insert(next.end(), parts[s].begin(), parts[s].end());
      parts[s].clear();
    }
    // Synchronize and decide termination: did anyone get newly reached?
    std::vector<std::optional<Val>> inputs(n);
    net.engine().for_each(next.size(), [&](uint64_t i) { inputs[next[i]] = Val{1, 0}; });
    auto ab = aggregate_and_broadcast(topo, net, inputs, agg::sum);
    if (!ab.value.has_value()) break;
    active = std::move(next);
  }

  res.rounds = net.stats().total_rounds() - start_rounds;
  return res;
}

}  // namespace ncc
