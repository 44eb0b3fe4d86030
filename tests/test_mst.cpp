// MST tests (Section 3): the distributed Boruvka + FindMin sketches must
// produce a minimum spanning forest matching Kruskal's weight (and the exact
// edge set when weights are distinct).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "baselines/sequential.hpp"
#include "core/mst.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

using namespace ncc;

namespace {

MstResult mst_of(const Graph& g, uint64_t seed) {
  Network net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true,
                        .seed = seed});
  Shared shared(g.n(), seed);
  auto res = run_mst(shared, net, g, {}, seed);
  EXPECT_EQ(net.stats().messages_dropped, 0u);
  return res;
}

}  // namespace

TEST(Mst, PathGraphTakesAllEdges) {
  Graph g = path_graph(20);
  auto res = mst_of(g, 3);
  EXPECT_EQ(res.edges.size(), 19u);
  EXPECT_TRUE(is_spanning_forest(g, res.edges));
}

TEST(Mst, MatchesKruskalWeightOnRandomGraphs) {
  Rng rng(29);
  for (uint64_t seed : {1u, 2u}) {
    Graph base = gnm_graph(48, 140, rng);
    Graph g = with_random_weights(base, 1000, rng);
    auto res = mst_of(g, seed);
    auto kr = kruskal_msf(g);
    EXPECT_EQ(res.total_weight, kr.total_weight) << "seed " << seed;
    EXPECT_TRUE(is_spanning_forest(g, res.edges));
  }
}

TEST(Mst, ExactEdgeSetWithDistinctWeights) {
  Rng rng(31);
  Graph base = gnm_graph(40, 100, rng);
  Graph g = with_distinct_weights(base, rng);
  auto res = mst_of(g, 5);
  auto kr = kruskal_msf(g);
  ASSERT_EQ(res.edges.size(), kr.edges.size());
  auto a = res.edges;
  auto b = kr.edges;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Mst, SpanningForestOnDisconnectedGraph) {
  // Two cliques of 8, no inter-edges.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 8; ++u)
    for (NodeId v = u + 1; v < 8; ++v) edges.emplace_back(u, v, u + v + 1);
  for (NodeId u = 8; u < 16; ++u)
    for (NodeId v = u + 1; v < 16; ++v) edges.emplace_back(u, v, u + v + 1);
  Graph g(16, std::move(edges));
  auto res = mst_of(g, 13);
  EXPECT_EQ(res.edges.size(), 14u);  // 7 + 7
  EXPECT_TRUE(is_spanning_forest(g, res.edges));
  auto kr = kruskal_msf(g);
  EXPECT_EQ(res.total_weight, kr.total_weight);
}

TEST(Mst, EachEdgeKnownByExactlyOneEndpoint) {
  Rng rng(37);
  Graph g = with_distinct_weights(gnm_graph(32, 80, rng), rng);
  auto res = mst_of(g, 17);
  ASSERT_EQ(res.known_by.size(), res.edges.size());
  for (size_t i = 0; i < res.edges.size(); ++i) {
    NodeId k = res.known_by[i];
    EXPECT_TRUE(k == res.edges[i].u || k == res.edges[i].v);
  }
}

// Byte-identity pin for the FindMin sketch search: one weighted gnm graph
// (n = 96, m = 8n, weights < 2^16) over search_arity x trials. The grid covers
// every case where the existence probe packs more bits than a refinement step
// (min(trials, 60) vs min(trials, 64 / arity)). The expected values were
// recorded by running this test body on the commit before FindMin's sketch
// words were precomputed once per phase, so any change to FindMin's local
// computation must leave phases, rounds, messages, every delivered payload
// word (`traffic`, which carries the aggregated sketch words) and the output
// unchanged.
TEST(Mst, FindMinPinnedAcrossArityAndTrials) {
  struct Pin {
    uint32_t arity, trials, phases;
    uint64_t rounds, messages, traffic, total_weight, out_hash;
  };
  const Pin pins[] = {
      {2, 16, 19, 59098, 1369670, 0x4d9a559b2271ad25, 472435, 0x57ba5d24517fe5d1},
      {2, 40, 19, 59146, 1369670, 0x7ca5fcae24841481, 472435, 0x57ba5d24517fe5d1},
      {2, 60, 19, 59186, 1369670, 0xeddab30ce671e038, 472435, 0x57ba5d24517fe5d1},
      {4, 16, 19, 33016, 760650, 0xc0811659ffea8cb7, 472435, 0x57ba5d24517fe5d1},
      {4, 40, 19, 33064, 760650, 0x8152da35516c40e7, 472435, 0x57ba5d24517fe5d1},
      {4, 60, 19, 33104, 760650, 0x1bb0f153e5e7eb77, 472435, 0x57ba5d24517fe5d1},
      {8, 16, 19, 24324, 557554, 0xd4ac91a1aef3407a, 472435, 0x57ba5d24517fe5d1},
      {8, 40, 19, 24372, 557554, 0x34dac4ce8168b8cf, 472435, 0x57ba5d24517fe5d1},
      {8, 60, 19, 24412, 557554, 0xf3512039f65100a9, 472435, 0x57ba5d24517fe5d1},
  };
  Rng rng(41);
  Graph base = gnm_graph(96, 8 * 96, rng);
  Graph g = with_random_weights(base, (1u << 16) - 1, rng);
  for (const Pin& pin : pins) {
    Network net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true, .seed = 43});
    Shared shared(g.n(), 43);
    uint64_t traffic = 0;
    auto hook = net.add_delivery_hook([&](const Message& m, uint64_t round) {
      traffic = mix64(traffic ^ round ^ arc_id(m.src, m.dst) ^ (uint64_t{m.tag} << 20));
      for (uint8_t w = 0; w < m.nwords; ++w) traffic = mix64(traffic ^ m.words[w]);
    });
    MstParams params{.trials = pin.trials, .search_arity = pin.arity};
    auto res = run_mst(shared, net, g, params, 43);
    net.remove_delivery_hook(hook);
    uint64_t h = 0;
    for (size_t i = 0; i < res.edges.size(); ++i) {
      h = mix64(h ^ edge_id(res.edges[i].u, res.edges[i].v));
      h = mix64(h ^ res.edges[i].w);
      h = mix64(h ^ res.known_by[i]);
    }
    SCOPED_TRACE(testing::Message() << "arity " << pin.arity << " trials " << pin.trials);
    EXPECT_EQ(res.phases, pin.phases);
    EXPECT_EQ(res.rounds, pin.rounds);
    EXPECT_EQ(net.stats().messages_sent, pin.messages);
    EXPECT_EQ(traffic, pin.traffic);
    EXPECT_EQ(res.total_weight, pin.total_weight);
    EXPECT_EQ(h, pin.out_hash);
  }
}

// MST on a sharded engine: every loop and every delivery runs multi-shard
// (cutoffs 1), so the router's reused scratch, the barrier and end_round are
// exercised with real parallelism. Outputs and every NetStats counter must
// match the single-thread run exactly.
TEST(Mst, IdenticalAcrossThreadCounts) {
  Rng rng(41);
  const Graph g = with_random_weights(gnm_graph(96, 240, rng), 1u << 6, rng);
  // Arity 4 cuts FindMin's iterations (and the runtime of the sharded
  // passes) without changing what is compared.
  const MstParams params{.trials = 40, .search_arity = 4};
  auto run = [&](uint32_t threads) {
    Network net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true, .seed = 9});
    std::optional<Engine> eng;
    if (threads > 1)
      eng.emplace(net, EngineConfig{.threads = threads, .loop_cutoff = 1, .delivery_cutoff = 1});
    Shared shared(g.n(), 9);
    MstResult res = run_mst(shared, net, g, params, 9);
    const NetStats& st = net.stats();
    return std::make_tuple(res.edges, res.known_by, res.total_weight, res.leader, st.rounds,
                           st.charged_rounds, st.messages_sent, st.messages_dropped,
                           st.max_send_load, st.max_recv_load, st.send_violations);
  };
  const auto one = run(1);
  EXPECT_EQ(std::get<2>(one), kruskal_msf(g).total_weight);
  EXPECT_EQ(run(4), one);
  EXPECT_EQ(run(8), one);
}
