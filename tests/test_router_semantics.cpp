// Fine-grained semantics tests for the combining random-rank router: the
// contention rule (smaller rank wins, ties by group id), tree structural
// validity, and the per-edge one-packet-per-round discipline. The
// RouterPinned suite pins every observable number of a fixed call sequence
// (rounds, messages, RouteStats, result and delivered-message digests) on a
// 2-edge and a 2d-1-edge overlay, on the network's inline threads=1 engine
// and on an attached multi-shard one, and with a stall window that forces the token heartbeat in both directions.
// ScratchIsolatedAcrossCalls replays the sequence back to back on one
// network, whose reused router scratch must not leak from call to call.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "engine/engine.hpp"
#include "overlay/butterfly.hpp"
#include "overlay/cache.hpp"
#include "overlay/router.hpp"
#include "net/network.hpp"

using namespace ncc;

namespace {

struct Fix {
  Network net;
  ButterflyOverlay topo;
  explicit Fix(NodeId n, uint64_t seed = 1)
      : net(NetConfig{.n = n, .capacity_factor = 8, .strict_send = true,
                      .seed = seed}),
        topo(n) {}
};

}  // namespace

TEST(RouterSemantics, LowerRankWinsContention) {
  // Two groups from the same column to the same destination: the lower-rank
  // group's packet must arrive strictly earlier when both contend for the
  // same path.
  Fix f(64);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  // Both groups inject many packets at the same column: same path, full
  // contention.
  for (int i = 0; i < 8; ++i) {
    at_col[5].push_back({1, Val{1, 0}});
    at_col[9].push_back({2, Val{1, 0}});
  }
  auto dest = [](uint64_t) { return NodeId{42}; };
  auto rank = [](uint64_t g) { return g; };  // group 1 beats group 2
  auto res = route_down(f.topo, f.net, std::move(at_col), dest, rank, agg::sum);
  // Both arrive combined and complete; contention resolved without loss.
  EXPECT_EQ(res.root_values.at(1)[0], 8u);
  EXPECT_EQ(res.root_values.at(2)[0], 8u);
}

TEST(RouterSemantics, RecordedTreesAreTrees) {
  // Every butterfly node of a recorded tree must have exactly one parent
  // toward the root (i.e., packets of a group leave each node along a unique
  // down-edge), so the reversed structure has no converging duplicates.
  Fix f(128);
  Rng rng(7);
  MulticastTrees trees;
  trees.leaf_members.assign(f.topo.columns(), {});
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  for (uint64_t g : {11ull, 22ull, 33ull}) {
    for (int i = 0; i < 30; ++i)
      at_col[rng.next_below(f.topo.columns())].push_back({g, Val{1, 0}});
  }
  auto dest = [&](uint64_t g) { return static_cast<NodeId>((g * 37) % f.topo.columns()); };
  auto rank = [](uint64_t g) { return g; };
  route_down(f.topo, f.net, std::move(at_col), dest, rank, agg::sum, &trees);

  // Walk each tree from the root; children masks must describe a DAG that is
  // a tree: visiting via BFS never reaches the same butterfly node twice.
  for (uint64_t g : {11ull, 22ull, 33ull}) {
    std::set<uint64_t> visited;
    std::vector<std::pair<uint32_t, NodeId>> frontier{{f.topo.dims(),
                                                       trees.root_col.at(g)}};
    while (!frontier.empty()) {
      auto [level, col] = frontier.back();
      frontier.pop_back();
      uint64_t idx = f.topo.index(level, col);
      EXPECT_TRUE(visited.insert(idx).second) << "node visited twice in tree " << g;
      if (level == 0) continue;
      const uint64_t* mask = trees.children[idx].find(g);
      if (!mask) continue;
      for (uint32_t e = 0; e < f.topo.down_degree(level - 1); ++e)
        if ((*mask >> e) & 1)
          frontier.push_back({level - 1, f.topo.up_column(level, col, e)});
    }
  }
}

TEST(RouterSemantics, PerEdgeDisciplineBoundsHostTraffic) {
  // With one packet per directed edge per round, a host (column) can receive
  // at most d cross-arrivals per round — the model-compatibility property of
  // the butterfly emulation.
  Fix f(256);
  Rng rng(9);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  for (int i = 0; i < 4096; ++i)
    at_col[rng.next_below(f.topo.columns())].push_back(
        {rng.next_below(512), Val{1, 0}});
  auto dest = [&](uint64_t g) { return static_cast<NodeId>(g % f.topo.columns()); };
  auto rank = [](uint64_t g) { return g * 2654435761u; };
  route_down(f.topo, f.net, std::move(at_col), dest, rank, agg::sum);
  EXPECT_LE(f.net.stats().max_recv_load, 2 * f.topo.dims());
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
}

TEST(RouterSemantics, CombineOrderIndependentForCommutativeOps) {
  // Same inputs, two different rank functions: the aggregates must agree
  // (routing order must not leak into commutative-associative results).
  auto run = [](uint64_t rank_salt) {
    Fix f(64, 11);
    Rng rng(13);
    std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
    for (int i = 0; i < 200; ++i)
      at_col[rng.next_below(64)].push_back(
          {rng.next_below(10), Val{static_cast<uint64_t>(i), 1}});
    auto dest = [](uint64_t g) { return static_cast<NodeId>((g * 13) % 64); };
    auto rank = [rank_salt](uint64_t g) { return mix64(g ^ rank_salt); };
    auto res = route_down(f.topo, f.net, std::move(at_col), dest, rank, agg::sum);
    std::map<uint64_t, uint64_t> sums;
    res.root_values.for_each([&](uint64_t g, const Val& v) { sums[g] = v[0]; });
    return sums;
  };
  EXPECT_EQ(run(1), run(999));
}

TEST(RouterSemantics, UpRoutingRespectsPerEdgeDiscipline) {
  Fix f(128);
  Rng rng(15);
  MulticastTrees trees;
  trees.leaf_members.assign(f.topo.columns(), {});
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  FlatMap<Val> payloads;
  for (uint64_t g = 100; g < 140; ++g) {
    for (int i = 0; i < 10; ++i)
      at_col[rng.next_below(f.topo.columns())].push_back({g, Val{0, 0}});
    payloads[g] = Val{g, 0};
  }
  auto dest = [&](uint64_t g) { return static_cast<NodeId>((g * 7) % f.topo.columns()); };
  auto rank = [](uint64_t g) { return g; };
  route_down(f.topo, f.net, std::move(at_col), dest, rank, agg::sum, &trees);
  f.net.reset_stats();
  route_up(f.topo, f.net, trees, payloads, rank);
  EXPECT_LE(f.net.stats().max_recv_load, 2 * f.topo.dims());
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
}

// --- pinned bytes ----------------------------------------------------------

namespace {

/// One router call's observable numbers: rounds, messages sent, every
/// RouteStats field, a digest of the call's result (root values and recorded
/// trees, or delivered leaf packets) and a digest of every message the
/// network delivered during the call.
using CallPin = std::array<uint64_t, 13>;

uint64_t fold(uint64_t h, uint64_t x) { return mix64(h ^ x) + 0x9e3779b97f4a7c15ULL; }

uint64_t digest(const FlatMap<Val>& m) {
  uint64_t h = 1;
  m.for_each([&](uint64_t g, const Val& v) { h = fold(fold(fold(h, g), v[0]), v[1]); });
  return h;
}

uint64_t digest(const MulticastTrees& t) {
  uint64_t h = 2;
  for (uint64_t idx = 0; idx < t.children.size(); ++idx)
    t.children[idx].for_each(
        [&](uint64_t g, uint64_t mask) { h = fold(fold(fold(h, idx), g), mask); });
  t.root_col.for_each([&](uint64_t g, NodeId c) { h = fold(fold(h, g), c); });
  for (const auto& cr : t.cache_roots)
    h = fold(fold(fold(fold(fold(h, cr.group), cr.idx), cr.val[0]), cr.val[1]), cr.mask);
  return fold(h, t.congestion);
}

uint64_t digest(const std::vector<std::vector<AggPacket>>& at_col) {
  uint64_t h = 3;
  for (size_t c = 0; c < at_col.size(); ++c)
    for (const AggPacket& p : at_col[c])
      h = fold(fold(fold(fold(h, c), p.group), p.val[0]), p.val[1]);
  return h;
}

constexpr NodeId kPinnedN = 64;

Network pinned_network() {
  return Network(NetConfig{.n = kPinnedN, .capacity_factor = 8, .strict_send = true, .seed = 5});
}

/// Runs the fixed call sequence on `net` — route_down plain, recording,
/// route_up over the trees (admitting into a cache), a second recording wave
/// that hits that cache, route_up over its cache roots, and an absorbing
/// descent — and returns one CallPin per call. `stall` drops every message
/// for a few rounds early in each call, so the drain stalls and the
/// heartbeat resends. Rounds are counted from the sequence's start, so a
/// network that already ran other traffic reproduces a fresh one's pins.
std::vector<CallPin> run_sequence(Network& net, OverlayKind kind, bool stall) {
  std::unique_ptr<Overlay> topo = make_overlay(kind, kPinnedN);
  const NodeId cols = topo->columns();
  const uint64_t base = net.rounds();

  uint64_t delivered = 0;
  Network::HookId hook = net.add_delivery_hook([&](const Message& m, uint64_t round) {
    delivered = fold(fold(fold(fold(delivered, round - base), m.src), m.dst), m.tag);
    for (uint8_t w = 0; w < m.nwords; ++w) delivered = fold(delivered, m.words[w]);
  });
  uint64_t stall_from = UINT64_MAX;
  if (stall) {
    FaultHooks faults;
    faults.drop = [&](const Message&, uint64_t round, uint64_t) {
      return round >= stall_from && round < stall_from + 5;
    };
    net.install_fault_hooks(std::move(faults));
  }

  auto dest = [&](uint64_t g) { return static_cast<NodeId>(mix64(g ^ 0xd5) % cols); };
  auto rank = [](uint64_t g) { return mix64(g ^ 0x5eed); };
  Rng rng(17);
  auto wave = [&](uint64_t groups, int per_group) {
    std::vector<std::vector<AggPacket>> at_col(cols);
    for (uint64_t i = 0; i < groups; ++i)
      for (int k = 0; k < per_group; ++k)
        at_col[rng.next_below(cols)].push_back({1000 + 7 * i, Val{i + 1, 1}});
    return at_col;
  };
  FlatMap<Val> payloads;
  for (uint64_t i = 0; i < 24; ++i) payloads[1000 + 7 * i] = Val{i * 3 + 1, i};

  std::vector<CallPin> pins;
  uint64_t sent0 = 0;
  auto begin_call = [&] {
    stall_from = net.rounds() + 2;
    delivered = 0;
    sent0 = net.stats().messages_sent;
  };
  auto end_call = [&](const RouteStats& st, uint64_t result) {
    pins.push_back({st.rounds, net.stats().messages_sent - sent0, st.congestion,
                    st.packets_moved, st.combines, st.lost_groups, st.misrouted,
                    st.token_resends, st.cache_hits, st.cache_misses,
                    st.cache_evictions, result, delivered});
  };

  begin_call();
  DownResult plain = route_down(*topo, net, wave(24, 12), dest, rank, agg::sum);
  end_call(plain.stats, digest(plain.root_values));

  MulticastTrees trees;
  trees.leaf_members.assign(cols, {});
  begin_call();
  DownResult rec = route_down(*topo, net, wave(24, 10), dest, rank, agg::min_by_first, &trees);
  end_call(rec.stats, fold(digest(rec.root_values), digest(trees)));

  CombiningCache serve_cache(topo->node_count(), 4);
  begin_call();
  UpResult up = route_up(*topo, net, trees, payloads, rank, &serve_cache);
  end_call(up.stats, digest(up.at_col));

  MulticastTrees warm;
  warm.leaf_members.assign(cols, {});
  begin_call();
  DownResult hit = route_down(*topo, net, wave(24, 10), dest, rank, agg::min_by_first, &warm,
                              &serve_cache);
  end_call(hit.stats, fold(digest(hit.root_values), digest(warm)));

  begin_call();
  UpResult served = route_up(*topo, net, warm, payloads, rank, &serve_cache);
  end_call(served.stats, digest(served.at_col));

  CombiningCache absorb_cache(topo->node_count(), 4);
  begin_call();
  DownResult absorbed = route_down(*topo, net, wave(24, 16), dest, rank, agg::sum, nullptr,
                                   &absorb_cache);
  end_call(absorbed.stats, digest(absorbed.root_values));

  net.remove_delivery_hook(hook);
  net.clear_fault_hooks();
  return pins;
}

/// The sequence on a fresh network, inline (t1) or on an attached
/// multi-shard engine.
std::vector<CallPin> run_pinned(OverlayKind kind, bool engine, bool stall) {
  Network net = pinned_network();
  std::optional<Engine> eng;
  if (engine) eng.emplace(net, EngineConfig{.threads = 4, .loop_cutoff = 1, .delivery_cutoff = 1});
  return run_sequence(net, kind, stall);
}

std::string format_pins(const std::vector<CallPin>& pins) {
  std::string out;
  for (const CallPin& p : pins) {
    out += "      {";
    for (size_t i = 0; i < p.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%lluull", i ? ", " : "",
                    static_cast<unsigned long long>(p[i]));
      out += buf;
    }
    out += "},\n";
  }
  return out;
}

/// Both execution configurations must reproduce the pinned table exactly.
void expect_pinned(OverlayKind kind, bool stall, const std::vector<CallPin>& want) {
  if (stall) {
    // The window must really stall the drain in both directions: the first
    // recording descent and the route_up over its trees both resend tokens.
    EXPECT_GT(want[1][7], 0u);
    EXPECT_GT(want[2][7], 0u);
  }
  for (bool engine : {false, true}) {
    std::vector<CallPin> got = run_pinned(kind, engine, stall);
    EXPECT_EQ(got, want) << overlay_name(kind) << (engine ? " engine t4" : " inline t1")
                         << (stall ? " stalled" : "") << "; actual:\n"
                         << format_pins(got);
  }
}

}  // namespace

namespace {

// The pinned rows: one CallPin per call of run_sequence on a fresh network.
const std::vector<CallPin> kButterflyPins = {
      {12ull, 997ull, 8ull, 1203ull, 264ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 7442771131522761753ull, 18167103674681104726ull},
      {12ull, 908ull, 7ull, 1082ull, 216ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 1551082012165507488ull, 15960419677968084774ull},
      {11ull, 823ull, 0ull, 906ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 56ull, 9009906258474012366ull, 8201358259433670434ull},
      {11ull, 622ull, 8ull, 486ull, 33ull, 0ull, 0ull, 0ull, 207ull, 519ull, 0ull, 9570714356383217200ull, 2687419571879166556ull},
      {7ull, 611ull, 0ull, 466ull, 0ull, 24ull, 0ull, 0ull, 0ull, 0ull, 267ull, 7256823003383413259ull, 2612483950399811682ull},
      {21ull, 1085ull, 9ull, 1409ull, 265ull, 0ull, 0ull, 0ull, 315ull, 844ull, 110ull, 6677294151902041637ull, 4757335550316235189ull},
};

const std::vector<CallPin> kButterflyStalledPins = {
      {16ull, 852ull, 8ull, 752ull, 47ull, 0ull, 0ull, 84ull, 0ull, 0ull, 0ull, 7896572762533247013ull, 13218472833797835969ull},
      {17ull, 805ull, 7ull, 677ull, 27ull, 0ull, 0ull, 96ull, 0ull, 0ull, 0ull, 12768685057223266151ull, 16970596998365424818ull},
      {12ull, 587ull, 0ull, 80ull, 0ull, 16ull, 0ull, 182ull, 0ull, 0ull, 0ull, 4718801798440037475ull, 10473862122416119258ull},
      {16ull, 808ull, 8ull, 632ull, 31ull, 0ull, 0ull, 97ull, 4ull, 663ull, 0ull, 13991032779773259534ull, 9762375008907879513ull},
      {13ull, 587ull, 0ull, 81ull, 0ull, 16ull, 0ull, 184ull, 0ull, 0ull, 0ull, 14874713051303588717ull, 15517557391910643513ull},
      {22ull, 931ull, 9ull, 973ull, 81ull, 0ull, 0ull, 81ull, 43ull, 586ull, 47ull, 12768359457223745132ull, 3286726279312114298ull},
};

const std::vector<CallPin> kAugmentedCubePins = {
      {7ull, 3303ull, 11ull, 607ull, 264ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 7442771131522761753ull, 15042887124111786376ull},
      {8ull, 3238ull, 11ull, 531ull, 216ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 7785177570630154651ull, 4604863165203628958ull},
      {8ull, 3222ull, 0ull, 478ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 38ull, 5469142860298347288ull, 10755412286826172452ull},
      {8ull, 3097ull, 12ull, 293ull, 38ull, 0ull, 0ull, 0ull, 202ull, 331ull, 0ull, 2063675137198728980ull, 380324616881649215ull},
      {5ull, 3094ull, 0ull, 290ull, 0ull, 24ull, 0ull, 0ull, 0ull, 0ull, 176ull, 2619424891716470970ull, 14565298379754940646ull},
      {13ull, 3459ull, 13ull, 763ull, 286ull, 0ull, 0ull, 0ull, 162ull, 330ull, 41ull, 10849534214051004067ull, 8616824989592472988ull},
};

const std::vector<CallPin> kAugmentedCubeStalledPins = {
      {11ull, 5247ull, 11ull, 540ull, 159ull, 0ull, 0ull, 1980ull, 0ull, 0ull, 0ull, 14693517510976807804ull, 13959779429542294730ull},
      {11ull, 5424ull, 11ull, 463ull, 136ull, 0ull, 0ull, 2222ull, 0ull, 0ull, 0ull, 10085353421487836323ull, 5474928515293978604ull},
      {10ull, 5811ull, 0ull, 251ull, 0ull, 0ull, 0ull, 2816ull, 0ull, 0ull, 0ull, 14845478659791586616ull, 2453875012776539870ull},
      {11ull, 5256ull, 13ull, 381ull, 50ull, 0ull, 0ull, 2068ull, 112ull, 431ull, 0ull, 1045148951480817959ull, 5302856124903941503ull},
      {9ull, 11472ull, 0ull, 217ull, 0ull, 24ull, 0ull, 8448ull, 0ull, 0ull, 5ull, 8088405667171149914ull, 12306206670479895829ull},
      {16ull, 4343ull, 13ull, 681ull, 220ull, 0ull, 0ull, 946ull, 53ull, 290ull, 26ull, 17524327352324951427ull, 6820019340950851503ull},
};

}  // namespace

TEST(RouterPinned, Butterfly) { expect_pinned(OverlayKind::kButterfly, false, kButterflyPins); }

TEST(RouterPinned, ButterflyStalled) { expect_pinned(OverlayKind::kButterfly, true, kButterflyStalledPins); }

TEST(RouterPinned, AugmentedCube) { expect_pinned(OverlayKind::kAugmentedCube, false, kAugmentedCubePins); }

TEST(RouterPinned, AugmentedCubeStalled) { expect_pinned(OverlayKind::kAugmentedCube, true, kAugmentedCubeStalledPins); }

// The router keeps its per-call state in scratch the network reuses across
// calls (overlay/scratch.hpp). Running the sequences back to back on one
// network — over overlays of different sizes and degrees, through stalled
// sequences, and with the same overlay twice in a row — must give every call
// exactly its pinned fresh-network row: nothing a call leaves in the scratch
// may leak into the next.
TEST(RouterPinned, ScratchIsolatedAcrossCalls) {
  struct Leg {
    OverlayKind kind;
    bool stall;
    const std::vector<CallPin>* want;
  };
  const Leg legs[] = {{OverlayKind::kButterfly, false, &kButterflyPins},
                      {OverlayKind::kAugmentedCube, true, &kAugmentedCubeStalledPins},
                      {OverlayKind::kButterfly, false, &kButterflyPins},
                      {OverlayKind::kButterfly, true, &kButterflyStalledPins},
                      {OverlayKind::kAugmentedCube, false, &kAugmentedCubePins},
                      {OverlayKind::kAugmentedCube, true, &kAugmentedCubeStalledPins},
                      {OverlayKind::kButterfly, false, &kButterflyPins}};
  for (bool engine : {false, true}) {
    Network net = pinned_network();
    std::optional<Engine> eng;
    if (engine) eng.emplace(net, EngineConfig{.threads = 4, .loop_cutoff = 1, .delivery_cutoff = 1});
    for (const Leg& leg : legs) {
      std::vector<CallPin> got = run_sequence(net, leg.kind, leg.stall);
      EXPECT_EQ(got, *leg.want) << overlay_name(leg.kind) << (leg.stall ? " stalled" : "")
                                << (engine ? " engine t4" : " inline t1") << "; actual:\n"
                                << format_pins(got);
    }
  }
}
