#include "overlay/router.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "overlay/cache.hpp"
#include "engine/engine.hpp"
#include "obs/flow.hpp"
#include "obs/tracer.hpp"

namespace ncc {

namespace agg {
Val sum(const Val& a, const Val& b) { return {a[0] + b[0], a[1] + b[1]}; }
Val min_by_first(const Val& a, const Val& b) {
  if (a[0] != b[0]) return a[0] < b[0] ? a : b;
  return a[1] <= b[1] ? a : b;  // deterministic tie-break on second word
}
Val max_by_first(const Val& a, const Val& b) {
  if (a[0] != b[0]) return a[0] > b[0] ? a : b;
  return a[1] >= b[1] ? a : b;
}
Val xor_count(const Val& a, const Val& b) { return {a[0] ^ b[0], a[1] + b[1]}; }
Val xor_xor(const Val& a, const Val& b) { return {a[0] ^ b[0], a[1] ^ b[1]}; }
}  // namespace agg

namespace {

// Down-edge degrees can reach 2d <= 62 (augmented cube), so per-node edge
// masks are uint64_t and this is the hard ceiling a new overlay must respect.
constexpr uint32_t kMaxDegree = 62;

/// Tokens one drain launches: one per (state, down-edge) above the final level.
uint64_t token_count(const Overlay& topo) {
  uint64_t count = 0;
  for (uint32_t l = 0; l + 1 < topo.levels(); ++l) {
    NCC_ASSERT(topo.down_degree(l) <= kMaxDegree);
    count += static_cast<uint64_t>(topo.down_degree(l)) * topo.columns();
  }
  return count;
}

/// Priority of a group under the contention rule: smallest rank first, ties
/// broken by smallest group id (Appendix B.2).
struct Prio {
  uint64_t rank;
  uint64_t group;
  bool operator<(const Prio& o) const {
    return rank != o.rank ? rank < o.rank : group < o.group;
  }
};

/// Tracks the max number of distinct groups observed at any overlay node.
class CongestionTracker {
 public:
  explicit CongestionTracker(uint64_t node_count) : seen_(node_count) {}

  void visit(uint64_t node_index, uint64_t group) {
    auto& s = seen_[node_index];
    if (s.emplace(group, 1).second)
      max_ = std::max<uint32_t>(max_, static_cast<uint32_t>(s.size()));
  }
  uint32_t max() const { return max_; }

 private:
  // Insert + size only — never iterated, so the membership set is a FlatMap
  // used as a set (value ignored).
  std::vector<FlatMap<uint8_t>> seen_;
  uint32_t max_ = 0;
};

/// Deduplicated worklist of routing-state indices; only nodes with work are
/// visited each round, which keeps a round's cost proportional to the traffic
/// rather than to the overlay size.
class ActiveSet {
 public:
  explicit ActiveSet(uint64_t node_count) : flag_(node_count, false) {}

  void add(uint64_t idx) {
    if (!flag_[idx]) {
      flag_[idx] = true;
      items_.push_back(idx);
    }
  }
  /// Sorted snapshot for deterministic iteration; clears membership flags so
  /// nodes re-add themselves if they still have work.
  std::vector<uint64_t> take() {
    std::sort(items_.begin(), items_.end());
    for (uint64_t i : items_) flag_[i] = false;
    return std::exchange(items_, {});
  }

 private:
  std::vector<bool> flag_;
  std::vector<uint64_t> items_;
};

// The two directions of the token-drain core. For a routing state at
// `level`, a direction names the level its packets and tokens move to
// (`next`), the overlay level whose down-edges carry them (`link`: an up-edge
// is the reversed down-edge of the level below, up_column(l, c, e) ==
// down_column(l - 1, c, e)) and the level whose down-edges its tokens arrive
// over (`in_link`).
template <bool kDown>
struct Direction {
  static constexpr uint32_t kPacket = kDown ? 0x0100 : 0x0300;
  static constexpr uint32_t kToken = kDown ? 0x0200 : 0x0400;
  static uint32_t start(uint32_t final_level) { return kDown ? 0 : final_level; }
  static uint32_t terminal(uint32_t final_level) { return kDown ? final_level : 0; }
  static uint32_t next(uint32_t level) { return kDown ? level + 1 : level - 1; }
  static uint32_t link(uint32_t level) { return kDown ? level : level - 1; }
  static uint32_t in_link(uint32_t level) { return kDown ? level - 1 : level; }
};
using Down = Direction<true>;
using Up = Direction<false>;

/// One group queued at a routing state: its (combined) value and the edges it
/// still has to cross. A down packet has one bit, its greedy route_edge,
/// fixed at deposit; an up packet carries its recorded up-edge mask.
struct Entry {
  Val val;
  uint64_t edges;
};

/// Hash evaluations every node can compute from the shared randomness,
/// cached per group: its rank and (going down) its destination column.
struct GroupMeta {
  NodeId dest;
  uint64_t rank;
};

/// The router run in one direction: per round, every active state sends the
/// min-(rank, group) entry on each of its edges and launches a token on every
/// edge it will never use again; the run ends when the tokens drain. The
/// direction-specific policies — what a packet arrival does (`arrive`) and
/// what a state's token completion does (`token_done`) — are passed to run()
/// and called only on the caller thread's sequential merge.
template <class Dir>
struct TokenDrain {
  const Overlay& topo;
  Network& net;
  RouteStats& stats;
  const std::function<uint64_t(uint64_t)>& rank;
  const std::function<NodeId(uint64_t)>* dest_col;  // null going up
  MulticastTrees* record;                           // null going up
  CombiningCache* cache;
  // Per-call cache stats delta: all cache traffic runs at the sequential
  // merge points, so the delta is thread-count invariant.
  const CombiningCache::Stats cache_before = cache ? cache->stats() : CombiningCache::Stats{};
  const uint32_t final_level = topo.levels() - 1;
  const NodeId cols = topo.columns();
  FlatMap<GroupMeta> meta{};
  std::vector<FlatMap<Entry>> queue = std::vector<FlatMap<Entry>>(topo.node_count());
  uint64_t remaining = 0;  // edges still to cross, summed over all entries
  ActiveSet active{topo.node_count()};
  // Tokens flow start -> terminal behind the packets, one per (state, edge).
  // Each token message carries its edge index and tokens_recv tracks in-edges
  // as a bitmask (in-degree == out-degree: generators are involutions), so
  // duplicate deliveries — the stall heartbeat's resends — are idempotent.
  std::vector<uint64_t> tokens_recv = std::vector<uint64_t>(topo.node_count(), 0);
  std::vector<uint64_t> token_sent = std::vector<uint64_t>(topo.node_count(), 0);
  uint64_t tokens_pending = token_count(topo);
  // Packet and token moves applied at the merge; counted toward the round's
  // progress so the stall heartbeat only fires when the network truly
  // delivered nothing new.
  uint64_t progress = 0;

  struct Move {
    uint32_t level;  // destination level
    NodeId col;
    uint64_t group;
    Val val;
    bool is_token;
    uint32_t edge;  // token in-edge index
  };
  struct RecordOp {
    uint64_t cidx;
    uint64_t group;
    uint64_t bit;
  };
  /// One shard's staged step effects, merged in shard order.
  struct StepOut {
    MsgArena sends;
    std::vector<Move> local;
    std::vector<RecordOp> rec;
    std::vector<uint64_t> readd;
    uint64_t moved = 0, tokens = 0;
  };

  /// Metadata of `g`, computed on first sight. Only the sequential merge
  /// inserts, so the parallel step loop reads a frozen map.
  const GroupMeta& group(uint64_t g) {
    auto [slot, fresh] = meta.emplace(g, {});
    if (fresh) *slot = {dest_col ? (*dest_col)(g) : 0, rank(g)};
    NCC_ASSERT(slot->dest < cols);
    return *slot;
  }

  /// Queue group `g` at state `idx` to cross `edges` and activate the state.
  /// If the group is already queued there, its entry is returned untouched
  /// (second == false) for the caller to combine into or reject.
  std::pair<Entry*, bool> push(uint64_t idx, uint64_t g, const Val& v, uint64_t edges) {
    auto [slot, fresh] = queue[idx].emplace(g, Entry{v, edges});
    if (fresh) remaining += std::popcount(edges);
    active.add(idx);
    return {slot, fresh};
  }

  uint64_t full_mask(uint32_t link) const { return (uint64_t{1} << topo.down_degree(link)) - 1; }
  /// True once every in-edge token arrived (start-level states: at once).
  bool token_ready(uint64_t idx) const {
    uint32_t level = static_cast<uint32_t>(idx / cols);
    return level == Dir::start(final_level) ||
           tokens_recv[idx] == full_mask(Dir::in_link(level));
  }

  // One shard's slice of the step: each item only mutates its own queue and
  // token state, and every cross-node effect (sends, straight-edge moves,
  // tree records, counters, re-activation) is staged in `out`.
  void step(StepOut& out, const std::vector<uint64_t>& items, uint64_t ib, uint64_t ie) {
    // Per-edge contention winners, live where `wanted` has the edge's bit —
    // so no per-item reset of the 62-slot array on the router's hottest path.
    std::array<Prio, kMaxDegree> best;
    for (uint64_t ii = ib; ii < ie; ++ii) {
      const uint64_t idx = items[ii];
      const uint32_t level = static_cast<uint32_t>(idx / cols);
      const NodeId col = static_cast<NodeId>(idx % cols);
      NCC_ASSERT(level != Dir::terminal(final_level));  // terminal states never enqueue work
      const uint32_t link = Dir::link(level), next = Dir::next(level);
      FlatMap<Entry>& q = queue[idx];
      // The winner is the min by (rank, group) — a total order — so it does
      // not depend on the queue's iteration order.
      uint64_t wanted = 0;
      q.for_each([&](uint64_t g, const Entry& en) {
        const Prio p{meta.find(g)->rank, g};
        for (uint64_t mask = en.edges; mask; mask &= mask - 1) {
          const uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
          if (!(wanted >> e & 1) || p < best[e]) best[e] = p;
          wanted |= uint64_t{1} << e;
        }
      });
      // Every wanted edge carries its winner this round.
      for (uint64_t mask = wanted; mask; mask &= mask - 1) {
        const uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
        const uint64_t bit = uint64_t{1} << e, g = best[e].group;
        Entry* en = q.find(g);
        const Val v = en->val;
        en->edges &= ~bit;
        if (en->edges == 0) q.erase(g);
        ++out.moved;
        const NodeId ncol = topo.down_column(link, col, e);
        // Record the reverse (up) edge at the child for the multicast tree.
        // The child may belong to another shard, so stage the op.
        if (record) out.rec.push_back({topo.index(next, ncol), g, bit});
        if (e == 0) {
          out.local.push_back({next, ncol, g, v, false, 0});
        } else {
          out.sends.push(Message(topo.host(col), topo.host(ncol), Dir::kPacket | next,
                                 {g, v[0], v[1]}));
        }
      }
      // A packet remaining at the node means another packet of its group may
      // still arrive and combine; the token waits for the edge to clear.
      const bool ready = token_ready(idx);
      const uint32_t deg = topo.down_degree(link);
      for (uint32_t e = 0; ready && e < deg; ++e) {
        const uint64_t bit = uint64_t{1} << e;
        if ((wanted | token_sent[idx]) & bit) continue;
        token_sent[idx] |= bit;
        ++out.tokens;
        const NodeId ncol = topo.down_column(link, col, e);
        if (e == 0) {
          out.local.push_back({next, ncol, 0, {}, true, 0});
        } else {
          out.sends.push(Message(topo.host(col), topo.host(ncol), Dir::kToken | next, {e}));
        }
      }
      if (!q.empty() || (ready && token_sent[idx] != full_mask(link))) out.readd.push_back(idx);
    }
  }

  // The stall heartbeat: when a faulted network ate every in-flight message
  // of a round (zero progress), re-send all tokens already launched. Token
  // arrival is a bitmask OR, so duplicates are free; a reliable network moves
  // a packet or token every round and never gets here.
  void resend_tokens() {
    for (uint64_t idx = 0; idx < token_sent.size(); ++idx) {
      const uint32_t level = static_cast<uint32_t>(idx / cols);
      const NodeId col = static_cast<NodeId>(idx % cols);
      // Bit 0 is the straight edge: its token is local and never lost.
      for (uint64_t mask = token_sent[idx] & ~uint64_t{1}; mask; mask &= mask - 1) {
        const uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
        const NodeId ncol = topo.down_column(Dir::link(level), col, e);
        net.send(topo.host(col), topo.host(ncol), Dir::kToken | Dir::next(level), {e});
        ++stats.token_resends;
      }
    }
  }

  template <class Arrive, class TokenDone>
  void run(Arrive&& arrive, TokenDone&& token_done) {
    const uint32_t terminal = Dir::terminal(final_level);
    for (NodeId c = 0; c < cols; ++c) active.add(topo.index(Dir::start(final_level), c));
    std::vector<StepOut> outs(net.engine().threads());
    std::vector<std::vector<Move>> arrivals(outs.size());
    std::vector<Move> local;
    std::vector<uint64_t> items;

    auto apply = [&](const Move& mv) {
      if (!mv.is_token) {
        ++progress;
        arrive(mv.level, mv.col, mv.group, mv.val);
        return;
      }
      if (mv.level == terminal) return;  // terminal tokens end here
      const uint64_t idx = topo.index(mv.level, mv.col);
      const uint64_t bit = uint64_t{1} << mv.edge;
      if (!(tokens_recv[idx] & bit)) {
        tokens_recv[idx] |= bit;
        ++progress;
        if (token_ready(idx)) token_done(idx);
      }
      if (token_ready(idx) && token_sent[idx] != full_mask(Dir::link(mv.level)))
        active.add(idx);
    };

    bool first_round = true;
    while (remaining > 0 || tokens_pending > 0) {
      if (!first_round && progress == 0) resend_tokens();
      first_round = false;
      progress = 0;

      // The step runs shard-parallel over the active states and stages its
      // sends in pooled network arenas (acquired here, on the caller thread);
      // the merge hands them over zero-copy in shard order — the sequential
      // send order, as in Engine::send_loop — and applies the other staged
      // effects in the same order.
      items = active.take();
      for (StepOut& out : outs) out.sends = net.acquire_arena();
      net.engine().ranges(items.size(), [&](uint32_t s, uint64_t ib, uint64_t ie) {
        step(outs[s], items, ib, ie);
      });
      local.clear();
      for (StepOut& out : outs) {
        net.stage_run(std::move(out.sends));
        local.insert(local.end(), out.local.begin(), out.local.end());
        for (const RecordOp& op : out.rec) record->children[op.cidx][op.group] |= op.bit;
        for (uint64_t idx : out.readd) active.add(idx);
        stats.packets_moved += out.moved;
        progress += out.moved + out.tokens;
        remaining -= out.moved;
        tokens_pending -= out.tokens;
        out.local.clear();
        out.rec.clear();
        out.readd.clear();
        out.moved = out.tokens = 0;
      }

      net.end_round();
      ++stats.rounds;

      for (const Move& mv : local) apply(mv);
      // Arrival scan, sharded over host columns: each shard decodes its
      // columns' inboxes into staged moves; the merge applies them in shard
      // order, which concatenates back to the sequential column-ascending
      // scan order — so arrivals (which touch shared routing state) stay on
      // the caller thread and bit-identical for any shard count.
      net.engine().ranges(cols, [&](uint32_t s, uint64_t ub, uint64_t ue) {
        std::vector<Move>& arr = arrivals[s];
        for (uint64_t u = ub; u < ue; ++u) {
          for (const Message& m : net.inbox(static_cast<NodeId>(u))) {
            // Tags carry the destination level in the low byte.
            const uint32_t kind = m.tag & 0xff00u, level = m.tag & 0xffu;
            if (kind == Dir::kPacket) {
              arr.push_back({level, static_cast<NodeId>(u), m.word(0),
                             Val{m.word(1), m.word(2)}, false, 0});
            } else if (kind == Dir::kToken) {
              // The in-edge is derived from the transport framing (src and
              // dst are network truth), never from the payload: a byzantine
              // mutation of the payload cannot poison the in-edge bitmask.
              const uint32_t e = topo.edge_from_delta(Dir::in_link(level),
                                                      static_cast<NodeId>(u) ^ m.src);
              arr.push_back({level, static_cast<NodeId>(u), 0, {}, true, e});
            }
          }
        }
      });
      for (std::vector<Move>& arr : arrivals) {
        for (const Move& mv : arr) apply(mv);
        arr.clear();
      }
    }

    if (cache) {
      const CombiningCache::Stats& cs = cache->stats();
      stats.cache_hits = cs.hits - cache_before.hits;
      stats.cache_misses = cs.misses - cache_before.misses;
      stats.cache_evictions = cs.evictions - cache_before.evictions;
    }
  }
};

}  // namespace

uint32_t MulticastTrees::max_leaf_load() const {
  uint32_t best = 0;
  for (const auto& v : leaf_members)
    best = std::max<uint32_t>(best, static_cast<uint32_t>(v.size()));
  return best;
}

DownResult route_down(const Overlay& topo, Network& net,
                      std::vector<std::vector<AggPacket>> at_col,
                      const std::function<NodeId(uint64_t)>& dest_col,
                      const std::function<uint64_t(uint64_t)>& rank,
                      const CombineFn& combine, MulticastTrees* record,
                      CombiningCache* cache) {
  obs::Span span(net, "route.down");
  // Cached once: deposits run only on the caller thread, in deterministic
  // merge order, so hops recorded here are thread-count invariant.
  obs::FlowSampler* flows = obs::FlowSampler::of(net);
  const uint32_t F = topo.levels() - 1;  // final routing level
  const NodeId cols = topo.columns();
  NCC_ASSERT(at_col.size() == cols);

  DownResult result;
  TokenDrain<Down> core{topo, net, result.stats, rank, &dest_col, record, cache};
  CongestionTracker congestion(topo.overlay_node_count());
  // Dedup index into record->cache_roots: later hits of a group at the same
  // state OR their subtree masks into the root recorded by the first hit.
  std::map<std::pair<uint64_t, uint64_t>, size_t> croot_at;
  std::vector<CombiningCache::Flushed> flush_buf;

  auto edge_of = [&](uint32_t level, NodeId col, NodeId dest) {
    uint32_t e = topo.route_edge(level, col, dest);
    NCC_ASSERT(e < topo.down_degree(level));
    return e;
  };
  auto enqueue = [&](uint64_t idx, uint32_t edge, uint64_t g, const Val& v) {
    auto [slot, fresh] = core.push(idx, g, v, uint64_t{1} << edge);
    if (!fresh) {
      slot->val = combine(slot->val, v);
      ++result.stats.combines;
    }
  };

  // En-route cache bookkeeping (overlay/cache.hpp): all cache traffic runs
  // here, at the sequential deposit/token merge points, so hits and
  // evictions are bit-identical across engine thread counts.
  auto deposit = [&](uint32_t level, NodeId col, uint64_t group, const Val& v) {
    const uint64_t idx = topo.index(level, col);
    congestion.visit(topo.overlay_node(level, col), group);
    const NodeId dest = core.group(group).dest;
    const uint32_t edge = level == F ? 0 : edge_of(level, col, dest);
    // Serving-side cache hit (tree setup only): the state holds this group's
    // payload, so the request ends here. Snapshot-and-clear the subtree
    // recorded below this state and register it as a cache root; the next
    // Spreading Phase injects the cached payload there instead of descending
    // from the group root. Clearing keeps the recorded tree and the cache
    // root disjoint — the up phase serves every recorded edge exactly once.
    const Val* pv = cache && record && level < F ? cache->lookup_payload(idx, group) : nullptr;
    if (flows)
      flows->record_hop(group, /*up=*/false, level, edge, topo.host(col), net.rounds(),
                        /*cache_hit=*/pv != nullptr);
    if (pv) {
      uint64_t mask = 0;
      if (uint64_t* recorded = record->children[idx].find(group)) {
        mask = *recorded;
        *recorded = 0;
      }
      auto [dit, fresh_root] =
          croot_at.emplace(std::make_pair(idx, group), record->cache_roots.size());
      if (fresh_root) {
        record->cache_roots.push_back({group, idx, *pv, mask});
      } else {
        record->cache_roots[dit->second].mask |= mask;
      }
      return;
    }
    if (level == F) {
      // A reliable network never misroutes (the destination-driven descent
      // ends at the group's root column), so there a mismatch is still a hard
      // routing-invariant violation; under byzantine corruption a rewritten
      // group id can land a packet at a foreign root on its last hop — then
      // it is network behaviour: count it and drop, don't abort.
      if (dest != col) {
        NCC_ASSERT_MSG(net.corruption_possible(), "packet misrouted on a reliable network");
        ++result.stats.misrouted;
        return;
      }
      auto [slot, fresh] = result.root_values.emplace(group, v);
      if (!fresh) {
        *slot = combine(*slot, v);
        ++result.stats.combines;
      }
      result.root_col[group] = col;
      if (record) record->root_col[group] = col;
      return;
    }
    // Absorber-side caching (pure aggregation descent): a repeat packet of a
    // group whose earlier packet already departed parks in the armed
    // absorber instead of climbing separately; its mass re-enters the queue
    // at this state's token-completion transition. A packet whose group is
    // still queued here just combines.
    if (cache && !record && level >= 1 && !core.queue[idx].find(group)) {
      if (cache->absorb(idx, group, v, combine)) return;
      enqueue(idx, edge, group, v);
      // Arm only while more packets can still arrive (tokens incomplete): an
      // absorber armed after the flush transition would never drain.
      CombiningCache::Flushed ev;
      if (!core.token_ready(idx) && cache->arm_absorber(idx, group, &ev))
        enqueue(idx, edge_of(level, col, core.group(ev.group).dest), ev.group, ev.val);
      return;
    }
    enqueue(idx, edge, group, v);
  };
  // Token completion is the absorber drain point: every value parked at the
  // state re-enters its queue here, exactly once, so aggregates stay exact.
  auto flush = [&](uint64_t idx) {
    if (!cache || record) return;
    const uint32_t level = static_cast<uint32_t>(idx / cols);
    const NodeId col = static_cast<NodeId>(idx % cols);
    flush_buf.clear();
    cache->flush_absorbers(idx, &flush_buf);
    for (const CombiningCache::Flushed& f : flush_buf)
      enqueue(idx, edge_of(level, col, core.group(f.group).dest), f.group, f.val);
  };

  // Initialize the tree record before the first deposits: the serving-hit
  // branch reads record->children for level-0 states too.
  if (record) {
    record->levels = topo.levels();
    record->children.assign(topo.node_count(), {});
  }
  for (NodeId c = 0; c < cols; ++c)
    for (const AggPacket& p : at_col[c]) deposit(0, c, p.group, p.val);
  at_col.clear();

  core.run(deposit, flush);

  result.stats.congestion = congestion.max();
  if (record) record->congestion = congestion.max();
  return result;
}

UpResult route_up(const Overlay& topo, Network& net, const MulticastTrees& trees,
                  const FlatMap<Val>& payloads,
                  const std::function<uint64_t(uint64_t)>& rank,
                  CombiningCache* cache) {
  obs::Span span(net, "route.up");
  // Same caller-thread determinism argument as route_down's sampler use.
  obs::FlowSampler* flows = obs::FlowSampler::of(net);
  const uint32_t F = topo.levels() - 1;
  const NodeId cols = topo.columns();
  NCC_ASSERT(trees.levels == topo.levels());
  NCC_ASSERT(trees.children.size() == topo.node_count());

  UpResult result;
  result.at_col.assign(cols, {});
  TokenDrain<Up> core{topo, net, result.stats, rank, nullptr, nullptr, cache};

  // A state serves each group along the remaining recorded up-edges of its
  // entry (bit e = reverse of down-edge e of the level below).
  auto arrive = [&](uint32_t level, NodeId col, uint64_t group, const Val& v) {
    const uint64_t idx = topo.index(level, col);
    core.group(group);
    if (flows) flows->record_hop(group, /*up=*/true, level, 0, topo.host(col), net.rounds());
    if (level == 0) {
      // Admission point: every state the payload passes (leaves included)
      // caches it, so a later wave's setup request can terminate here.
      // Arrivals are applied sequentially at the merge, so admission and
      // eviction order is thread-count invariant.
      if (cache) cache->admit_payload(idx, group, v);
      result.at_col[col].push_back({group, v});
      return;
    }
    const uint64_t* mask = trees.children[idx].find(group);
    if (!mask || *mask == 0) {
      // Off-tree arrival: on a reliable network packets only follow recorded
      // tree edges, so this stays a hard invariant there; byzantine
      // corruption can rewrite a packet's group id in flight — then it is
      // network behaviour: count it and drop, don't abort.
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "multicast packet strayed off its recorded tree");
      ++result.stats.misrouted;
      return;
    }
    if (!core.push(idx, group, v, *mask).second) {
      // Duplicate arrival for a group already being served at this node:
      // same story — only a corrupted group id can collide like this.
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "duplicate multicast arrival on a reliable network");
      ++result.stats.misrouted;
      return;
    }
    if (cache) cache->admit_payload(idx, group, v);  // same admission point
  };

  // Slot order — deterministic and thread-invariant because the caller
  // populates `payloads` sequentially (see FlatMap::for_each).
  payloads.for_each([&](uint64_t group, const Val& val) {
    const NodeId* rcol = trees.root_col.find(group);
    if (!rcol) {
      // A reliable network always records a root (tree invariant); under
      // scenario fault injection a group can lose every membership packet,
      // in which case its multicast is undeliverable — count it, don't abort.
      ++result.stats.lost_groups;
      return;
    }
    arrive(F, *rcol, group, val);
  });

  // Inject the cached payloads at the cache roots route_down recorded: each
  // serves exactly the subtree whose setup requests terminated at that state
  // (the mask snapshotted-and-cleared at hit time), so no recorded edge is
  // served twice. Level-0 roots are leaf-local hits — delivered straight to
  // the column, zero routing messages.
  for (const MulticastTrees::CacheRoot& cr : trees.cache_roots) {
    const uint32_t level = static_cast<uint32_t>(cr.idx / cols);
    const NodeId col = static_cast<NodeId>(cr.idx % cols);
    core.group(cr.group);
    if (flows)
      flows->record_hop(cr.group, /*up=*/true, level, 0, topo.host(col), net.rounds(),
                        /*cache_hit=*/true);
    if (cache) cache->admit_payload(cr.idx, cr.group, cr.val);  // refresh
    if (level == 0) {
      result.at_col[col].push_back({cr.group, cr.val});
      continue;
    }
    if (cr.mask == 0) continue;  // nothing recorded below this state
    if (!core.push(cr.idx, cr.group, cr.val, cr.mask).second) {
      // Roots are deduplicated per (idx, group) at record time, so a
      // collision means a corrupted id — count it, don't abort (the same
      // contract as arrive()).
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "duplicate cache-root injection on a reliable network");
      ++result.stats.misrouted;
    }
  }

  core.run(arrive, [](uint64_t) {});
  return result;
}

}  // namespace ncc
