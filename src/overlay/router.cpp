#include "overlay/router.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "overlay/cache.hpp"
#include "overlay/scratch.hpp"
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

/// The router run in one direction: per round, every active state sends the
/// min-(rank, group) entry on each of its edges and launches a token on every
/// edge it will never use again; the run ends when the tokens drain. The
/// direction-specific policies — what a packet arrival does (`arrive`) and
/// what a state's token completion does (`token_done`) — are passed to run()
/// and called only on the caller thread's sequential merge. All per-call
/// state lives in the network's RouteScratch (overlay/scratch.hpp).
template <class Dir>
struct TokenDrain {
  using Entry = RouteScratch::Entry;
  using State = RouteScratch::State;
  using GroupMeta = RouteScratch::GroupMeta;
  using Move = RouteScratch::Move;
  using RecordOp = RouteScratch::RecordOp;
  using StepOut = RouteScratch::StepOut;
  static constexpr uint32_t kNil = RouteScratch::kNil;

  const Overlay& topo;
  Network& net;
  RouteStats& stats;
  const std::function<uint64_t(uint64_t)>& rank;
  const std::function<NodeId(uint64_t)>* dest_col;  // null going up
  MulticastTrees* record;                           // null going up
  CombiningCache* cache;
  RouteScratch& sc;
  // Per-call cache stats delta: all cache traffic runs at the sequential
  // merge points, so the delta is thread-count invariant.
  const CombiningCache::Stats cache_before;
  const uint32_t final_level;
  const NodeId cols;
  uint64_t remaining = 0;  // edges still to cross, summed over all entries
  // Tokens flow start -> terminal behind the packets, one per (state, edge).
  uint64_t tokens_pending;
  // Packet and token moves applied at the merge; counted toward the round's
  // progress so the stall heartbeat only fires when the network truly
  // delivered nothing new.
  uint64_t progress = 0;
  uint32_t congestion = 0;  // max distinct groups visiting one overlay node
  // Per-level down-degree and its full edge mask, read once from the
  // (virtual) overlay.
  std::array<uint32_t, 64> degree{};
  std::array<uint64_t, 64> full{};

  TokenDrain(const Overlay& t, Network& nw, RouteStats& st,
             const std::function<uint64_t(uint64_t)>& rk,
             const std::function<NodeId(uint64_t)>* dc, MulticastTrees* rec,
             CombiningCache* ch)
      : topo(t), net(nw), stats(st), rank(rk), dest_col(dc), record(rec), cache(ch),
        sc(nw.overlay_scratch().route),
        cache_before(ch ? ch->stats() : CombiningCache::Stats{}),
        final_level(t.levels() - 1), cols(t.columns()), tokens_pending(token_count(t)) {
    NCC_ASSERT(t.node_count() <= UINT32_MAX && t.overlay_node_count() <= UINT32_MAX);
    NCC_ASSERT(t.levels() <= degree.size());
    for (uint32_t l = 0; l + 1 < t.levels(); ++l) {
      degree[l] = t.down_degree(l);
      full[l] = (uint64_t{1} << degree[l]) - 1;
    }
    sc.begin(t.node_count(), t.overlay_node_count(), nw.engine().threads());
  }
  ~TokenDrain() { sc.end(); }
  TokenDrain(const TokenDrain&) = delete;
  TokenDrain& operator=(const TokenDrain&) = delete;

  /// Metadata of `g`, computed on first sight. Only the sequential merge
  /// inserts; the parallel step reads the rank cached in each entry.
  GroupMeta group(uint64_t g) {
    auto [slot, fresh] = sc.meta.emplace(0, g, {});
    if (fresh) *slot = {dest_col ? (*dest_col)(g) : 0, rank(g)};
    NCC_ASSERT(slot->dest < cols);
    return *slot;
  }

  /// Record that state `idx` differs from its reset value.
  State& touch(uint64_t idx) {
    State& st = sc.states[idx];
    if (!st.touched) {
      st.touched = true;
      sc.touched.push_back(idx);
    }
    return st;
  }
  void activate(uint64_t idx) {
    touch(idx);
    sc.active.add(idx);
  }

  /// Count a visit of `group` to overlay node `node` (route_down's
  /// congestion measure: distinct groups per node).
  void visit(uint64_t node, uint64_t g) {
    if (!sc.visits[node % RouteScratch::kVisitParts].emplace(static_cast<uint32_t>(node), g, {}).second)
      return;
    uint32_t& c = sc.visit_count[node];
    if (c++ == 0) sc.visited.push_back(node);
    congestion = std::max(congestion, c);
  }

  /// True while group `g` is queued at state `idx`.
  bool queued(uint64_t idx, uint64_t g) {
    return sc.pending.find(static_cast<uint32_t>(idx), g) != nullptr;
  }

  /// Queue group `g` (rank `rk`) at state `idx` to cross `edges` (nonzero)
  /// and activate the state. If the group is already queued there, its entry
  /// is returned untouched (second == false) for the caller to combine into
  /// or reject. The pointer is valid until the next push.
  std::pair<Entry*, bool> push(uint64_t idx, uint64_t g, uint64_t rk, const Val& v,
                               uint64_t edges) {
    NCC_ASSERT(edges != 0 && sc.entries.size() < kNil);
    const uint32_t free_id = sc.free_entries.empty() ? static_cast<uint32_t>(sc.entries.size())
                                                     : sc.free_entries.back();
    auto [id, fresh] = sc.pending.emplace(static_cast<uint32_t>(idx), g, free_id);
    State& st = touch(idx);
    sc.active.add(idx);
    if (!fresh) return {&sc.entries[*id], false};
    const Entry en{g, rk, v, edges, static_cast<uint32_t>(idx), st.head};
    if (free_id == sc.entries.size()) {
      sc.entries.push_back(en);
    } else {
      sc.free_entries.pop_back();
      sc.entries[free_id] = en;
    }
    st.head = free_id;
    remaining += std::popcount(edges);
    return {&sc.entries[free_id], true};
  }

  /// True once every in-edge token arrived (start-level states: at once).
  bool token_ready(uint64_t idx) const {
    uint32_t level = static_cast<uint32_t>(idx / cols);
    return level == Dir::start(final_level) ||
           sc.states[idx].tokens_recv == full[Dir::in_link(level)];
  }

  // One shard's slice of the step: each item only mutates its own state and
  // the entries on its list, and every cross-node effect (sends,
  // straight-edge moves, tree records, counters, re-activation) is staged in
  // `out`.
  void step(StepOut& out, uint64_t ib, uint64_t ie) {
    // Per-edge contention winners (entry index), live where `wanted` has the
    // edge's bit — so no per-item reset of the 62-slot array on the router's
    // hottest path.
    struct Best {
      Prio prio;
      uint32_t entry;
    };
    std::array<Best, kMaxDegree> best;
    for (uint64_t ii = ib; ii < ie; ++ii) {
      const uint64_t idx = sc.items[ii];
      const uint32_t level = static_cast<uint32_t>(idx / cols);
      const NodeId col = static_cast<NodeId>(idx % cols);
      NCC_ASSERT(level != Dir::terminal(final_level));  // terminal states never enqueue work
      const uint32_t link = Dir::link(level), next = Dir::next(level);
      State& st = sc.states[idx];
      // The winner is the min by (rank, group) — a total order — so it does
      // not depend on the list order.
      uint64_t wanted = 0;
      for (uint32_t i = st.head; i != kNil; i = sc.entries[i].next) {
        const Entry& en = sc.entries[i];
        const Prio p{en.rank, en.group};
        for (uint64_t mask = en.edges; mask; mask &= mask - 1) {
          const uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
          if (!(wanted >> e & 1) || p < best[e].prio) best[e] = {p, i};
          wanted |= uint64_t{1} << e;
        }
      }
      // Every wanted edge carries its winner this round.
      bool cleared = false;
      for (uint64_t mask = wanted; mask; mask &= mask - 1) {
        const uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
        const uint64_t bit = uint64_t{1} << e;
        Entry& en = sc.entries[best[e].entry];
        const uint64_t g = en.group;
        const Val v = en.val;
        en.edges &= ~bit;
        cleared |= en.edges == 0;
        ++out.moved;
        const NodeId ncol = topo.down_column(link, col, e);
        // Record the reverse (up) edge at the child for the multicast tree.
        // The child may belong to another shard, so stage the op.
        if (record) out.rec.push_back({uint64_t{next} * cols + ncol, g, bit});
        if (e == 0) {
          out.local.push_back({next, ncol, g, v, false, 0});
        } else {
          out.sends.push(Message(topo.host(col), topo.host(ncol), Dir::kPacket | next,
                                 {g, v[0], v[1]}));
        }
      }
      // Unlink the entries that crossed their last edge; the merge drops
      // them from the (shared) table.
      if (cleared) {
        uint32_t* link_to = &st.head;
        while (*link_to != kNil) {
          Entry& en = sc.entries[*link_to];
          if (en.edges == 0) {
            out.cleared.push_back(*link_to);
            *link_to = en.next;
          } else {
            link_to = &en.next;
          }
        }
      }
      // A packet remaining at the node means another packet of its group may
      // still arrive and combine; the token waits for the edge to clear.
      const bool ready = token_ready(idx);
      const uint32_t deg = degree[link];
      for (uint32_t e = 0; ready && e < deg; ++e) {
        const uint64_t bit = uint64_t{1} << e;
        if ((wanted | st.token_sent) & bit) continue;
        st.token_sent |= bit;
        ++out.tokens;
        const NodeId ncol = topo.down_column(link, col, e);
        if (e == 0) {
          out.local.push_back({next, ncol, 0, {}, true, 0});
        } else {
          out.sends.push(Message(topo.host(col), topo.host(ncol), Dir::kToken | next, {e}));
        }
      }
      if (st.head != kNil || (ready && st.token_sent != full[link])) out.readd.push_back(idx);
    }
  }

  // The stall heartbeat: when a faulted network ate every in-flight message
  // of a round (zero progress), re-send all tokens already launched. Token
  // arrival is a bitmask OR, so duplicates are free; a reliable network moves
  // a packet or token every round and never gets here.
  void resend_tokens() {
    for (uint64_t idx = 0; idx < sc.states.size(); ++idx) {
      const uint32_t level = static_cast<uint32_t>(idx / cols);
      const NodeId col = static_cast<NodeId>(idx % cols);
      // Bit 0 is the straight edge: its token is local and never lost.
      for (uint64_t mask = sc.states[idx].token_sent & ~uint64_t{1}; mask; mask &= mask - 1) {
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
    Engine& eng = net.engine();
    for (NodeId c = 0; c < cols; ++c) activate(topo.index(Dir::start(final_level), c));

    auto apply = [&](const Move& mv) {
      if (!mv.is_token) {
        ++progress;
        arrive(mv.level, mv.col, mv.group, mv.val);
        return;
      }
      if (mv.level == terminal) return;  // terminal tokens end here
      const uint64_t idx = uint64_t{mv.level} * cols + mv.col;
      const uint64_t bit = uint64_t{1} << mv.edge;
      State& st = touch(idx);
      if (!(st.tokens_recv & bit)) {
        st.tokens_recv |= bit;
        ++progress;
        if (token_ready(idx)) token_done(idx);
      }
      if (token_ready(idx) && st.token_sent != full[Dir::link(mv.level)])
        sc.active.add(idx);
    };

    bool first_round = true;
    while (remaining > 0 || tokens_pending > 0) {
      if (!first_round && progress == 0) resend_tokens();
      first_round = false;
      progress = 0;

      // The step runs shard-parallel over the active states and stages its
      // sends in pooled network arenas (acquired here, on the caller thread,
      // one per shard the step runs); the merge hands them over zero-copy in
      // shard order — the sequential send order, as in Engine::send_loop —
      // and applies the other staged effects in the same order.
      sc.active.take(sc.items);
      const uint32_t shards = eng.shards_for(sc.items.size());
      for (uint32_t s = 0; s < shards; ++s) sc.outs[s].sends = net.acquire_arena();
      eng.ranges(sc.items.size(),
                 [&](uint32_t s, uint64_t ib, uint64_t ie) { step(sc.outs[s], ib, ie); });
      sc.local.clear();
      for (uint32_t s = 0; s < shards; ++s) {
        StepOut& out = sc.outs[s];
        net.stage_run(std::move(out.sends));
        sc.local.insert(sc.local.end(), out.local.begin(), out.local.end());
        for (const RecordOp& op : out.rec) record->children[op.cidx][op.group] |= op.bit;
        for (uint64_t idx : out.readd) activate(idx);
        for (uint32_t id : out.cleared) {
          sc.pending.erase(sc.entries[id].state, sc.entries[id].group);
          sc.free_entries.push_back(id);
        }
        stats.packets_moved += out.moved;
        progress += out.moved + out.tokens;
        remaining -= out.moved;
        tokens_pending -= out.tokens;
        out.local.clear();
        out.rec.clear();
        out.readd.clear();
        out.cleared.clear();
        out.moved = out.tokens = 0;
      }

      net.end_round();
      ++stats.rounds;

      for (const Move& mv : sc.local) apply(mv);
      // Arrival scan, sharded over host columns: each shard decodes its
      // columns' inboxes into staged moves; the merge applies them in shard
      // order, which concatenates back to the sequential column-ascending
      // scan order — so arrivals (which touch shared routing state) stay on
      // the caller thread and bit-identical for any shard count.
      eng.ranges(cols, [&](uint32_t s, uint64_t ub, uint64_t ue) {
        std::vector<Move>& arr = sc.arrivals[s];
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
      for (uint32_t s = 0, n = eng.shards_for(cols); s < n; ++s) {
        for (const Move& mv : sc.arrivals[s]) apply(mv);
        sc.arrivals[s].clear();
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
  TokenDrain<Down> core(topo, net, result.stats, rank, &dest_col, record, cache);
  // Dedup index into record->cache_roots: later hits of a group at the same
  // state OR their subtree masks into the root recorded by the first hit.
  std::map<std::pair<uint64_t, uint64_t>, size_t> croot_at;
  std::vector<CombiningCache::Flushed> flush_buf;

  auto edge_of = [&](uint32_t level, NodeId col, NodeId dest) {
    uint32_t e = topo.route_edge(level, col, dest);
    NCC_ASSERT(e < topo.down_degree(level));
    return e;
  };
  auto enqueue = [&](uint64_t idx, uint32_t edge, uint64_t g, uint64_t rk, const Val& v) {
    auto [slot, fresh] = core.push(idx, g, rk, v, uint64_t{1} << edge);
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
    core.visit(topo.overlay_node(level, col), group);
    const auto [dest, rk] = core.group(group);
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
    if (cache && !record && level >= 1 && !core.queued(idx, group)) {
      if (cache->absorb(idx, group, v, combine)) return;
      enqueue(idx, edge, group, rk, v);
      // Arm only while more packets can still arrive (tokens incomplete): an
      // absorber armed after the flush transition would never drain.
      CombiningCache::Flushed ev;
      if (!core.token_ready(idx) && cache->arm_absorber(idx, group, &ev)) {
        const auto [ev_dest, ev_rank] = core.group(ev.group);
        enqueue(idx, edge_of(level, col, ev_dest), ev.group, ev_rank, ev.val);
      }
      return;
    }
    enqueue(idx, edge, group, rk, v);
  };
  // Token completion is the absorber drain point: every value parked at the
  // state re-enters its queue here, exactly once, so aggregates stay exact.
  auto flush = [&](uint64_t idx) {
    if (!cache || record) return;
    const uint32_t level = static_cast<uint32_t>(idx / cols);
    const NodeId col = static_cast<NodeId>(idx % cols);
    flush_buf.clear();
    cache->flush_absorbers(idx, &flush_buf);
    for (const CombiningCache::Flushed& f : flush_buf) {
      const auto [f_dest, f_rank] = core.group(f.group);
      enqueue(idx, edge_of(level, col, f_dest), f.group, f_rank, f.val);
    }
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

  result.stats.congestion = core.congestion;
  if (record) record->congestion = core.congestion;
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
  TokenDrain<Up> core(topo, net, result.stats, rank, nullptr, nullptr, cache);

  // A state serves each group along the remaining recorded up-edges of its
  // entry (bit e = reverse of down-edge e of the level below).
  auto arrive = [&](uint32_t level, NodeId col, uint64_t group, const Val& v) {
    const uint64_t idx = topo.index(level, col);
    const uint64_t rk = core.group(group).rank;
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
    if (!core.push(idx, group, rk, v, *mask).second) {
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
    const uint64_t rk = core.group(cr.group).rank;
    if (flows)
      flows->record_hop(cr.group, /*up=*/true, level, 0, topo.host(col), net.rounds(),
                        /*cache_hit=*/true);
    if (cache) cache->admit_payload(cr.idx, cr.group, cr.val);  // refresh
    if (level == 0) {
      result.at_col[col].push_back({cr.group, cr.val});
      continue;
    }
    if (cr.mask == 0) continue;  // nothing recorded below this state
    if (!core.push(cr.idx, cr.group, rk, cr.val, cr.mask).second) {
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
