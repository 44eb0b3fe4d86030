#include "net/network.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/flat_map.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "overlay/scratch.hpp"

namespace ncc {

Network::Network(NetConfig config)
    : config_(config),
      cap_(config.capacity_factor * cap_log(config.n)),
      drop_seed_(mix64(config.seed ^ 0x6e65747730726bULL)) {
  NCC_ASSERT_MSG(config_.n >= 2, "the NCC model needs at least two nodes");
  send_count_.assign(config_.n, 0);
  inbox_off_.assign(config_.n, 0);
  inbox_cnt_.assign(config_.n, 0);
  inline_engine_ = std::make_unique<Engine>(*this);
}

Network::~Network() {
  NCC_ASSERT_MSG(engine_ == inline_engine_.get(),
                 "an attached engine must not outlive its network");
  inline_engine_.reset();  // nulls the pointer before the engine's detach()
}

void Network::attach(Engine* eng) {
  // The inline engine attaches during construction, before inline_engine_
  // is set; afterwards only one user engine at a time may replace it.
  NCC_ASSERT_MSG(engine_ == inline_engine_.get(), "network already has an engine attached");
  engine_ = eng;
}

void Network::detach() { engine_ = inline_engine_.get(); }

OverlayScratch& Network::overlay_scratch() {
  if (!overlay_scratch_) overlay_scratch_ = std::make_unique<OverlayScratch>();
  return *overlay_scratch_;
}

void Network::count_send(NodeId src) {
  const uint32_t c = ++send_count_[src];
  if (c > cap_) {
    if (config_.strict_send) {
      NCC_ASSERT_MSG(false, "send capacity exceeded (algorithm bug)");
    }
    ++stats_.send_violations;
  }
  round_max_send_ = std::max(round_max_send_, c);
}

MsgArena Network::acquire_arena() {
  if (pool_.empty()) return MsgArena{};
  MsgArena a = std::move(pool_.back());
  pool_.pop_back();
  return a;
}

void Network::stage_run(MsgArena&& run) {
  // Accounting-only scan of the 20-byte headers on the caller thread — the
  // per-message bookkeeping of a send() loop without copying any message.
  const size_t count = run.size();
  const MsgHdr* h = run.hdrs();
  for (size_t i = 0; i < count; ++i) {
    NCC_ASSERT(h[i].src < config_.n && h[i].dst < config_.n);
    NCC_ASSERT_MSG(h[i].src != h[i].dst, "nodes do not message themselves");
    count_send(h[i].src);
  }
  stats_.messages_sent += count;
  // Growth the stager did not drain itself (engine shards drain into their
  // own memory profile first) lands in the network's counters.
  mem_.allocs += run.take_allocs();
  if (count == 0) {
    pool_.push_back(std::move(run));
    return;
  }
  runs_.push_back(std::move(run));
  tail_open_ = false;
}

void Network::send(const Message& msg) {
  NCC_ASSERT(msg.src < config_.n && msg.dst < config_.n);
  NCC_ASSERT_MSG(msg.src != msg.dst, "nodes do not message themselves");
  count_send(msg.src);
  ++stats_.messages_sent;
  if (!tail_open_) {
    runs_.push_back(acquire_arena());
    tail_open_ = true;
  }
  runs_.back().push(msg);
}

void Network::end_round() {
  const NodeId n = config_.n;
  const uint64_t round = stats_.rounds;
  const uint32_t R = static_cast<uint32_t>(runs_.size());

  if (recv_seen_.size() != n) recv_seen_.assign(n, 0);
  if (wsum_.size() != n) wsum_.assign(n, 0);
  if (word_off_.size() != n) word_off_.assign(n, 0);

  // Close the previous round's inboxes. The nodes that received last round
  // are exactly the destinations of its delivered headers, so this costs
  // O(delivered), not O(n); afterwards inbox_cnt_, recv_seen_ and wsum_ are
  // zero everywhere, which the placement pass below relies on.
  for (uint64_t i = 0; i < delivered_; ++i) {
    const NodeId u = inbox_hdr_[i].dst;
    inbox_cnt_[u] = 0;
    recv_seen_[u] = 0;
    wsum_[u] = 0;
  }
  delivered_ = 0;

  // Send accounting: the round's peak load was tracked at send time; the
  // per-sender counters are cleared through the senders of the pending
  // headers (before fault drops, which must not hide a send).
  uint64_t total = 0;
  for (const MsgArena& r : runs_) {
    const MsgHdr* h = r.hdrs();
    const size_t sz = r.size();
    for (size_t i = 0; i < sz; ++i) send_count_[h[i].src] = 0;
    total += sz;
  }
  stats_.max_send_load = std::max(stats_.max_send_load, round_max_send_);
  round_max_send_ = 0;

  // Live-message accounting at the pre-fault snapshot: what was sent this
  // round, a thread-count-invariant quantity (see NetMemStats). Measured in
  // logical (AoS) message bytes so the series is layout-independent.
  if (total > mem_.live_msgs_peak) {
    mem_.live_msgs_peak = total;
    mem_.live_bytes_peak = total * sizeof(Message);
  }

  // Fault injection runs before delivery is sharded: the run-concatenation
  // order is thread-count independent, so decisions keyed on (round, index)
  // are too. Dropped headers are compacted out of their run in place; word
  // spans stay put, so surviving offsets remain valid.
  if (faults_.begin_round) faults_.begin_round(round);
  if ((faults_.drop || faults_.corrupt) && total != 0) {
    uint64_t idx = 0;
    for (MsgArena& r : runs_) {
      size_t kept = 0;
      const size_t sz = r.size();
      for (size_t i = 0; i < sz; ++i, ++idx) {
        Message m = r.at(i);
        if (faults_.drop && faults_.drop(m, round, idx)) {
          ++stats_.fault_drops;
          continue;
        }
        if (faults_.corrupt && faults_.corrupt(m, round, idx)) {
          ++stats_.corrupted;
          r.store(i, m);
        }
        if (kept != i) r.move_hdr(i, kept);
        ++kept;
      }
      r.truncate(kept);
    }
    total = 0;
    for (const MsgArena& r : runs_) total += r.size();
  }
  uint32_t rcap = cap_;
  if (faults_.recv_cap) rcap = std::max<uint32_t>(1, faults_.recv_cap(round, cap_));

  // Every delivery pass runs as engine tasks — single-shard rounds too,
  // where the engine calls the one task inline on the caller thread. That
  // keeps deliver_ns attribution uniform across thread counts.
  Engine& eng = *engine_;
  uint32_t S = 1;
  if (eng.threads() > 1 && total >= eng.delivery_cutoff()) S = eng.threads();
  ShardPlan nodes = ShardPlan::make(n, S);
  S = nodes.shards;
  ShardPlan chunks = ShardPlan::make(total, S);
  acc_.assign(S, ShardAcc{});

  // Global send-order offsets of the runs: pending index i lives in run r at
  // local slot i - run_start_[r]. Scatter rows and scans walk indices in
  // ascending order, so a running run pointer recovers (run, slot) in O(1)
  // amortized.
  run_start_.assign(R + 1, 0);
  for (uint32_t r = 0; r < R; ++r) run_start_[r + 1] = run_start_[r] + runs_[r].size();

  // Counting-sort index pass (multi-shard only): chunk p of the pending
  // order records the global indices headed for destination shard s in
  // scatter_[p*S + s]. Chunks are contiguous and scanned in order, so per
  // destination the concatenation over p restores the global arrival order
  // for any S — only 4-byte indices move, never messages.
  if (S > 1) {
    NCC_ASSERT_MSG(total <= UINT32_MAX,
                   "per-round pending exceeds 32-bit scatter indices");
    scatter_.resize(static_cast<size_t>(chunks.shards) * S);
    eng.run_delivery(chunks.shards, [&](uint32_t p) {
      for (uint32_t s = 0; s < S; ++s) scatter_[static_cast<size_t>(p) * S + s].clear();
      uint32_t r = 0;
      for (uint64_t i = chunks.begin(p); i < chunks.end(p); ++i) {
        while (i >= run_start_[r + 1]) ++r;
        const MsgHdr& h = runs_[r].hdrs()[i - run_start_[r]];
        auto& row = scatter_[static_cast<size_t>(p) * S + nodes.shard_of(h.dst)];
        if (row.size() == row.capacity()) ++acc_[p].scatter_allocs;
        row.push_back(static_cast<uint32_t>(i));
      }
    });
  }

  // Walk destination shard s's messages in arrival order; fn(hdr, words)
  // gets the header plus the owning run's word store.
  auto for_dst_shard = [&](uint32_t s, auto&& fn) {
    if (S == 1) {
      for (uint32_t r = 0; r < R; ++r) {
        const MsgHdr* h = runs_[r].hdrs();
        const uint64_t* w = runs_[r].words();
        const size_t sz = runs_[r].size();
        for (size_t i = 0; i < sz; ++i) fn(h[i], w);
      }
    } else {
      for (uint32_t p = 0; p < chunks.shards; ++p) {
        uint32_t r = 0;
        for (uint32_t gi : scatter_[static_cast<size_t>(p) * S + s]) {
          while (gi >= run_start_[r + 1]) ++r;
          fn(runs_[r].hdrs()[gi - run_start_[r]], runs_[r].words());
        }
      }
    }
  };

  // Count pass: per destination, the addressed (pre-drop) message count and
  // payload-word sum; the shard's inbox totals follow message by message.
  // An overloaded destination (count > rcap) keeps rcap headers and gets
  // fixed rcap * kMaxMessageWords word slots instead of the exact sum, so
  // reservoir replacement can overwrite any slot with any payload width.
  eng.run_delivery(S, [&](uint32_t s) {
    ShardAcc& a = acc_[s];
    for_dst_shard(s, [&](const MsgHdr& h, const uint64_t*) {
      const uint32_t k = ++recv_seen_[h.dst];
      wsum_[h.dst] += h.nwords;
      a.max_recv = std::max(a.max_recv, k);
      if (k <= rcap) {
        ++a.hdr_total;
        a.word_total += h.nwords;
      } else {
        ++a.dropped;
        if (k == rcap + 1) a.word_total += rcap * kMaxMessageWords - (wsum_[h.dst] - h.nwords);
      }
    });
  });

  // Shard prefix over the flat inbox arena (sequential, S terms); the arena
  // only ever grows, so steady-state rounds re-fill warm capacity.
  uint64_t hdr_total = 0, word_total = 0;
  for (ShardAcc& a : acc_) {
    a.hdr_base = hdr_total;
    a.word_base = word_total;
    hdr_total += a.hdr_total;
    word_total += a.word_total;
  }
  NCC_ASSERT_MSG(word_total <= UINT32_MAX,
                 "per-round inbox word store exceeds 32-bit offsets");
  if (hdr_total > inbox_hdr_.size()) {
    if (hdr_total > inbox_hdr_.capacity()) ++mem_.allocs;
    inbox_hdr_.resize(hdr_total);
  }
  if (word_total > inbox_words_.size()) {
    if (word_total > inbox_words_.capacity()) ++mem_.allocs;
    inbox_words_.resize(word_total);
  }

  // Placement pass: a destination's first arrival lays out its inbox span
  // at the shard's cursor (so spans follow first-arrival order), then every
  // message streams into its slot. The drop RNG is forked per (round,
  // destination), so the surviving subset of an overloaded inbox does not
  // depend on the shard layout or on the traffic at other destinations.
  eng.run_delivery(S, [&](uint32_t s) {
    const ShardAcc& a = acc_[s];
    uint64_t hcur = a.hdr_base;
    uint64_t wcur = a.word_base;
    MsgHdr* hout = inbox_hdr_.data();
    uint64_t* wout = inbox_words_.data();
    FlatMap<Rng> drop_rng;  // lookup/emplace only, never iterated
    for_dst_shard(s, [&](const MsgHdr& h, const uint64_t* wbase) {
      const NodeId dst = h.dst;
      const bool overloaded = recv_seen_[dst] > rcap;
      if (inbox_cnt_[dst] == 0) {
        inbox_off_[dst] = hcur;
        inbox_cnt_[dst] = std::min(recv_seen_[dst], rcap);
        word_off_[dst] = wcur;
        hcur += inbox_cnt_[dst];
        wcur += overloaded ? uint64_t{rcap} * kMaxMessageWords : wsum_[dst];
        wsum_[dst] = 0;  // becomes the arrival counter
      }
      const uint32_t k = wsum_[dst]++;
      uint64_t slot, woff;
      if (k < rcap) {
        slot = inbox_off_[dst] + k;
        if (overloaded) {
          woff = word_off_[dst] + uint64_t{k} * kMaxMessageWords;
        } else {
          woff = word_off_[dst];
          word_off_[dst] += h.nwords;
        }
      } else {
        // Reservoir over arrival order: replace a random survivor with
        // probability rcap/(k+1).
        Rng* r = drop_rng.find(dst);
        if (!r) r = drop_rng.emplace(dst, Rng(mix64(mix64(drop_seed_ ^ round) ^ dst))).first;
        uint64_t j = r->next_below(k + 1);
        if (j >= rcap) return;
        slot = inbox_off_[dst] + j;
        woff = word_off_[dst] + j * uint64_t{kMaxMessageWords};
      }
      MsgHdr out = h;
      out.off = static_cast<uint32_t>(woff);
      hout[slot] = out;
      for (uint8_t w = 0; w < h.nwords; ++w) wout[woff + w] = wbase[h.off + w];
    });
  });
  delivered_ = hdr_total;

  uint64_t container_bytes = 0;
  for (const MsgArena& r : runs_) container_bytes += r.capacity_bytes();
  for (const MsgArena& a : pool_) container_bytes += a.capacity_bytes();
  for (const auto& row : scatter_) container_bytes += row.capacity() * sizeof(uint32_t);
  container_bytes += inbox_hdr_.capacity() * sizeof(MsgHdr);
  container_bytes += inbox_words_.capacity() * sizeof(uint64_t);
  container_bytes += (send_count_.capacity() + recv_seen_.capacity() +
                      wsum_.capacity() + inbox_cnt_.capacity()) *
                     sizeof(uint32_t);
  container_bytes += (inbox_off_.capacity() + word_off_.capacity()) * sizeof(uint64_t);
  for (const ShardAcc& a : acc_) {
    stats_.max_recv_load = std::max(stats_.max_recv_load, a.max_recv);
    stats_.messages_dropped += a.dropped;
    mem_.allocs += a.scatter_allocs;
  }
  mem_.container_bytes_peak = std::max(mem_.container_bytes_peak, container_bytes);

  if (!delivery_hooks_.empty()) {
    // Every subscriber sees the identical stream: (destination, arrival)
    // order, and within one message the subscribers run in subscription
    // order. The delivered inboxes are thread-count independent, so the
    // streams (and anything subscribers derive from them) are too.
    for (NodeId u = 0; u < n; ++u) {
      const uint64_t off = inbox_off_[u];
      for (uint32_t i = 0; i < inbox_cnt_[u]; ++i) {
        const MsgHdr& h = inbox_hdr_[off + i];
        Message m;
        m.src = h.src;
        m.dst = h.dst;
        m.tag = h.tag;
        m.nwords = h.nwords;
        for (uint8_t w = 0; w < h.nwords; ++w) m.words[w] = inbox_words_[h.off + w];
        for (auto& sub : delivery_hooks_) sub.fn(m, round);
      }
    }
  }

  // Recycle the runs (capacity survives in the pool). Reverse order, so a
  // stager acquiring arenas in shard order next round gets each shard's own
  // warm arena back.
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    mem_.allocs += it->take_allocs();
    it->clear();
    pool_.push_back(std::move(*it));
  }
  runs_.clear();
  tail_open_ = false;
  ++stats_.rounds;
  for (auto& sub : round_hooks_) sub.fn(stats_.rounds - 1, stats_);
}

Network::HookId Network::add_delivery_hook(DeliveryHook hook) {
  HookId id = next_hook_id_++;
  delivery_hooks_.push_back({id, std::move(hook)});
  return id;
}

void Network::remove_delivery_hook(HookId id) {
  std::erase_if(delivery_hooks_, [id](const auto& s) { return s.id == id; });
}

Network::HookId Network::add_round_hook(RoundHook hook) {
  HookId id = next_hook_id_++;
  round_hooks_.push_back({id, std::move(hook)});
  return id;
}

void Network::remove_round_hook(HookId id) {
  std::erase_if(round_hooks_, [id](const auto& s) { return s.id == id; });
}

void Network::charge_rounds(uint64_t k) { stats_.charged_rounds += k; }

void Network::reset_stats() {
  stats_ = NetStats{};
  mem_ = NetMemStats{};
  for (MsgArena& r : runs_) {
    r.clear();
    (void)r.take_allocs();
    pool_.push_back(std::move(r));
  }
  runs_.clear();
  tail_open_ = false;
  std::fill(send_count_.begin(), send_count_.end(), 0);
  std::fill(recv_seen_.begin(), recv_seen_.end(), 0);
  std::fill(wsum_.begin(), wsum_.end(), 0);
  std::fill(word_off_.begin(), word_off_.end(), 0);
  std::fill(inbox_off_.begin(), inbox_off_.end(), 0);
  std::fill(inbox_cnt_.begin(), inbox_cnt_.end(), 0);
  delivered_ = 0;
  round_max_send_ = 0;
  inbox_hdr_.clear();
  inbox_words_.clear();
  for (auto& row : scatter_) row.clear();
}

}  // namespace ncc
