// Reusable per-call state of the overlay layer: the router's token drain
// (overlay/router.cpp) and the synchronization barrier
// (primitives/aggregate_broadcast.cpp).
//
// Ownership: each Network owns one OverlayScratch, created on the first
// route or barrier call (Network::overlay_scratch()) and destroyed with the
// network, the way the network owns its inline Engine. Calls on one network
// run one at a time on the caller thread, so one instance serves them all;
// it is never thread_local and never process-global.
//
// Reset: a call starts by clearing what the previous call touched — the
// routing states on `touched`, the overlay nodes on the congestion list —
// and by advancing the epoch of its hash tables, so a call costs O(states it
// touches), not an O(node_count) allocation plus zeroing.
//
// Memory: storage is sized to one call's peak, never to a union of
// per-state peaks. One call-wide table and entry pool hold every state's
// pending entries, and a cleared entry's slot is reused, so they follow the
// live entries. A container up to kKeepBytes keeps its capacity across calls
// (small overlays then allocate nothing in steady state); a larger one is
// released when its call ends, so a large call does not pin its memory for
// the network's lifetime.
//
// Determinism: the slot order of a reused table depends on earlier calls,
// so no code may iterate a table here; the per-state pending lists are
// iterated only by order-insensitive reductions (the contention winner is a
// min over a total order).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "overlay/router.hpp"

namespace ncc {

/// Scratch containers at most this large keep their capacity across calls;
/// larger ones are released when the call that grew them ends.
inline constexpr size_t kKeepBytes = size_t{1} << 18;

/// Value type of an EpochTable used as a set: takes no slot space.
struct NoValue {};

/// Open-addressing hash table keyed by (a, b) — a 32-bit index (routing
/// state, overlay node, or 0) and a 64-bit id (group) — with O(1) reset: a
/// slot is full iff its stamp equals the current epoch, so reset() only
/// advances the epoch. Linear probing with backward-shift erase (no
/// tombstones).
template <class V>
class EpochTable {
 public:
  /// Empties the table in O(1).
  void reset() {
    if (++epoch_ == 0) {
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    size_ = 0;
  }

  /// Empties the table and, if it is larger than kKeepBytes, frees it.
  void release_if_large() {
    if (slots_.size() * sizeof(Slot) > kKeepBytes) {
      std::vector<Slot>().swap(slots_);
      mask_ = 0;
    }
    reset();
  }

  V* find(uint32_t a, uint64_t b) {
    if (slots_.empty()) return nullptr;
    for (size_t i = home(a, b);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.a == a && s.b == b) return &s.val;
    }
  }

  /// Insert (a, b) -> v if absent; returns the mapped value and whether it
  /// was inserted.
  std::pair<V*, bool> emplace(uint32_t a, uint64_t b, const V& v) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow(std::max(kMinCap, slots_.size() * 2));
    for (size_t i = home(a, b);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = Slot{b, a, epoch_, v};
        ++size_;
        return {&s.val, true};
      }
      if (s.a == a && s.b == b) return {&s.val, false};
    }
  }

  /// Remove (a, b), which must be present. The probe chain behind the
  /// vacated slot is shifted back, so lookups never meet a tombstone.
  void erase(uint32_t a, uint64_t b) {
    size_t hole = home(a, b);
    while (!(slots_[hole].a == a && slots_[hole].b == b)) {
      NCC_ASSERT(slots_[hole].epoch == epoch_);
      hole = (hole + 1) & mask_;
    }
    for (size_t j = (hole + 1) & mask_; slots_[j].epoch == epoch_; j = (j + 1) & mask_) {
      // Slot j may fill the hole iff its probe path from home passes the hole.
      const size_t h = home(slots_[j].a, slots_[j].b);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].epoch = 0;  // 0 is never a current epoch
    --size_;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t b;
    uint32_t a;
    uint32_t epoch;  // full iff == epoch_
    [[no_unique_address]] V val;
  };
  static constexpr size_t kMinCap = 16;

  size_t home(uint32_t a, uint64_t b) const {
    return static_cast<size_t>(mix64(b ^ (uint64_t{a} * 0x9e3779b97f4a7c15ULL))) & mask_;
  }

  /// Re-hash the live entries into `cap` fresh slots (epoch 0 is never
  /// current, so the fresh slots start empty).
  void grow(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{0, 0, 0, V{}});
    mask_ = cap - 1;
    const uint32_t live = epoch_;
    epoch_ = 1;
    for (const Slot& s : old) {
      if (s.epoch != live) continue;
      for (size_t i = home(s.a, s.b);; i = (i + 1) & mask_) {
        if (slots_[i].epoch != epoch_) {
          slots_[i] = Slot{s.b, s.a, epoch_, s.val};
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint32_t epoch_ = 1;
};

/// Deduplicated set of routing-state indices drained in ascending order: a
/// bitmap with one summary bit per 64-bit word, so take() costs the members
/// plus node_count/4096 summary words — no sort.
class Frontier {
 public:
  void resize(uint64_t count) {
    leaf_.assign((count + 63) / 64, 0);
    top_.assign((leaf_.size() + 63) / 64, 0);
  }
  void add(uint64_t i) {
    leaf_[i >> 6] |= uint64_t{1} << (i & 63);
    top_[i >> 12] |= uint64_t{1} << ((i >> 6) & 63);
  }
  /// Replace `out` with the members in ascending order and empty the set.
  void take(std::vector<uint64_t>& out) {
    out.clear();
    for (size_t t = 0; t < top_.size(); ++t) {
      for (uint64_t tm = top_[t]; tm; tm &= tm - 1) {
        const size_t w = t * 64 + static_cast<size_t>(std::countr_zero(tm));
        for (uint64_t lm = leaf_[w]; lm; lm &= lm - 1)
          out.push_back(w * 64 + static_cast<uint64_t>(std::countr_zero(lm)));
        leaf_[w] = 0;
      }
      top_[t] = 0;
    }
  }
  /// Drop `i` and every member sharing its words — used only to clear the
  /// set through a list of every state that may be a member.
  void clear_near(uint64_t i) {
    leaf_[i >> 6] = 0;
    top_[i >> 12] = 0;
  }

 private:
  std::vector<uint64_t> leaf_;
  std::vector<uint64_t> top_;
};

/// Empty `v` and, if it is larger than kKeepBytes, free it.
template <class T>
void release_if_large(std::vector<T>& v) {
  if (v.capacity() * sizeof(T) > kKeepBytes) std::vector<T>().swap(v);
  v.clear();
}

/// The router's token-drain state (overlay/router.cpp).
struct RouteScratch {
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One group queued at a routing state: its (combined) value and the edges
  /// it still has to cross. A down packet has one bit, its greedy route_edge,
  /// fixed at deposit; an up packet carries its recorded up-edge mask. An
  /// entry whose edges reach 0 leaves its state's list at once and the table
  /// at the merge, and its slot in `entries` is reused.
  struct Entry {
    uint64_t group;
    uint64_t rank;  // the group's rank, cached for the contention rule
    Val val;
    uint64_t edges;
    uint32_t state;
    uint32_t next;  // next entry queued at the same state, or kNil
  };
  /// Per routing state: its pending list and token masks. Tokens carry their
  /// in-edge index and tokens_recv tracks in-edges as a bitmask, so
  /// duplicate deliveries — the stall heartbeat's resends — are idempotent.
  struct State {
    uint64_t tokens_recv = 0;
    uint64_t token_sent = 0;
    uint32_t head = kNil;
    bool touched = false;
  };
  /// Hash evaluations every node can compute from the shared randomness,
  /// cached per group: its rank and (going down) its destination column.
  struct GroupMeta {
    NodeId dest = 0;
    uint64_t rank = 0;
  };
  /// A packet or token applied at the merge: straight-edge moves staged by
  /// the step, and arrivals decoded from the inboxes.
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
    std::vector<uint32_t> cleared;  // entries that crossed their last edge
    uint64_t moved = 0, tokens = 0;
  };

  // Pending entries: (state, group) -> index into `entries`; each state's
  // entries are linked from State::head. Storage follows the live entries:
  // cleared slots go on `free_entries` for reuse.
  EpochTable<uint32_t> pending;
  std::vector<Entry> entries;
  std::vector<uint32_t> free_entries;
  std::vector<State> states;
  std::vector<uint64_t> touched;  // states whose State differs from {}
  Frontier active;
  EpochTable<GroupMeta> meta;  // keyed (0, group)
  // Congestion: distinct (overlay node, group) visits, split by node into
  // kVisitParts tables so a growing table rehashes a slice of the set, not
  // all of it (the rehash briefly holds old and new slots), and per-node
  // counts.
  static constexpr uint32_t kVisitParts = 16;
  std::array<EpochTable<NoValue>, kVisitParts> visits;
  std::vector<uint32_t> visit_count;
  std::vector<uint64_t> visited;  // overlay nodes with a nonzero count
  // Step and arrival staging, one slot per engine shard.
  std::vector<StepOut> outs;
  std::vector<std::vector<Move>> arrivals;
  std::vector<Move> local;
  std::vector<uint64_t> items;
  bool busy = false;  // a route call is running on this scratch

  /// Make the scratch ready for a call over `node_count` routing states and
  /// `overlay_nodes` congestion units on an engine with `shards` shards.
  void begin(uint64_t node_count, uint64_t overlay_nodes, uint32_t shards) {
    NCC_ASSERT_MSG(!busy, "route calls on one network must not nest");
    busy = true;
    if (states.size() != node_count) {
      states.assign(node_count, State{});
      active.resize(node_count);
      touched.clear();
    }
    for (uint64_t idx : touched) {
      states[idx] = State{};
      active.clear_near(idx);
    }
    touched.clear();
    pending.reset();
    entries.clear();
    free_entries.clear();
    meta.reset();
    if (visit_count.size() != overlay_nodes) {
      visit_count.assign(overlay_nodes, 0);
      visited.clear();
    }
    for (uint64_t v : visited) visit_count[v] = 0;
    visited.clear();
    for (EpochTable<NoValue>& v : visits) v.reset();
    if (outs.size() < shards) outs.resize(shards);
    if (arrivals.size() < shards) arrivals.resize(shards);
  }
  /// Close the call, releasing every container that grew past kKeepBytes.
  void end() {
    busy = false;
    pending.release_if_large();
    meta.release_if_large();
    for (EpochTable<NoValue>& v : visits) v.release_if_large();
    release_if_large(entries);
    release_if_large(free_entries);
    release_if_large(local);
    release_if_large(items);
    for (std::vector<Move>& a : arrivals) release_if_large(a);
    for (StepOut& o : outs) {
      release_if_large(o.local);
      release_if_large(o.rec);
      release_if_large(o.readd);
      release_if_large(o.cleared);
    }
  }
};

/// sync_barrier's per-column vectors (primitives/aggregate_broadcast.cpp),
/// resized per call to the overlay's column count.
struct BarrierScratch {
  std::vector<uint64_t> weight, next;
  std::vector<uint8_t> present, present_next, informed, informed_next;
  std::vector<NodeId> parent;
};

struct OverlayScratch {
  RouteScratch route;
  BarrierScratch barrier;
};

}  // namespace ncc
