// The sharded round engine: runs per-node (or per-column, per-packet)
// step callbacks of one synchronous round in parallel, staging their
// outgoing messages in per-shard buffers that are merged into the Network
// at the barrier.
//
// Determinism contract: every observable effect is independent of the
// thread count. Shards are contiguous index ranges processed in increasing
// order (ShardPlan), and staged sends are merged in (shard id, item id,
// send order) — which concatenates back to the plain sequential order — so
// for a fixed seed, threads=1 and threads=T produce bit-identical message
// streams, algorithm outputs, and NetStats. Randomness inside parallel
// loops must be forked per item (Rng::fork / mix64 of the item id), never
// drawn from a stream shared across items.
//
// Every Network runs on an Engine: the network owns an inline threads=1
// engine, and a user-constructed Engine takes its place for as long as it
// lives. Primitives and algorithms reach the current one through
// net.engine(); end_round() runs its delivery passes on the same engine's
// pool (see net/network.hpp). threads=1 is the plain sequential loop.
//
// Loop API: ranges(), for_each(), send_loop() and run_delivery() are header
// templates over their callable. A loop that runs one shard — every loop at
// threads=1, and any loop below loop_cutoff items — calls its body inline on
// the caller thread. std::function remains only at the ThreadPool dispatch
// of a multi-shard loop: one wrapper per loop around the shard body.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "engine/shard.hpp"
#include "engine/thread_pool.hpp"
#include "net/message.hpp"
#include "net/network.hpp"

namespace ncc {

/// Wall-clock profile of one shard, accumulated across the engine's
/// lifetime (or since reset_timing()). Strictly observational: timing never
/// feeds back into scheduling and is kept out of every determinism-compared
/// byte stream — emitters gate it behind a timing flag (see bench_engine and
/// the Perfetto exporter's timing tracks).
struct EngineShardTiming {
  uint64_t stage_ns = 0;    // send_loop step callbacks run on this shard
  uint64_t merge_ns = 0;    // handing this shard's staged arena to the network
                            // (header accounting scan, caller thread)
  uint64_t deliver_ns = 0;  // end_round delivery tasks on this shard: the
                            // scatter/count/placement passes, per-task wall
                            // (includes scheduler waits when cores are
                            // oversubscribed — see docs/ARCHITECTURE.md)
  uint64_t loops = 0;       // send_loop invocations that ran this shard
  uint64_t deliveries = 0;  // delivery tasks timed on this shard
};

/// Memory profile of one shard's staged send buffer, accumulated like
/// EngineShardTiming. Capacities and allocation counts depend on the shard
/// layout and buffer-reuse history, so — like wall-clock — they are strictly
/// observational and never reach determinism-compared bytes (emitters gate
/// them behind the memory flag, see obs::MemoryMonitor).
struct EngineShardMemory {
  uint64_t staged_msgs_peak = 0;   // max messages staged in one send_loop
  uint64_t staged_bytes_peak = 0;  // peak capacity bytes of the staged arena
  uint64_t allocs = 0;             // staged-arena capacity-growth events
};

struct EngineConfig {
  /// Total parallelism including the calling thread; 0 = hardware threads.
  uint32_t threads = 1;
  /// Below this many items a parallel loop runs single-shard (waking workers
  /// costs more than the work). Purely a performance knob: results are
  /// shard-count independent. Tests force 1 to exercise the parallel
  /// machinery on small inputs.
  uint64_t loop_cutoff = 512;
  /// Same cutoff for end_round() delivery, in pending messages per round.
  uint64_t delivery_cutoff = 1024;
};

/// Message sink handed to step callbacks: stages into the running shard's
/// arena, which send_loop hands to the network in shard order.
class MsgSink {
 public:
  explicit MsgSink(MsgArena* arena) : arena_(arena) {}
  void send(const Message& msg) { arena_->push(msg); }
  void send(NodeId src, NodeId dst, uint32_t tag, std::initializer_list<uint64_t> words) {
    send(Message(src, dst, tag, words));
  }

 private:
  MsgArena* arena_;
};

class Engine {
 public:
  /// Attaches to `net`, replacing its inline engine until this one is
  /// destroyed; at most one user engine per network at a time.
  explicit Engine(Network& net, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Network& net() { return net_; }
  uint32_t threads() const { return pool_.threads(); }

  // The loops below are templates over the callable: a single-shard loop
  // (threads == 1, or fewer than loop_cutoff items) calls its body inline,
  // with no type erasure and no allocation. Only a multi-shard loop goes
  // through the pool, which takes one std::function wrapping the whole
  // shard body — one indirect call per shard, never one per item.

  /// Shards ranges(count, ...) and send_loop(count, ...) split [0, count)
  /// into: threads() at or above loop_cutoff items, else 1 (0 items: 1).
  uint32_t shards_for(uint64_t count) const {
    return ShardPlan::make(count, count >= cfg_.loop_cutoff ? threads() : 1).shards;
  }

  /// Shard [0, count) contiguously and call fn(shard, begin, end) per shard.
  /// `fn` runs concurrently across shards; per-shard accumulation indexed by
  /// `shard` (with a final merge in shard order) keeps results
  /// thread-count-free.
  template <class Fn>
  void ranges(uint64_t count, Fn&& fn) {
    if (count == 0) return;
    const ShardPlan plan = ShardPlan::make(count, shards_for(count));
    if (plan.shards == 1) {
      fn(uint32_t{0}, uint64_t{0}, count);
      return;
    }
    pool_.run(plan.shards, [&](uint64_t s) {
      fn(static_cast<uint32_t>(s), plan.begin(static_cast<uint32_t>(s)),
         plan.end(static_cast<uint32_t>(s)));
    });
  }

  /// Plain parallel loop over [0, count); fn(i) may only touch item-i state.
  template <class Fn>
  void for_each(uint64_t count, Fn&& fn) {
    ranges(count, [&fn](uint32_t, uint64_t b, uint64_t e) {
      for (uint64_t i = b; i < e; ++i) fn(i);
    });
  }

  /// Parallel step loop with staged sends: step(i, sink) runs shard-parallel,
  /// sinks stage into per-shard arenas (acquired from the network's pool, so
  /// capacity is reused across rounds), and the arenas are handed over
  /// zero-copy in shard order before returning — the send order equals the
  /// sequential loop's. The round stays open; the caller ends it with
  /// net().end_round().
  template <class Step>
  void send_loop(uint64_t count, Step&& step) {
    if (count == 0) return;
    const uint32_t shards = shards_for(count);
    // Arenas come from the network's pool (caller thread, before the
    // parallel region), so steady-state staging allocates nothing.
    for (uint32_t s = 0; s < shards; ++s) arenas_[s] = net_.acquire_arena();
    uint64_t t = 0;  // end of a single shard's staging
    ranges(count, [&](uint32_t s, uint64_t b, uint64_t e) {
      const uint64_t t0 = now_ns();
      MsgSink sink(&arenas_[s]);
      for (uint64_t i = b; i < e; ++i) step(i, sink);
      const uint64_t t1 = now_ns();
      staged(s, t1 - t0);
      if (shards == 1) t = t1;
    });
    // Merge timestamps chain: each shard's merge ends where the next begins
    // (a single shard's begins where its staging ended).
    if (shards > 1) t = now_ns();
    for (uint32_t s = 0; s < shards; ++s) t = merge(s, t);
  }

  /// end_round() delivery: run fn(0..tasks-1) on the pool, timing each task
  /// into its shard's deliver_ns. A single task runs inline.
  template <class Fn>
  void run_delivery(uint32_t tasks, Fn&& fn) {
    auto timed = [&](uint64_t t) {
      const uint64_t t0 = now_ns();
      fn(static_cast<uint32_t>(t));
      EngineShardTiming& tm = timing_[t];
      tm.deliver_ns += now_ns() - t0;
      ++tm.deliveries;
    };
    if (tasks == 1) {
      timed(0);
      return;
    }
    pool_.run(tasks, timed);
  }
  /// Rounds with fewer pending messages than this deliver single-shard.
  uint64_t delivery_cutoff() const { return cfg_.delivery_cutoff; }

  /// Per-shard wall-clock profile (one entry per pool thread). Each shard's
  /// stage/deliver slots are only ever written by the worker running that
  /// shard, so reading between rounds is race-free.
  const std::vector<EngineShardTiming>& shard_timing() const { return timing_; }
  /// Per-shard staged-buffer memory profile; same write discipline (each
  /// slot only written by the worker running that shard).
  const std::vector<EngineShardMemory>& shard_memory() const { return memory_; }
  /// Clears both the timing and the memory profiles.
  void reset_timing();

 private:
  /// Monotonic nanoseconds for the observational timing profile.
  static uint64_t now_ns();
  /// Closes shard s's staging: stage time and staged-arena memory profile.
  void staged(uint32_t s, uint64_t stage_ns);
  /// Hands shard s's staged arena to the network (send_loop's merge step)
  /// and charges it the time since `t0`; returns the end timestamp.
  uint64_t merge(uint32_t s, uint64_t t0);

  Network& net_;
  EngineConfig cfg_;
  ThreadPool pool_;
  std::vector<MsgArena> arenas_;           // one staged arena per shard
  std::vector<EngineShardTiming> timing_;  // one profile per shard
  std::vector<EngineShardMemory> memory_;  // one memory profile per shard
};

}  // namespace ncc
