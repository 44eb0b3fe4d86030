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
#pragma once

#include <cstdint>
#include <functional>
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

  /// Run fn(0..shards-1) on the pool (shards <= threads()).
  void run_shards(uint32_t shards, const std::function<void(uint32_t)>& fn);

  /// Shard [0, count) contiguously and hand each shard its range. `fn` runs
  /// concurrently across shards; per-shard accumulation indexed by `shard`
  /// (with a final merge in shard order) keeps results thread-count-free.
  void ranges(uint64_t count,
              const std::function<void(uint32_t shard, uint64_t begin, uint64_t end)>& fn);

  /// Plain parallel loop over [0, count); fn(i) may only touch item-i state.
  void for_each(uint64_t count, const std::function<void(uint64_t)>& fn);

  /// Parallel step loop with staged sends: step(i, sink) runs shard-parallel,
  /// sinks stage into per-shard arenas (acquired from the network's pool, so
  /// capacity is reused across rounds), and the arenas are handed over
  /// zero-copy in shard order before returning — the send order equals the
  /// sequential loop's. The round stays open; the caller ends it with
  /// net().end_round().
  void send_loop(uint64_t count, const std::function<void(uint64_t, MsgSink&)>& step);

  /// end_round() delivery: run fn(0..tasks-1) on the pool, timing each task
  /// into its shard's deliver_ns. Rounds with fewer than delivery_cutoff()
  /// pending messages deliver single-shard.
  void run_delivery(uint32_t tasks, const std::function<void(uint32_t)>& fn);
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
  Network& net_;
  EngineConfig cfg_;
  ThreadPool pool_;
  std::vector<MsgArena> arenas_;           // one staged arena per shard
  std::vector<EngineShardTiming> timing_;  // one profile per shard
  std::vector<EngineShardMemory> memory_;  // one memory profile per shard
};

}  // namespace ncc
