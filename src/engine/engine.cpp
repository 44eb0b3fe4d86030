#include "engine/engine.hpp"

#include <algorithm>
// det-lint: observational — wall-clock feeds span timestamps on the obs side only
#include <chrono>

namespace ncc {

Engine::Engine(Network& net, EngineConfig cfg)
    : net_(net), cfg_(cfg), pool_(cfg.threads) {
  arenas_.resize(pool_.threads());
  timing_.resize(pool_.threads());
  memory_.resize(pool_.threads());
  net_.attach(this);
}

Engine::~Engine() { net_.detach(); }

uint64_t Engine::now_ns() {
  return static_cast<uint64_t>(
      // det-lint: observational — timestamps land in Perfetto spans, outside the
      // deterministic byte prefix
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // det-lint: observational — same: span timestamps only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Engine::staged(uint32_t s, uint64_t stage_ns) {
  EngineShardTiming& tm = timing_[s];
  tm.stage_ns += stage_ns;
  ++tm.loops;
  EngineShardMemory& mm = memory_[s];
  mm.staged_msgs_peak = std::max<uint64_t>(mm.staged_msgs_peak, arenas_[s].size());
  mm.staged_bytes_peak = std::max<uint64_t>(mm.staged_bytes_peak, arenas_[s].capacity_bytes());
}

// Merge in shard order == global item order: stage_run keeps the strict send
// accounting on the caller thread (a header-only scan) and takes the shard's
// arena zero-copy as the next pending run. Capacity growth during staging is
// drained into the shard's memory profile first, so the network does not
// double count it.
uint64_t Engine::merge(uint32_t s, uint64_t t0) {
  memory_[s].allocs += arenas_[s].take_allocs();
  net_.stage_run(std::move(arenas_[s]));
  const uint64_t t1 = now_ns();
  timing_[s].merge_ns += t1 - t0;
  return t1;
}

void Engine::reset_timing() {
  timing_.assign(pool_.threads(), EngineShardTiming{});
  memory_.assign(pool_.threads(), EngineShardMemory{});
}

}  // namespace ncc
