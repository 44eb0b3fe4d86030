// Memory accounting: the fourth layer of the observability subsystem.
//
// A MemoryMonitor subscribes to the Network's round-hook stream and folds the
// run's memory story into two strictly separated halves:
//  * the *deterministic* half — per-round live message bytes (messages sent
//    that round x sizeof(Message)), recorded as a capped series plus a peak.
//    Message counts are part of the engine determinism contract, so this
//    series is bit-identical at threads=1 vs threads=T and safe to embed in
//    determinism-compared bytes (it feeds the Perfetto memory counter track);
//  * the *observational* half — capacity footprints and allocation counts of
//    the Network's hot containers (NetMemStats) and of the engine's per-shard
//    staged buffers (EngineShardMemory). These depend on the shard layout and
//    buffer-reuse history, so — like wall-clock — they may only be emitted
//    behind the memory flag (`ncc_run --memory`), never into the byte streams
//    the determinism ctests compare. write_json() emits exactly this half and
//    is therefore flag-gated by its callers.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace ncc::obs {

class MemoryMonitor {
 public:
  /// Subscribes to `net`'s round stream; unsubscribes on destruction. The
  /// cap bounds the live-bytes series length (truncation flagged, never
  /// silent).
  explicit MemoryMonitor(Network& net, size_t max_rounds = 512);
  ~MemoryMonitor();

  MemoryMonitor(const MemoryMonitor&) = delete;
  MemoryMonitor& operator=(const MemoryMonitor&) = delete;

  /// Deterministic: max bytes of messages in flight in any one round.
  uint64_t peak_live_bytes() const { return peak_live_bytes_; }
  /// Deterministic per-round live-bytes series (capped at max_rounds).
  const std::vector<uint64_t>& live_bytes_series() const { return series_; }
  bool series_truncated() const { return truncated_; }

  /// Observational: network allocs + engine staged-buffer allocs so far.
  uint64_t total_allocs() const;
  /// Observational: peak capacity bytes of the network's hot containers, the
  /// number bench rows report as `peak_bytes`. The engine stages into arenas
  /// from the network's pool, so staged buffers are already part of it.
  uint64_t peak_container_bytes() const;

  /// Emit the observational `memory` section: NetMemStats, per-shard staged
  /// profiles, and the deterministic live-bytes summary for context. Callers
  /// must gate this behind the memory flag (capacities and alloc counts are
  /// not thread-count invariant).
  void write_json(JsonWriter& w) const;

 private:
  Network& net_;
  Network::HookId round_id_ = 0;
  size_t max_rounds_;
  uint64_t last_sent_ = 0;
  uint64_t peak_live_bytes_ = 0;
  std::vector<uint64_t> series_;
  bool truncated_ = false;
};

}  // namespace ncc::obs
