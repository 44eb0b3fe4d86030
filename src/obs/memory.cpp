#include "obs/memory.hpp"

#include "engine/engine.hpp"

namespace ncc::obs {

MemoryMonitor::MemoryMonitor(Network& net, size_t max_rounds)
    : net_(net), max_rounds_(max_rounds) {
  round_id_ = net_.add_round_hook([this](uint64_t, const NetStats& st) {
    uint64_t sent = st.messages_sent - last_sent_;
    last_sent_ = st.messages_sent;
    uint64_t bytes = sent * sizeof(Message);
    if (bytes > peak_live_bytes_) peak_live_bytes_ = bytes;
    if (series_.size() < max_rounds_) {
      series_.push_back(bytes);
    } else {
      truncated_ = true;
    }
  });
}

MemoryMonitor::~MemoryMonitor() { net_.remove_round_hook(round_id_); }

uint64_t MemoryMonitor::total_allocs() const {
  uint64_t allocs = net_.mem_stats().allocs;
  for (const EngineShardMemory& m : net_.engine().shard_memory()) allocs += m.allocs;
  return allocs;
}

uint64_t MemoryMonitor::peak_container_bytes() const {
  return net_.mem_stats().container_bytes_peak;
}

void MemoryMonitor::write_json(JsonWriter& w) const {
  const NetMemStats& nm = net_.mem_stats();
  w.begin_object();
  w.kv("live_msgs_peak", nm.live_msgs_peak);
  w.kv("live_bytes_peak", nm.live_bytes_peak);
  w.kv("container_bytes_peak", nm.container_bytes_peak);
  w.kv("net_allocs", nm.allocs);
  w.kv("total_allocs", total_allocs());
  w.kv("peak_bytes", peak_container_bytes());
  w.key("staged");
  w.begin_array();
  const std::vector<EngineShardMemory>& staged = net_.engine().shard_memory();
  for (size_t s = 0; s < staged.size(); ++s) {
    w.begin_object();
    w.kv("shard", static_cast<uint64_t>(s));
    w.kv("msgs_peak", staged[s].staged_msgs_peak);
    w.kv("bytes_peak", staged[s].staged_bytes_peak);
    w.kv("allocs", staged[s].allocs);
    w.end_object();
  }
  w.end_array();
  w.kv("series_truncated", truncated_);
  w.end_object();
}

}  // namespace ncc::obs
