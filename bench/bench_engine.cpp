// Engine scaling bench: wall-clock of the sharded round engine across thread
// counts and input sizes on fixed workloads, with a bit-identity check
// against the single-threaded run (the engine's determinism contract).
//
//   ./bench_engine [--quick] [--big] [--threads MAX] [--json PATH]
//
// Workloads: gossip (clique-saturating all-to-all — stresses the parallel
// end_round delivery), and the Section 5 BFS/MIS pipelines on a gnm graph
// (stress the butterfly router's sharded step loop). Sweeps n in {512, 4096}
// so the rows capture how the threading overhead amortizes with input size —
// the evidence the ROADMAP's million-node item asks for. Emits
// BENCH_engine.json rows {bench, n, threads, rounds, wall_ms, messages,
// msgs_per_sec, peak_bytes, allocs, timing}; `timing` (wall-clock split) and
// the memory columns (container capacities / allocation counts) are
// observational only, never part of any determinism-compared bytes — but
// peak_bytes/allocs are reproducible for a fixed (workload, n, threads), so
// bench_compare diffs them exactly.
#include "bench_util.hpp"

#include "core/bfs.hpp"
#include "core/gossip.hpp"
#include "core/mis.hpp"

using namespace ncc;
using namespace ncc::bench;

namespace {

uint64_t fold(uint64_t h, uint64_t x) { return mix64(h ^ x); }

struct RunOut {
  double wall_ms = 0;
  uint64_t rounds = 0;
  uint64_t messages = 0;
  uint64_t checksum = 0;  // folds outputs + NetStats: must match across threads
  // Engine per-stage wall-clock, summed over shards (ms).
  double stage_ms = 0, merge_ms = 0, deliver_ms = 0;
  // Peak container bytes (network + staged buffers) and alloc count.
  uint64_t peak_bytes = 0;
  uint64_t allocs = 0;
};

void fill_profiles(RunOut* out, const Network& net, const Engine& eng) {
  for (const EngineShardTiming& tm : eng.shard_timing()) {
    out->stage_ms += static_cast<double>(tm.stage_ns) / 1e6;
    out->merge_ms += static_cast<double>(tm.merge_ns) / 1e6;
    out->deliver_ms += static_cast<double>(tm.deliver_ns) / 1e6;
  }
  out->peak_bytes = mem_peak_bytes(net);
  out->allocs = mem_allocs(net);
}

/// The JSON tail shared by every row: throughput, the memory columns, and
/// the per-stage wall-clock split.
std::string row_extra(const RunOut& r) {
  char buf[192];
  double secs = std::max(1e-9, r.wall_ms / 1e3);
  std::snprintf(buf, sizeof(buf),
                ", \"msgs_per_sec\": %.0f, \"timing\": {\"stage_ms\": %.3f, "
                "\"merge_ms\": %.3f, \"deliver_ms\": %.3f}",
                static_cast<double>(r.messages) / secs, r.stage_ms, r.merge_ms,
                r.deliver_ms);
  return mem_extra(r.peak_bytes, r.allocs) + buf;
}

uint64_t stats_checksum(const NetStats& st) {
  uint64_t h = 0x5ca1ab1e;
  h = fold(h, st.rounds);
  h = fold(h, st.messages_sent);
  h = fold(h, st.messages_dropped);
  h = fold(h, st.max_send_load);
  h = fold(h, st.max_recv_load);
  return h;
}

RunOut run_gossip_bench(NodeId n, uint32_t threads,
                        uint64_t max_rounds = UINT64_MAX) {
  Network net = make_net(n, 42);
  // Always attach an engine — also at threads=1 — so the per-shard stage
  // profile exists at every sweep point (results are thread-count invariant).
  Engine eng(net, EngineConfig{threads});
  WallTimer t;
  auto res = run_gossip(net, max_rounds);
  RunOut out;
  out.wall_ms = t.ms();
  out.rounds = res.rounds;
  out.messages = net.stats().messages_sent;
  out.checksum = fold(stats_checksum(net.stats()), res.complete ? 1 : 0);
  fill_profiles(&out, net, eng);
  return out;
}

RunOut run_bfs_bench(const Graph& g, uint32_t threads) {
  Pipeline p(g, 7, threads);
  WallTimer t;
  auto res = run_bfs(p.shared, p.net, g, p.bt, 0, 3);
  RunOut out;
  out.wall_ms = t.ms();
  out.rounds = res.rounds + p.setup_rounds();
  out.messages = p.net.stats().messages_sent;
  out.checksum = stats_checksum(p.net.stats());
  for (NodeId u = 0; u < g.n(); ++u) {
    out.checksum = fold(out.checksum, res.dist[u]);
    out.checksum = fold(out.checksum, res.parent[u]);
  }
  fill_profiles(&out, p.net, p.engine);
  return out;
}

RunOut run_mis_bench(const Graph& g, uint32_t threads) {
  Pipeline p(g, 11, threads);
  WallTimer t;
  auto res = run_mis(p.shared, p.net, g, p.bt, 5);
  RunOut out;
  out.wall_ms = t.ms();
  out.rounds = res.rounds + p.setup_rounds();
  out.messages = p.net.stats().messages_sent;
  out.checksum = stats_checksum(p.net.stats());
  for (NodeId u = 0; u < g.n(); ++u)
    out.checksum = fold(out.checksum, res.in_mis[u] ? 1 : 0);
  fill_profiles(&out, p.net, p.engine);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOpts o = parse_opts(argc, argv);
  // Both modes sweep n beyond 512: the threading-overhead story only shows
  // once the per-round work amortizes the wakeups. Quick mode keeps the
  // thread sweep at {1, 2} for CI smoke runs.
  const std::vector<NodeId> sizes{512, 4096};
  uint32_t max_threads = o.threads > 1 ? o.threads : (o.quick ? 2 : 8);

  std::vector<uint32_t> sweep{1};
  for (uint32_t t = 2; t <= max_threads; t *= 2) sweep.push_back(t);

  BenchJson json;
  Table t({"workload", "n", "threads", "rounds", "wall ms", "msgs/sec",
           "peak MB", "allocs", "speedup", "identical"});

  auto sweep_workload = [&](const char* name, NodeId n,
                            const std::vector<uint32_t>& tsweep,
                            const std::function<RunOut(uint32_t)>& run,
                            const std::string& extra_tail) {
    RunOut base;
    for (size_t i = 0; i < tsweep.size(); ++i) {
      RunOut r = run(tsweep[i]);
      if (i == 0) base = r;
      json.add(name, n, tsweep[i], r.rounds, r.wall_ms, r.messages,
               row_extra(r) + extra_tail);
      double secs = std::max(1e-9, r.wall_ms / 1e3);
      t.add_row({name, Table::num(uint64_t{n}), Table::num(uint64_t{tsweep[i]}),
                 Table::num(r.rounds),
                 Table::num(static_cast<uint64_t>(r.wall_ms)),
                 Table::num(static_cast<uint64_t>(
                     static_cast<double>(r.messages) / secs)),
                 Table::num(static_cast<double>(r.peak_bytes) / (1024.0 * 1024.0), 1),
                 Table::num(r.allocs),
                 tsweep[i] == 1 ? "1.00x"
                              : [&] {
                                  char b[32];
                                  std::snprintf(b, sizeof(b), "%.2fx",
                                                base.wall_ms / std::max(0.001, r.wall_ms));
                                  return std::string(b);
                                }(),
                 r.checksum == base.checksum ? "yes" : "NO"});
    }
  };

  for (NodeId n : sizes) {
    Rng rng(9);
    Graph g = gnm_graph(n, 8ull * n, rng);
    std::printf("== engine scaling at n=%u (gnm m=%llu) ==\n", n,
                static_cast<unsigned long long>(g.m()));

    sweep_workload("engine_gossip", n, sweep,
                   [&](uint32_t th) { return run_gossip_bench(n, th); }, "");
    sweep_workload("engine_bfs", n, sweep,
                   [&](uint32_t th) { return run_bfs_bench(g, th); }, "");
    sweep_workload("engine_mis", n, sweep,
                   [&](uint32_t th) { return run_mis_bench(g, th); }, "");
  }

  if (o.big) {
    // Million-node slice: full gossip at n = 2^20 would take n*(n-1) ≈ 1.1e12
    // messages (~6.5k capacity-saturating rounds) — infeasible by construction
    // at any throughput, so the row runs a bounded two-round slice (~335M
    // messages) that exercises the same hot path at full memory scale
    // (recorded `complete: false` by run_gossip). Rows carry "big": true so
    // the perf-gate's regeneration (which never passes --big) skips them
    // instead of failing on the missing row (see obs/bench_diff).
    const NodeId bign = 1u << 20;
    const uint64_t big_rounds = 2;
    std::printf("== million-node slice: gossip at n=%u, %llu rounds ==\n", bign,
                static_cast<unsigned long long>(big_rounds));
    sweep_workload(
        "engine_gossip", bign, {1, 2},
        [&](uint32_t th) { return run_gossip_bench(bign, th, big_rounds); },
        ", \"big\": true");
  }

  t.print();
  std::printf("identical = outputs and NetStats bit-match the threads=1 run\n");
  std::printf("peak MB = peak container capacity (network + staged buffers)\n");
  json.save(o.json.empty() ? "BENCH_engine.json" : o.json);
  return 0;
}
