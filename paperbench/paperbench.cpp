// paperbench: the repository's end-to-end benchmark of the paper's
// algorithms on the NCC simulator, driven only through libncc's public API.
//
//   paperbench --workload table1_gnm|mst_gnm|hotkey_cdn --seed N
//              --seconds S --trace 0|1 [--size full|tiny]
//
// Every input (graphs, weights, BFS source, request stream, network and
// shared-randomness seeds) is generated here from --seed. One *pass* runs a
// workload once on fresh state (Network + Engine + Shared [+ cache]) at a
// fixed engine thread count and verifies every output against the
// sequential baselines. All three workloads are closed loops: the next call
// into the library is issued when the previous one returns.
//
// --trace 0 (end-to-end run): several set-ups for setup_s, one t4 pass (for
//   the t1/t4 identity check), then t1 passes until --seconds is used up;
//   medians over the passes. Nothing is traced.
// --trace 1 (per-layer run): untraced t1, traced t1, untraced t1 (the
//   overhead baseline) and traced t4 passes. A traced pass attaches an
//   obs::Tracer, a round hook that timestamps every simulated round, and a
//   delivery hook that audits payload sizes; each round's host interval is
//   charged to the innermost span open when the round closed, which gives
//   every span name a self time.
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Any failed check
// makes the exit code 1; bad arguments exit with 2. METRICS.md maps every
// metric to its layer, the end-to-end metric it moves, and the workload.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "baselines/sequential.hpp"
#include "core/bfs.hpp"
#include "core/broadcast_trees.hpp"
#include "core/coloring.hpp"
#include "core/matching.hpp"
#include "core/mis.hpp"
#include "core/mst.hpp"
#include "core/orientation_algo.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "net/network.hpp"
#include "obs/tracer.hpp"
#include "overlay/cache.hpp"
#include "primitives/context.hpp"
#include "primitives/multicast.hpp"
#include "scenario/traffic.hpp"

#ifndef PAPERBENCH_BUILD_TYPE
#define PAPERBENCH_BUILD_TYPE "unknown"
#endif

using namespace ncc;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

constexpr uint32_t kT4 = 4;  // the multi-threaded pass

struct Opts {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // self-test sizes
};

// ---------------------------------------------------------------------------
// Statistics helpers.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// FNV-1a over 64-bit words: the output fingerprint the t1/t4 identity
/// check compares.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_stats(const NetStats& s) {
    for (uint64_t x : {s.rounds, s.charged_rounds, s.messages_sent, s.messages_dropped,
                       s.fault_drops, s.corrupted, uint64_t{s.max_send_load},
                       uint64_t{s.max_recv_load}, s.send_violations})
      add(x);
  }
};

/// Correctness gate: every check counts as attempted, every miss as failed.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void expect(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "paperbench: check failed: %s\n", what);
    }
  }
  void add(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// ---------------------------------------------------------------------------
// Tracing probe: span self times, round intervals, and the payload audit.

class Probe {
 public:
  explicit Probe(Network& net) : net_(net), tracer_(net, size_t{1} << 22) {
    round_id_ = net_.add_round_hook([this](uint64_t round, const NetStats&) {
      uint64_t t = now_ns();
      if (round >= interval_ns_.size()) interval_ns_.resize(round + 1, 0);
      interval_ns_[round] = t - std::max(last_end_ns_, call_start_ns_);
      last_end_ns_ = t;
    });
    delivery_id_ = net_.add_delivery_hook([this](const Message& m, uint64_t) {
      uint32_t bits = 0;
      for (uint8_t i = 0; i < m.nwords; ++i)
        bits += static_cast<uint32_t>(std::bit_width(m.words[i]));
      max_payload_bits_ = std::max(max_payload_bits_, bits);
    });
  }
  ~Probe() {
    net_.remove_round_hook(round_id_);
    net_.remove_delivery_hook(delivery_id_);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Marks the start of a timed call: the first round of the call is charged
  /// from here, not from the previous call's last round.
  void begin_call() { call_start_ns_ = now_ns(); }

  struct SpanTotals {
    double self_ms = 0;
    uint64_t rounds = 0;    // rounds closed while this span was innermost
    uint64_t messages = 0;  // messages sent outside any child span
    uint64_t calls = 0;
  };
  struct Summary {
    std::map<std::string, SpanTotals> by_name;
    double unspanned_ms = 0;   // rounds closed with no span open
    double in_rounds_ms = 0;   // sum of all round intervals
    std::vector<double> round_us;
    uint32_t max_payload_bits = 0;
    bool truncated = false;
  };

  Summary summarize() const {
    Summary s;
    s.truncated = tracer_.truncated();
    s.max_payload_bits = max_payload_bits_;
    const std::vector<obs::SpanRecord>& spans = tracer_.spans();
    // Spans come in begin order and nest, so a later span overwriting a
    // round's owner is a deeper one: the final owner is the innermost span.
    std::vector<int64_t> owner(interval_ns_.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i)
      for (uint64_t r = spans[i].begin_round;
           r < spans[i].end_round && r < owner.size(); ++r)
        owner[r] = static_cast<int64_t>(i);
    std::vector<uint64_t> child_msgs(spans.size(), 0);
    for (const obs::SpanRecord& sp : spans)
      if (sp.parent >= 0) child_msgs[static_cast<size_t>(sp.parent)] += sp.messages;
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = s.by_name[spans[i].name];
      ++t.calls;
      t.messages += spans[i].messages - child_msgs[i];
    }
    s.round_us.reserve(interval_ns_.size());
    for (size_t r = 0; r < interval_ns_.size(); ++r) {
      double ms = static_cast<double>(interval_ns_[r]) / 1e6;
      s.in_rounds_ms += ms;
      s.round_us.push_back(ms * 1e3);
      if (owner[r] < 0) {
        s.unspanned_ms += ms;
      } else {
        SpanTotals& t = s.by_name[spans[static_cast<size_t>(owner[r])].name];
        t.self_ms += ms;
        ++t.rounds;
      }
    }
    return s;
  }

 private:
  Network& net_;
  obs::Tracer tracer_;
  Network::HookId round_id_ = 0;
  Network::HookId delivery_id_ = 0;
  std::vector<uint64_t> interval_ns_;  // host ns charged to each round index
  uint64_t last_end_ns_ = 0;
  uint64_t call_start_ns_ = 0;
  uint32_t max_payload_bits_ = 0;
};

// ---------------------------------------------------------------------------
// One pass of a workload.

struct CallTotals {
  double s = 0;
  uint64_t rounds = 0;
  uint64_t messages = 0;
};

struct Pass {
  uint32_t threads = 1;
  double setup_s = 0;   // input generation + Network/Engine/Shared/cache
  double gen_s = 0;     // input generation alone
  double wall_s = 0;    // host seconds inside calls into the library
  double verify_s = 0;  // output checks (outside wall_s)
  NetStats stats;
  NodeId n = 0;
  uint32_t cap = 1;
  uint64_t digest = 0;
  Checks checks;
  std::map<std::string, CallTotals> calls;  // by layer metric prefix
  std::vector<double> wave_ms;              // per closed-loop operation
  double stage_ms = 0, merge_ms = 0, deliver_ms = 0;
  double deliver_imbalance = 0;  // max / mean per-shard deliver time
  uint64_t routed = 0, combines = 0, cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::optional<Probe::Summary> trace;
};

/// Times one call into the library and books it under `name`.
template <class F>
double timed_call(Pass& p, Network& net, Probe* probe, const std::string& name, F&& f) {
  NetStats before = net.stats();
  if (probe) probe->begin_call();
  Clock::time_point t0 = Clock::now();
  f();
  double s = secs_since(t0);
  CallTotals& c = p.calls[name];
  c.s += s;
  c.rounds += net.stats().total_rounds() - before.total_rounds();
  c.messages += net.stats().messages_sent - before.messages_sent;
  p.wall_s += s;
  return s;
}

NetConfig net_config(NodeId n, uint64_t seed, uint32_t capacity_factor = 8) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.capacity_factor = capacity_factor;
  return cfg;
}

// Each workload: `generate` makes the inputs from the seed; the constructor
// builds Network/Engine/Shared[/cache] around them; `work` makes the timed
// calls; `verify` checks the outputs and folds them into the digest.

// --- table1_gnm: the Section 5 pipeline on one connected gnm graph ---------

struct Table1 {
  using Inputs = Graph;
  Graph g;
  NodeId source;
  Network net;
  Engine engine;
  Shared shared;
  std::optional<OrientationRunResult> orient;
  std::optional<BroadcastTrees> bt;
  BfsResult bfs;
  MisResult mis;
  MatchingResult matching;
  ColoringResult coloring;

  static Graph generate(const Opts& o) {
    NodeId n = o.tiny ? 256 : 1024;
    Rng rng(mix64(o.seed ^ 0x7ab1e1));
    return connectify(gnm_graph(n, 8ull * n, rng), rng);
  }

  Table1(const Opts& o, uint32_t threads, Graph in)
      : g(std::move(in)),
        source(static_cast<NodeId>(mix64(o.seed ^ 0x50u) % g.n())),
        net(net_config(g.n(), mix64(o.seed ^ 0x7e7))),
        engine(net, EngineConfig{threads}),
        shared(g.n(), mix64(o.seed ^ 0x5a7ed)) {}

  void work(Pass& p, Probe* probe) {
    timed_call(p, net, probe, "core.orientation",
               [&] { orient.emplace(run_orientation(shared, net, g)); });
    timed_call(p, net, probe, "core.broadcast_trees", [&] {
      bt.emplace(build_broadcast_trees(shared, net, g, orient->orientation, 11));
    });
    timed_call(p, net, probe, "core.bfs",
               [&] { bfs = run_bfs(shared, net, g, *bt, source, 13); });
    timed_call(p, net, probe, "core.mis", [&] { mis = run_mis(shared, net, g, *bt, 17); });
    timed_call(p, net, probe, "core.matching",
               [&] { matching = run_matching(shared, net, g, *bt, 19); });
    timed_call(p, net, probe, "core.coloring",
               [&] { coloring = run_coloring(shared, net, g, *orient, {}, 23); });
    p.wave_ms.push_back(p.wall_s * 1e3);
  }

  void verify(Checks& c, Digest& d) {
    c.expect(is_valid_k_orientation(orient->orientation, orient->d_star),
             "orientation incomplete or out-degree above d*");
    std::vector<uint32_t> dist = bfs_distances(g, source);
    bool parents_ok = true;
    for (NodeId u = 0; u < g.n(); ++u) {
      if (u == source || dist[u] == kUnreachable) continue;
      NodeId par = bfs.parent[u];
      parents_ok = parents_ok && par < g.n() && g.has_edge(u, par) && dist[par] + 1 == dist[u];
    }
    c.expect(bfs.dist == dist, "bfs distances differ from bfs_distances");
    c.expect(parents_ok, "bfs parent is not a shortest-path predecessor");
    c.expect(is_maximal_independent_set(g, mis.in_mis), "mis is not a maximal independent set");
    c.expect(is_maximal_matching(g, matching.mate), "matching is not maximal");
    c.expect(is_proper_coloring(g, coloring.color), "coloring is not proper");
    for (NodeId u = 0; u < g.n(); ++u) {
      d.add(orient->orientation.outdegree(u));
      d.add(bfs.dist[u]);
      d.add(bfs.parent[u]);
      d.add(mis.in_mis[u]);
      d.add(matching.mate[u]);
      d.add(coloring.color[u]);
    }
  }
};

// --- mst_gnm: run_mst on independent weighted gnm graphs -------------------

struct Mst {
  using Inputs = std::vector<Graph>;
  std::vector<Graph> graphs;
  Network net;
  Engine engine;
  Shared shared;
  std::vector<MstResult> msts;

  static NodeId n_of(const Opts& o) { return o.tiny ? 64 : 128; }

  /// One MST's round count follows its random Boruvka phase count (a
  /// seed-to-seed interquartile range of about a quarter of the median), so
  /// a pass runs 16 independent instances back to back.
  static std::vector<Graph> generate(const Opts& o) {
    Rng rng(mix64(o.seed ^ 0x3579));
    NodeId n = n_of(o);
    std::vector<Graph> gs(o.tiny ? 2 : 16);
    for (Graph& g : gs)
      g = with_random_weights(connectify(gnm_graph(n, 8ull * n, rng), rng), Weight{1} << 16, rng);
    return gs;
  }

  Mst(const Opts& o, uint32_t threads, std::vector<Graph> in)
      : graphs(std::move(in)),
        net(net_config(n_of(o), mix64(o.seed ^ 0x3e7))),
        engine(net, EngineConfig{threads}),
        shared(n_of(o), mix64(o.seed ^ 0x35a)) {}

  void work(Pass& p, Probe* probe) {
    for (size_t i = 0; i < graphs.size(); ++i)
      timed_call(p, net, probe, "core.mst",
                 [&] { msts.push_back(run_mst(shared, net, graphs[i], {}, 29 + i)); });
    p.wave_ms.push_back(p.wall_s * 1e3);
  }

  void verify(Checks& c, Digest& d) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      const MstResult& mst = msts[i];
      c.expect(mst.total_weight == kruskal_msf(graphs[i]).total_weight,
               "mst weight differs from Kruskal");
      c.expect(is_spanning_forest(graphs[i], mst.edges), "mst edges are not a spanning forest");
      d.add(mst.total_weight);
      for (const Edge& e : mst.edges) d.add(edge_id(e.u, e.v));
      for (NodeId k : mst.known_by) d.add(k);
    }
  }
};

// --- hotkey_cdn: cached multicast waves under a Zipf key draw --------------

struct HotkeyWave {
  std::vector<MulticastMembership> members;
  std::vector<MulticastSend> sends;  // one per distinct group of the wave
  uint32_t ell_hat = 1;              // most requests made by one node
};

struct Hotkey {
  using Inputs = std::vector<HotkeyWave>;
  static constexpr uint32_t kHotKeys = 256;
  static constexpr uint64_t kGroupBase = 0x1000;  // group id of hot key 0
  static constexpr uint32_t kCacheSize = 16;
  std::vector<HotkeyWave> waves;
  Network net;
  Engine engine;
  Shared shared;
  CombiningCache cache;
  Digest out;  // received payloads, folded wave by wave

  static NodeId n_of(const Opts& o) { return o.tiny ? 64 : 1024; }

  static std::vector<HotkeyWave> generate(const Opts& o) {
    const NodeId n = n_of(o);
    const uint64_t requests = o.tiny ? 512 : 8192;
    scenario::ZipfSampler zipf(kHotKeys, 1.2);
    Rng rng(mix64(o.seed ^ 0x40719e7));
    std::vector<HotkeyWave> out(o.tiny ? 8 : 50);
    std::vector<uint32_t> per_member(n);
    std::vector<uint8_t> seen(kHotKeys);
    for (HotkeyWave& w : out) {
      std::fill(per_member.begin(), per_member.end(), 0);
      std::fill(seen.begin(), seen.end(), 0);
      w.members.reserve(requests);
      for (uint64_t i = 0; i < requests; ++i) {
        NodeId member = static_cast<NodeId>(rng.next_below(n));
        uint32_t key = zipf.draw(rng);
        uint64_t group = kGroupBase + key;
        w.members.push_back({member, group});
        w.ell_hat = std::max(w.ell_hat, ++per_member[member]);
        if (!seen[key]++)
          w.sends.push_back({group, static_cast<NodeId>(mix64(group ^ o.seed) % n),
                             Val{mix64(group * 0x9e37 ^ o.seed), group}});
      }
    }
    return out;
  }

  Hotkey(const Opts& o, uint32_t threads, std::vector<HotkeyWave> in)
      : waves(std::move(in)),
        net(net_config(n_of(o), mix64(o.seed ^ 0xcd7), 16)),
        engine(net, EngineConfig{threads}),
        shared(n_of(o), mix64(o.seed ^ 0xcd5)),
        cache(shared.topo().node_count(), kCacheSize) {}

  void work(Pass& p, Probe* probe) {
    for (size_t w = 0; w < waves.size(); ++w) {
      const HotkeyWave& wave = waves[w];
      MulticastSetupResult setup;
      MulticastResult res;
      double ms = 1e3 * timed_call(p, net, probe, "prim.setup_multicast_trees", [&] {
                    setup = setup_multicast_trees(shared, net, wave.members, 2 * w + 1, &cache);
                  });
      ms += 1e3 * timed_call(p, net, probe, "prim.run_multicast_multi", [&] {
              res = run_multicast_multi(shared, net, setup.trees, wave.sends, wave.ell_hat,
                                        2 * w + 2, &cache);
            });
      p.wave_ms.push_back(ms);
      for (const RouteStats* r : {&setup.route, &res.route}) {
        p.routed += r->packets_moved;
        p.combines += r->combines;
      }
      Clock::time_point v0 = Clock::now();
      check_wave(wave, res, p.checks);
      p.verify_s += secs_since(v0);
    }
    p.cache_hits = cache.stats().hits;
    p.cache_misses = cache.stats().misses;
    p.cache_evictions = cache.stats().evictions;
  }

  /// Every request must be served its group's payload, cache-served ones
  /// included.
  void check_wave(const HotkeyWave& wave, const MulticastResult& res, Checks& c) {
    std::vector<Val> payload(kHotKeys);
    for (const MulticastSend& s : wave.sends) payload[s.group - kGroupBase] = s.payload;
    uint64_t bad = 0;
    for (const MulticastMembership& m : wave.members) {
      const std::vector<AggPacket>& got = res.received[m.member];
      auto it = std::find_if(got.begin(), got.end(),
                             [&](const AggPacket& a) { return a.group == m.group; });
      bad += it == got.end() || it->val != payload[m.group - kGroupBase];
    }
    c.attempted += wave.members.size();
    c.failed += bad;
    if (bad)
      std::fprintf(stderr, "paperbench: check failed: %llu hot-key requests unserved\n",
                   static_cast<unsigned long long>(bad));
    for (const std::vector<AggPacket>& node : res.received)
      for (const AggPacket& a : node) {
        out.add(a.group);
        out.add(a.val[0]);
        out.add(a.val[1]);
      }
  }

  void verify(Checks&, Digest& d) {
    d.add(out.h);
    d.add(cache.stats().hits);
    d.add(cache.stats().misses);
    d.add(cache.stats().evictions);
  }
};

template <class W>
Pass run_pass(const Opts& o, uint32_t threads, bool traced) {
  Pass p;
  p.threads = threads;
  Clock::time_point t0 = Clock::now();
  typename W::Inputs in = W::generate(o);
  p.gen_s = secs_since(t0);
  W w(o, threads, std::move(in));
  p.setup_s = secs_since(t0);
  std::optional<Probe> probe;
  if (traced) probe.emplace(w.net);
  w.work(p, probe ? &*probe : nullptr);
  if (probe) p.trace = probe->summarize();
  probe.reset();

  Clock::time_point v0 = Clock::now();
  Digest d;
  w.verify(p.checks, d);
  p.stats = w.net.stats();
  p.n = w.net.n();
  p.cap = w.net.cap();
  d.add_stats(p.stats);
  p.digest = d.h;
  p.checks.expect(p.stats.max_send_load <= p.cap, "a node sent more than cap in one round");
  p.checks.expect(p.stats.max_recv_load <= p.cap, "a node was sent more than cap in one round");
  p.verify_s += secs_since(v0);

  std::vector<double> deliver;
  for (const EngineShardTiming& t : w.engine.shard_timing()) {
    p.stage_ms += static_cast<double>(t.stage_ns) / 1e6;
    p.merge_ms += static_cast<double>(t.merge_ns) / 1e6;
    p.deliver_ms += static_cast<double>(t.deliver_ns) / 1e6;
    deliver.push_back(static_cast<double>(t.deliver_ns));
  }
  double mean = 0;
  for (double x : deliver) mean += x / static_cast<double>(deliver.size());
  p.deliver_imbalance =
      mean > 0 ? *std::max_element(deliver.begin(), deliver.end()) / mean : 0.0;
  return p;
}

/// Set-up only: inputs plus Network/Engine/Shared/cache, then torn down.
template <class W>
double setup_only(const Opts& o, uint32_t threads) {
  Clock::time_point t0 = Clock::now();
  W w(o, threads, W::generate(o));
  return secs_since(t0);
}

struct WorkloadFns {
  Pass (*pass)(const Opts&, uint32_t, bool);
  double (*setup)(const Opts&, uint32_t);
};

std::optional<WorkloadFns> workload_fns(const std::string& name) {
  if (name == "table1_gnm") return WorkloadFns{&run_pass<Table1>, &setup_only<Table1>};
  if (name == "mst_gnm") return WorkloadFns{&run_pass<Mst>, &setup_only<Mst>};
  if (name == "hotkey_cdn") return WorkloadFns{&run_pass<Hotkey>, &setup_only<Hotkey>};
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Host fingerprint and calibration.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

uint32_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

volatile uint64_t calib_sink = 0;

/// A fixed single-thread integer loop: host speed drift shows here rather
/// than being blamed on the code under test.
double calibrate_ms() {
  Clock::time_point t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < 20'000'000; ++i) x = mix64(x + i);
  double ms = secs_since(t0) * 1e3;
  calib_sink = x;  // keeps the loop from being optimized away
  return ms;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Output.

struct Metrics {
  std::vector<std::pair<std::string, std::string>> items;  // name -> JSON value
  void add(const std::string& name, double v, const char* unit) {
    char num[32];
    auto res = std::to_chars(num, num + sizeof(num), std::isfinite(v) ? v : 0.0);
    items.emplace_back(name, "{\"value\": " + std::string(num, res.ptr) + ", \"unit\": \"" +
                                 unit + "\"}");
  }
};

void print_result(const Checks& c, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              c.failed == 0 ? "true" : "false", static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed));
  for (size_t i = 0; i < m.items.size(); ++i)
    std::printf("%s\"%s\": %s", i ? ", " : "", m.items[i].first.c_str(),
                m.items[i].second.c_str());
  std::printf("}}\n");
}

void print_pass(const char* label, const Pass& p) {
  std::printf("pass %s threads=%u rounds=%llu messages=%llu digest=%016llx setup_s=%.4f "
              "wall_s=%.4f verify_s=%.4f\n",
              label, p.threads, static_cast<unsigned long long>(p.stats.total_rounds()),
              static_cast<unsigned long long>(p.stats.messages_sent),
              static_cast<unsigned long long>(p.digest), p.setup_s, p.wall_s, p.verify_s);
}

/// t1/t4 (and traced/untraced) passes must agree byte for byte: outputs,
/// NetStats and cache stats all feed the digest.
void expect_identical(Checks& c, const Pass& a, const Pass& b) {
  c.expect(a.digest == b.digest, "passes disagree on outputs, NetStats or cache stats");
  c.expect(a.stats.total_rounds() == b.stats.total_rounds() &&
               a.stats.messages_sent == b.stats.messages_sent,
           "passes disagree on rounds or messages");
}

const char* const kAlgos[] = {"orientation", "broadcast_trees", "bfs", "mis",
                              "matching",    "coloring",        "mst"};
const char* const kPrims[] = {"aggregation",     "aggregate_broadcast",   "sync_barrier",
                              "multicast",       "multicast.setup",       "neighborhood_exchange",
                              "identification"};

void end_to_end(const Opts& o, const WorkloadFns& fns, Checks& checks, Metrics& m) {
  // Set-up alone, alternating thread counts: at least 7 times and half a
  // second, so millisecond-scale set-ups still get a steady median.
  std::vector<double> setup_s, wall_t1, wave_ms;
  Clock::time_point setup0 = Clock::now();
  for (uint32_t i = 0; i < 200 && (i < 7 || secs_since(setup0) < 0.5); ++i)
    setup_s.push_back(fns.setup(o, i % 2 ? kT4 : 1));

  // One t4 pass for the t1/t4 identity check, untimed here: its wall swings
  // with other tenants' load on a shared host (per-layer runs report it).
  // Then t1 passes until the time budget is used up.
  Clock::time_point start = Clock::now();
  Pass t4 = fns.pass(o, kT4, false);
  print_pass("e2e", t4);
  checks.add(t4.checks);
  setup_s.push_back(t4.setup_s);
  for (uint32_t passes = 0; passes < 256; ++passes) {
    Clock::time_point pass0 = Clock::now();
    Pass p = fns.pass(o, 1, false);
    print_pass("e2e", p);
    checks.add(p.checks);
    expect_identical(checks, t4, p);
    setup_s.push_back(p.setup_s);
    wall_t1.push_back(p.wall_s);
    wave_ms.insert(wave_ms.end(), p.wave_ms.begin(), p.wave_ms.end());
    // Another pass if it ends nearer the time budget than stopping now does.
    if (secs_since(start) + secs_since(pass0) / 2 >= o.seconds) break;
  }
  std::printf("samples: setup=%zu t1_passes=%zu waves=%zu\n", setup_s.size(), wall_t1.size(),
              wave_ms.size());
  m.add("setup_s", median(setup_s), "s");
  m.add("wall_s", median(wall_t1), "s");
  m.add("messages", static_cast<double>(t4.stats.messages_sent), "count");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("wave_ms_p50", quantile(wave_ms, 0.5), "ms");
  m.add("wave_ms_p95", quantile(wave_ms, 0.95), "ms");
}

void per_layer(const Opts& o, const WorkloadFns& fns, double calib_ms, Checks& checks,
               Metrics& m) {
  // The first pass warms the allocator and page tables; the overhead ratio
  // compares the traced t1 pass with the untraced one that follows it.
  Pass warm = fns.pass(o, 1, false);
  print_pass("untraced", warm);
  Pass t1 = fns.pass(o, 1, true);
  print_pass("traced", t1);
  Pass plain = fns.pass(o, 1, false);
  print_pass("untraced", plain);
  Pass t4 = fns.pass(o, kT4, true);
  print_pass("traced", t4);
  for (const Pass* p : {&warm, &t1, &plain, &t4}) {
    checks.add(p->checks);
    if (p != &warm) expect_identical(checks, warm, *p);
  }
  checks.expect(!t1.trace->truncated && !t4.trace->truncated, "span cap reached");

  // core: timed from outside around each algorithm call.
  for (const char* a : kAlgos) {
    std::string key = std::string("core.") + a;
    CallTotals c1 = t1.calls.count(key) ? t1.calls.at(key) : CallTotals{};
    CallTotals c4 = t4.calls.count(key) ? t4.calls.at(key) : CallTotals{};
    m.add(key + ".s", c1.s, "s");
    m.add(key + ".s_t4", c4.s, "s");
    m.add(key + ".rounds", static_cast<double>(c1.rounds), "count");
    m.add(key + ".messages", static_cast<double>(c1.messages), "count");
  }

  m.add("wall_s_t4", t4.wall_s, "s");

  // engine: per-shard stage/merge/deliver sums, and the rest of call wall.
  for (const Pass* p : {&t1, &t4}) {
    std::string sfx = p->threads == 1 ? "" : "_t4";
    m.add("engine.stage_ms" + sfx, p->stage_ms, "ms");
    m.add("engine.merge_ms" + sfx, p->merge_ms, "ms");
    m.add("engine.deliver_ms" + sfx, p->deliver_ms, "ms");
    m.add("engine.unattributed_ms" + sfx,
          p->wall_s * 1e3 - p->stage_ms - p->merge_ms - p->deliver_ms, "ms");
  }
  m.add("engine.deliver_imbalance_t4", t4.deliver_imbalance, "ratio");

  // net: round intervals from the round hook, model counters.
  m.add("net.round_us_p50", quantile(t1.trace->round_us, 0.5), "us");
  m.add("net.round_us_p99", quantile(t1.trace->round_us, 0.99), "us");
  m.add("net.round_us_p50_t4", quantile(t4.trace->round_us, 0.5), "us");
  m.add("net.round_us_p99_t4", quantile(t4.trace->round_us, 0.99), "us");
  m.add("rounds", static_cast<double>(t1.stats.total_rounds()), "count");
  double cap = static_cast<double>(t1.cap);
  m.add("net.charged_rounds", static_cast<double>(t1.stats.charged_rounds), "count");
  m.add("net.dropped", static_cast<double>(t1.stats.messages_dropped), "count");
  m.add("net.max_send_load", t1.stats.max_send_load / cap, "ratio");
  m.add("net.max_recv_load", t1.stats.max_recv_load / cap, "ratio");
  m.add("net.max_payload_bits_ratio",
        t1.trace->max_payload_bits / std::log2(static_cast<double>(t1.n)), "ratio");

  // overlay: router spans, routing counters, cache.
  const auto& spans = t1.trace->by_name;
  auto span = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? Probe::SpanTotals{} : it->second;
  };
  Probe::SpanTotals route = span("route.down"), up = span("route.up");
  m.add("overlay.route.self_ms", route.self_ms + up.self_ms, "ms");
  m.add("overlay.route.rounds", static_cast<double>(route.rounds + up.rounds), "count");
  m.add("overlay.route.messages", static_cast<double>(route.messages + up.messages), "count");
  m.add("overlay.routed", static_cast<double>(t1.routed), "count");
  m.add("overlay.combines", static_cast<double>(t1.combines), "count");
  uint64_t lookups = t1.cache_hits + t1.cache_misses;
  m.add("cache.hit_ratio", lookups ? static_cast<double>(t1.cache_hits) / lookups : 0.0,
        "ratio");
  m.add("cache.evictions", static_cast<double>(t1.cache_evictions), "count");

  // primitives: span self times, and the hot-key calls timed from outside.
  double prim_ms = 0;
  for (const char* name : kPrims) {
    Probe::SpanTotals s = span(name);
    prim_ms += s.self_ms;
    std::string key = std::string("prim.") + name;
    m.add(key + ".self_ms", s.self_ms, "ms");
    m.add(key + ".rounds", static_cast<double>(s.rounds), "count");
    m.add(key + ".messages", static_cast<double>(s.messages), "count");
    m.add(key + ".calls", static_cast<double>(s.calls), "count");
  }
  for (const char* name : {"prim.setup_multicast_trees", "prim.run_multicast_multi"}) {
    m.add(std::string(name) + ".s", t1.calls.count(name) ? t1.calls.at(name).s : 0.0, "s");
    m.add(std::string(name) + ".s_t4", t4.calls.count(name) ? t4.calls.at(name).s : 0.0, "s");
  }

  // Attribution of the traced t1 wall: every span's self time falls into the
  // primitive, router or algorithm bucket; the rest is rounds closed outside
  // any span and call time after a call's last round.
  double route_ms = route.self_ms + up.self_ms;
  double algo_ms = 0;
  for (const auto& [name, s] : spans)
    if (name != "route.down" && name != "route.up" &&
        std::find(std::begin(kPrims), std::end(kPrims), name) == std::end(kPrims))
      algo_ms += s.self_ms;
  double span_ms = algo_ms + prim_ms + route_ms;
  double traced_ms = t1.wall_s * 1e3;
  double outside_ms = traced_ms - t1.trace->in_rounds_ms;
  m.add("core.self_ms", algo_ms, "ms");
  m.add("obs.unspanned_ms", t1.trace->unspanned_ms, "ms");
  m.add("obs.outside_rounds_ms", outside_ms, "ms");
  m.add("obs.traced_wall_ms", traced_ms, "ms");
  m.add("obs.trace_overhead_ratio", t1.wall_s / plain.wall_s, "ratio");
  std::printf("attribution: spans %.1f ms + unspanned %.1f ms + outside rounds %.1f ms "
              "= %.1f ms of traced wall %.1f ms\n",
              span_ms, t1.trace->unspanned_ms, outside_ms,
              span_ms + t1.trace->unspanned_ms + outside_ms, traced_ms);

  m.add("graph.gen_s", t1.gen_s, "s");
  m.add("verify_s", t1.verify_s, "s");
  m.add("host.calib_ms", calib_ms, "ms");
  m.add("verify_fail_ratio",
        checks.attempted ? static_cast<double>(checks.failed) / checks.attempted : 0.0, "ratio");
}

bool parse(int argc, char** argv, Opts& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      o.trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (k == "--size") {
      o.tiny = v == "tiny";
      if (v != "tiny" && v != "full") return false;
    } else {
      return false;
    }
    if (end && (*end || v.empty() || v[0] == '-')) return false;
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Opts o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: paperbench --workload table1_gnm|mst_gnm|hotkey_cdn --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny]\n");
    return 2;
  }
  std::optional<WorkloadFns> fns = workload_fns(o.workload);
  if (!fns) {
    std::fprintf(stderr, "paperbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  double calib_ms = calibrate_ms();
  std::printf("{\"fingerprint\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}, \"workload\": \"%s\", \"seed\": %llu, "
              "\"size\": \"%s\", \"trace\": %d, \"host.calib_ms\": %.3f}\n",
              usable_cpus(), cpu_model().c_str(), kCompiler, PAPERBENCH_BUILD_TYPE,
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.tiny ? "tiny" : "full", o.trace ? 1 : 0, calib_ms);

  Checks checks;
  Metrics m;
  if (o.trace)
    per_layer(o, *fns, calib_ms, checks, m);
  else
    end_to_end(o, *fns, checks, m);
  std::fflush(stdout);
  print_result(checks, m);
  return checks.failed == 0 ? 0 : 1;
}
