// Driver of the repository benchmark: runs one workload for a fixed
// time and prints one JSON record per measured round on stdout
// (perfbench/run.py turns them into the benchmark's result line).
//
//   perfbench_driver --workload NAME --seed S --seconds T --trace 0|1
//                    --out DIR [--tiny] [--corrupt]
//
// A round is the workload's unit of work on the workload seed, timed
// from the first generator call to the last verified MIS. Rounds repeat
// until T seconds have passed, always on the same seed, so their output
// digests and exact counts must agree. With
// --trace 1 rounds alternate untraced / traced; a traced round runs
// under an obs::Session that writes DIR/round-<i>.jsonl, with "bench"
// spans placed here around every library call. A traced run also
// times Graph::from_csr on a copy of the workload's CSR, outside every
// round, and resets VmHWM around run_bulk to measure its heap growth.
//
// The library is driven only through its public entry points:
// gen::gnp_avg_degree_sharded_csr and Graph::from_csr (graph),
// bulk::run_bulk (bulk), analysis::check_mis and
// analysis::parallel_trials (analysis), fault::repair_mis and
// fault::check_alive_mis (fault). --tiny shrinks every workload for the
// self-test; --corrupt flips one output before verification, so the
// self-test can show that a wrong MIS is reported as a failure.
//
// Exit code: 0 when every trial verified, 1 when any failed, 2 on a
// usage error.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/parallel.h"
#include "analysis/verify.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "sim/network.h"
#include "util/alloc.h"
#include "util/parse.h"
#include "util/thread_pool.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace slumber;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr double kAvgDegree = 8.0;

struct Workload {
  const char* name;
  /// Digest-store key: workloads that must produce identical outputs
  /// for one seed share it.
  const char* family;
  VertexId n;
  VertexId tiny_n;
  /// Lanes for generation and for the bulk run (1 = no pool).
  unsigned lanes;
  /// Sweep workloads only: seeds per round, spread over trial_lanes.
  std::size_t seeds;
  std::size_t tiny_seeds;
  unsigned trial_lanes;
  bool sweep;
  bool faults;
  bool node_metrics;
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr std::array<Workload, 3> kWorkloads = {{
    {.name = "gnp8-4m-4lane", .family = "gnp8-4m", .n = 4'000'000,
     .tiny_n = 16'384, .lanes = 4, .seeds = 1, .tiny_seeds = 1,
     .trial_lanes = 1, .sweep = false, .faults = false,
     .node_metrics = false},
    {.name = "table1-64k-sweep", .family = "table1-64k", .n = 65'536,
     .tiny_n = 2'048, .lanes = 1, .seeds = 16, .tiny_seeds = 8,
     .trial_lanes = 4, .sweep = true, .faults = false,
     .node_metrics = true},
    {.name = "faults-128k-sweep", .family = "faults-128k", .n = 131'072,
     .tiny_n = 4'096, .lanes = 1, .seeds = 16, .tiny_seeds = 4,
     .trial_lanes = 4, .sweep = true, .faults = true,
     .node_metrics = false},
}};

/// bench_fault_scaling's scenario values, composed: memoryless loss,
/// Gilbert-Elliott burst loss, crashes with recovery, and live churn.
fault::FaultPlan composed_faults() {
  fault::FaultPlan plan;
  plan.loss_prob = 0.01;
  plan.burst = {.p_on = 0.02, .p_off = 0.2, .epoch_len = 8};
  plan.crash_prob = 1e-6;
  plan.recover.mean_down = 16;
  plan.live_churn = {.leave_prob = 1e-5, .join_prob = 0.2};
  return plan;
}

// The four bulk Table-1 engines of the sweep, in report order.
constexpr std::array<const char*, 4> kSweepEngines = {"sleeping", "luby-a",
                                                      "luby-b", "greedy"};

std::unique_ptr<bulk::BulkProtocol> sweep_protocol(std::size_t engine) {
  switch (engine) {
    case 0:
      return std::make_unique<bulk::BulkSleepingMis>();
    case 1:
      return std::make_unique<bulk::BulkLubyA>();
    case 2:
      return std::make_unique<bulk::BulkLubyB>();
    default:
      return std::make_unique<bulk::BulkGreedy>();
  }
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive running hash over 64-bit words.
struct Digest {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  void add(std::uint64_t x) { h = mix64(h ^ x); }
};

void digest_graph(const Graph& g, Digest& d) {
  d.add(g.num_vertices());
  d.add(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) d.add(u);
    d.add(~std::uint64_t{0});
  }
}

void digest_outputs(const std::vector<std::int64_t>& outputs, Digest& d) {
  for (const std::int64_t out : outputs) {
    d.add(static_cast<std::uint64_t>(out));
  }
}

/// Exact counts of one round; they must repeat for a seed.
struct Counts {
  std::uint64_t edges = 0;
  std::uint64_t awake_node_rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t mis_size = 0;
  std::uint64_t lost_messages = 0;
  std::uint64_t live_leaves = 0;
  std::uint64_t recovered_nodes = 0;
  std::uint64_t repair_rounds = 0;

  void add_run(const sim::Metrics& m) {
    awake_node_rounds += m.total_awake_node_rounds;
    messages += m.total_messages;
    lost_messages += m.injected_losses;
    live_leaves += m.live_leaves;
    recovered_nodes += m.recovered_nodes;
  }
  void add(const Counts& o) {
    edges += o.edges;
    awake_node_rounds += o.awake_node_rounds;
    messages += o.messages;
    mis_size += o.mis_size;
    lost_messages += o.lost_messages;
    live_leaves += o.live_leaves;
    recovered_nodes += o.recovered_nodes;
    repair_rounds += o.repair_rounds;
  }
};

std::uint64_t mis_size(const std::vector<std::int64_t>& outputs) {
  return static_cast<std::uint64_t>(
      std::count(outputs.begin(), outputs.end(), std::int64_t{1}));
}

/// Makes a valid MIS invalid: the node's membership flips, so either
/// two MIS nodes become adjacent or a node loses its dominator.
void corrupt_output(std::vector<std::int64_t>& outputs,
                    const std::vector<std::uint8_t>& alive) {
  for (std::size_t v = 0; v < outputs.size(); ++v) {
    if (!alive.empty() && alive[v] == 0) continue;
    outputs[v] = outputs[v] == 1 ? 0 : 1;
    return;
  }
}

/// One round's measurements.
struct Round {
  double wall_s = 0;
  double setup_s = 0;  // graph builds, summed
  double solve_s = 0;  // protocol runs plus post-run repair, summed
  double trial_busy_s = 0;  // per-trial layer time, summed over trials
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  double awake_sum = 0;  // SleepingMIS node-averaged awake, summed
  std::uint64_t awake_runs = 0;
  Counts counts;
  std::uint64_t digest = 0;
  std::uint64_t hwm_growth_kb = 0;
};

/// VmHWM bookkeeping. Resetting the high-water mark (clear_refs 5)
/// lets a traced round measure the peak growth of one call; the
/// process peak seen before every reset is kept, so peak() stays the
/// true process peak.
class PeakRss {
 public:
  /// Resets VmHWM to the current RSS; returns the new mark in kB.
  std::uint64_t reset() {
    seen_kb_ = std::max(seen_kb_, obs::peak_rss_kb());
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    reset_ok_ = reset_ok_ && !clear.fail();
    return obs::peak_rss_kb();
  }
  std::uint64_t peak() const {
    return std::max(seen_kb_, obs::peak_rss_kb());
  }
  bool reset_ok() const { return reset_ok_; }

 private:
  std::uint64_t seen_kb_ = 0;
  bool reset_ok_ = true;
};

PeakRss g_peak;

/// Returns the heap memory earlier rounds freed to the OS, so every
/// round (and every VmHWM growth) starts from the state of a fresh
/// process instead of from whatever the allocator kept.
void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

bulk::BulkOptions run_options(const Workload& w, VertexId n,
                              util::ThreadPool* pool,
                              const fault::FaultPlan* plan) {
  bulk::BulkOptions options;
  options.max_message_bits = sim::congest_bits_for(n);
  options.pool = pool;
  options.node_metrics = w.node_metrics;
  options.fault = plan;
  return options;
}

/// The nodes neither crashed nor departed at the end of a faulty run.
std::vector<std::uint8_t> final_alive(const bulk::BulkResult& result,
                                      VertexId n) {
  std::vector<std::uint8_t> alive(n, 1);
  for (VertexId v = 0; v < n; ++v) {
    if (!result.crashed.empty() && result.crashed[v] != 0) alive[v] = 0;
    if (!result.departed.empty() && result.departed[v] != 0) alive[v] = 0;
  }
  return alive;
}

/// Copies g's CSR and times Graph::from_csr on the copy.
double time_from_csr(const Graph& g, util::ThreadPool* pool) {
  const VertexId n = g.num_vertices();
  util::PodVector<CsrOffset> offsets;
  offsets.resize(static_cast<std::size_t>(n) + 1);
  util::PodVector<VertexId> adjacency;
  adjacency.resize(2 * g.num_edges());
  std::size_t slot = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets[v] = slot;
    for (const VertexId u : g.neighbors(v)) adjacency[slot++] = u;
  }
  offsets[n] = slot;
  const auto start = Clock::now();
  const Graph copy =
      Graph::from_csr(n, std::move(offsets), std::move(adjacency), pool);
  const double elapsed = seconds_between(start, Clock::now());
  if (copy.num_edges() != g.num_edges()) {
    throw std::runtime_error("from_csr copy lost edges");
  }
  return elapsed;
}

/// Post-round probe of a traced run: from_csr on a CSR copy and the
/// VmHWM growth of one run_bulk call.
struct Probe {
  double from_csr_s = 0;
  std::uint64_t edges = 0;
  std::uint64_t state_kb = 0;
};

struct Config {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
  bool tiny = false;
  bool corrupt = false;
};

/// One trial of a single-trial workload: generate, run SleepingMIS,
/// repair under faults, verify.
Round single_round(const Config& cfg, VertexId n, bool traced,
                   std::uint64_t round_index, Probe* probe) {
  const Workload& w = *cfg.workload;
  std::optional<util::ThreadPool> lanes;
  if (w.lanes > 1) lanes.emplace(w.lanes);
  util::ThreadPool* pool = lanes ? &*lanes : nullptr;
  const fault::FaultPlan plan = composed_faults();
  const fault::FaultPlan* fault_plan = w.faults ? &plan : nullptr;
  bulk::BulkSleepingMis protocol;
  Round r;
  r.trials = 1;
  Graph g;
  bulk::BulkResult result;
  std::vector<std::uint8_t> alive;
  bool ok = false;
  {
    obs::Span round_span("bench", "round", round_index);
    const auto t0 = Clock::now();
    {
      obs::Span span("bench", "graph", n);
      g = gen::gnp_avg_degree_sharded_csr(n, kAvgDegree, cfg.seed,
                                          {.pool = pool});
    }
    const auto t1 = Clock::now();
    const std::uint64_t hwm_before = traced ? g_peak.reset() : 0;
    {
      obs::Span span("bench", "bulk", 0);
      result = bulk::run_bulk(g, cfg.seed, protocol,
                              run_options(w, n, pool, fault_plan));
    }
    if (traced) r.hwm_growth_kb = obs::peak_rss_kb() - hwm_before;
    const auto t2 = Clock::now();
    auto t3 = t2;
    if (w.faults) {
      {
        obs::Span span("bench", "fault_repair", n);
        alive = final_alive(result, n);
        const fault::FaultState state(fault_plan, cfg.seed, n);
        r.counts.repair_rounds = fault::repair_mis(
            g, alive, result.outputs, state.seed(), pool);
      }
      t3 = Clock::now();
      if (cfg.corrupt) corrupt_output(result.outputs, alive);
      obs::Span span("bench", "fault_check", n);
      ok = fault::check_alive_mis(g, alive, result.outputs, pool);
    } else {
      if (cfg.corrupt) corrupt_output(result.outputs, alive);
      obs::Span span("bench", "analysis", n);
      ok = analysis::check_mis(g, result.outputs).ok();
    }
    const auto t4 = Clock::now();
    r.wall_s = seconds_between(t0, t4);
    r.setup_s = seconds_between(t0, t1);
    r.solve_s = seconds_between(t1, t3);
    r.trial_busy_s = r.wall_s;
  }
  if (!ok) {
    r.failed = 1;
    std::cerr << "perfbench: round " << round_index
              << " produced an invalid MIS\n";
  }
  r.awake_sum = static_cast<double>(result.metrics.total_awake_node_rounds) /
                static_cast<double>(n);
  r.awake_runs = 1;
  r.counts.edges = g.num_edges();
  r.counts.add_run(result.metrics);
  r.counts.mis_size = mis_size(result.outputs);
  Digest d;
  digest_graph(g, d);
  digest_outputs(result.outputs, d);
  r.digest = d.h;
  if (probe != nullptr) {
    probe->from_csr_s = time_from_csr(g, pool);
    probe->edges = g.num_edges();
  }
  return r;
}

/// The engines a sweep runs on each seed's graph: SleepingMIS alone
/// under faults, else the four Table-1 engines.
std::size_t sweep_engines(const Workload& w) {
  return w.faults ? 1 : kSweepEngines.size();
}

/// One seed of a sweep: build the graph once, run the sweep's engines
/// serially (under faults: then repair on the final alive subgraph),
/// verify each run.
struct SweepTrial {
  double gen_s = 0;
  double run_s = 0;
  double verify_s = 0;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  double sleeping_awake = 0;
  Counts counts;
  std::uint64_t digest = 0;
};

SweepTrial sweep_trial(const Workload& w, VertexId n, std::uint64_t seed,
                       bool corrupt) {
  SweepTrial t;
  try {
    const auto t0 = Clock::now();
    Graph g;
    {
      obs::Span span("bench", "graph", n);
      g = gen::gnp_avg_degree_sharded_csr(n, kAvgDegree, seed);
    }
    t.gen_s = seconds_between(t0, Clock::now());
    t.counts.edges = g.num_edges();
    Digest d;
    digest_graph(g, d);
    const fault::FaultPlan plan = composed_faults();
    const fault::FaultPlan* fault_plan = w.faults ? &plan : nullptr;
    for (std::size_t e = 0; e < sweep_engines(w); ++e) {
      const auto protocol = sweep_protocol(e);
      const auto start = Clock::now();
      bulk::BulkResult result;
      {
        obs::Span span("bench", "bulk", e);
        result = bulk::run_bulk(g, seed, *protocol,
                                run_options(w, n, nullptr, fault_plan));
      }
      std::vector<std::uint8_t> alive;
      if (w.faults) {
        obs::Span span("bench", "fault_repair", n);
        alive = final_alive(result, n);
        const fault::FaultState state(fault_plan, seed, n);
        t.counts.repair_rounds += fault::repair_mis(
            g, alive, result.outputs, state.seed(), nullptr);
      }
      const auto ran = Clock::now();
      if (corrupt && e == 0) corrupt_output(result.outputs, alive);
      bool ok = false;
      if (w.faults) {
        obs::Span span("bench", "fault_check", n);
        ok = fault::check_alive_mis(g, alive, result.outputs, nullptr);
      } else {
        obs::Span span("bench", "analysis", n);
        ok = analysis::check_mis(g, result.outputs).ok();
      }
      t.run_s += seconds_between(start, ran);
      t.verify_s += seconds_between(ran, Clock::now());
      ++t.runs;
      if (!ok) {
        ++t.failed;
        std::cerr << "perfbench: seed " << seed << " engine "
                  << kSweepEngines[e] << " produced an invalid MIS\n";
      }
      if (e == 0) {
        t.sleeping_awake =
            static_cast<double>(result.metrics.total_awake_node_rounds) /
            static_cast<double>(n);
      }
      t.counts.add_run(result.metrics);
      t.counts.mis_size += mis_size(result.outputs);
      digest_outputs(result.outputs, d);
    }
    t.digest = d.h;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: seed " << seed << " threw: " << e.what() << "\n";
    t.runs = sweep_engines(w);
    t.failed = sweep_engines(w);
  }
  return t;
}

std::uint64_t sweep_seed(std::uint64_t seed, std::size_t i) {
  return mix64(seed ^ mix64(i));
}

Round sweep_round(const Config& cfg, VertexId n, std::size_t seeds,
                  std::uint64_t round_index) {
  const Workload& w = *cfg.workload;
  Round r;
  std::vector<SweepTrial> trials;
  {
    obs::Span round_span("bench", "round", round_index);
    const auto t0 = Clock::now();
    trials = analysis::parallel_trials(
        seeds, w.trial_lanes, [&](std::size_t i) {
          return sweep_trial(w, n, sweep_seed(cfg.seed, i),
                             cfg.corrupt && i == 0);
        });
    r.wall_s = seconds_between(t0, Clock::now());
  }
  Digest d;
  for (const SweepTrial& t : trials) {
    r.setup_s += t.gen_s;
    r.solve_s += t.run_s;
    r.trial_busy_s += t.gen_s + t.run_s + t.verify_s;
    r.trials += t.runs;
    r.failed += t.failed;
    r.awake_sum += t.sleeping_awake;
    ++r.awake_runs;
    r.counts.add(t.counts);
    d.add(t.digest);
  }
  r.digest = d.h;
  return r;
}

/// The sweep's probe runs on seed 0's graph, outside every round.
Probe sweep_probe(const Config& cfg, VertexId n) {
  Probe p;
  const Graph g =
      gen::gnp_avg_degree_sharded_csr(n, kAvgDegree, sweep_seed(cfg.seed, 0));
  p.from_csr_s = time_from_csr(g, nullptr);
  p.edges = g.num_edges();
  bulk::BulkSleepingMis protocol;
  const fault::FaultPlan plan = composed_faults();
  release_free_heap();
  const std::uint64_t before = g_peak.reset();
  const bulk::BulkResult result = bulk::run_bulk(
      g, sweep_seed(cfg.seed, 0), protocol,
      run_options(*cfg.workload, n, nullptr,
                  cfg.workload->faults ? &plan : nullptr));
  p.state_kb = obs::peak_rss_kb() - before;
  return p;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string num(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_round(const Round& r, std::uint64_t index, bool traced,
                 const std::string& jsonl) {
  std::ostringstream out;
  out << "{\"type\":\"round\",\"index\":" << index
      << ",\"traced\":" << (traced ? "true" : "false") << ",\"jsonl\":\""
      << jsonl << "\",\"wall_s\":" << num(r.wall_s)
      << ",\"setup_s\":" << num(r.setup_s)
      << ",\"solve_s\":" << num(r.solve_s)
      << ",\"trial_busy_s\":" << num(r.trial_busy_s)
      << ",\"trials\":" << r.trials << ",\"failed\":" << r.failed
      << ",\"node_avg_awake\":"
      << num(r.awake_runs == 0 ? 0.0
                               : r.awake_sum /
                                     static_cast<double>(r.awake_runs))
      << ",\"hwm_growth_kb\":" << r.hwm_growth_kb << ",\"digest\":\""
      << hex(r.digest) << "\",\"counts\":{\"edges\":" << r.counts.edges
      << ",\"awake_node_rounds\":" << r.counts.awake_node_rounds
      << ",\"messages\":" << r.counts.messages
      << ",\"mis_size\":" << r.counts.mis_size
      << ",\"lost_messages\":" << r.counts.lost_messages
      << ",\"live_leaves\":" << r.counts.live_leaves
      << ",\"recovered_nodes\":" << r.counts.recovered_nodes
      << ",\"repair_rounds\":" << r.counts.repair_rounds << "}}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed S "
               "--seconds T --trace 0|1 --out DIR [--tiny] [--corrupt]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

bool parse_args(int argc, char** argv, Config* cfg) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--tiny") {
      cfg->tiny = true;
      continue;
    }
    if (flag == "--corrupt") {
      cfg->corrupt = true;
      continue;
    }
    if (i + 1 >= args.size()) return false;
    const std::string& value = args[++i];
    std::uint64_t parsed = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) cfg->workload = &w;
      }
      if (cfg->workload == nullptr) return false;
    } else if (flag == "--seed") {
      if (!util::parse_uint(value, "--seed", &parsed)) return false;
      cfg->seed = parsed;
    } else if (flag == "--seconds") {
      if (!util::parse_uint(value, "--seconds", &parsed)) return false;
      cfg->seconds = static_cast<double>(parsed);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      cfg->trace = value == "1";
    } else if (flag == "--out") {
      cfg->out_dir = value;
    } else {
      return false;
    }
  }
  return cfg->workload != nullptr && !cfg->out_dir.empty();
}

// Rounds stop once the run has measured for --seconds; a new round is
// not started when it would likely push the run past kMaxRunSeconds.
constexpr double kMaxRunSeconds = 140.0;

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse_args(argc, argv, &cfg)) return usage();
  const Workload& w = *cfg.workload;
  const VertexId n = cfg.tiny ? w.tiny_n : w.n;
  const std::size_t seeds = cfg.tiny ? w.tiny_seeds : w.seeds;
  std::filesystem::create_directories(cfg.out_dir);

  std::uint64_t failed = 0;
  std::uint64_t index = 0;
  double longest = 0;
  Probe probe;
  const auto start = Clock::now();
  const auto run_round = [&](bool traced) {
    const std::string jsonl =
        traced ? cfg.out_dir + "/round-" + std::to_string(index) + ".jsonl"
               : std::string();
    // The first untraced round of a traced run carries the probe.
    Probe* probe_out = cfg.trace && !traced && index == 0 ? &probe : nullptr;
    Round r;
    release_free_heap();
    try {
      obs::Options options;
      options.jsonl_path = jsonl;
      // Declared before the round's pool so the session finalizes after
      // every instrumented lane has gone idle (the obs/obs.h contract).
      obs::Session session(options);
      if (session.active()) {
        session.set_info("tool", "perfbench_driver");
        session.set_info("workload", w.name);
        session.set_info("seed", std::to_string(cfg.seed));
        session.set_info("round", std::to_string(index));
      }
      r = w.sweep ? sweep_round(cfg, n, seeds, index)
                  : single_round(cfg, n, traced, index, probe_out);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: round " << index << " threw: " << e.what()
                << "\n";
      r = Round{};
      r.trials = 1;
      r.failed = 1;
    }
    failed += r.failed;
    longest = std::max(longest, r.wall_s);
    print_round(r, index, traced, jsonl);
    ++index;
  };

  do {
    run_round(false);
    if (cfg.trace) run_round(true);
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= cfg.seconds) break;
    if (elapsed + 2.0 * longest > kMaxRunSeconds) break;
  } while (true);

  if (cfg.trace) {
    try {
      if (w.sweep) probe = sweep_probe(cfg, n);
      std::cout << "{\"type\":\"probe\",\"from_csr_s\":"
                << num(probe.from_csr_s) << ",\"edges\":" << probe.edges
                << ",\"state_kb\":" << probe.state_kb << "}" << std::endl;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: probe threw: " << e.what() << "\n";
      ++failed;
    }
  }

  std::cout << "{\"type\":\"summary\",\"workload\":\"" << w.name
            << "\",\"family\":\"" << w.family << "\",\"n\":" << n
            << ",\"lanes\":" << std::max(w.lanes, w.trial_lanes)
            << ",\"trial_lanes\":" << w.trial_lanes
            << ",\"runs_per_graph\":"
            << (w.sweep ? sweep_engines(w) : std::size_t{1})
            << ",\"peak_rss_kb\":" << g_peak.peak()
            << ",\"hwm_reset\":" << (g_peak.reset_ok() ? "true" : "false")
            << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
#ifdef NDEBUG
            << ",\"ndebug\":true"
#else
            << ",\"ndebug\":false"
#endif
            << ",\"failed\":" << failed << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}
