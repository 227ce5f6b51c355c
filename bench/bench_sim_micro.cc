// E14 -- google-benchmark microbenchmarks of the simulator substrate:
// protocol throughput (awake node-rounds per second), event-skipping
// cost, fault-draw cost (ns per draw), and end-to-end engine runtimes.
// These bound the experiment harness's own cost, and document that
// simulation effort tracks awake work (Lemma 8's O(n)), not the
// Theta(n^3) virtual clock.
#include <benchmark/benchmark.h>

#include "algos/greedy.h"
#include "algos/luby.h"
#include "core/fast_sleeping_mis.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;

Graph make_gnp(VertexId n, std::uint64_t seed) {
  return gen::gnp_avg_degree_sharded_csr(n, 8.0, seed);
}

void BM_SleepingMis(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = make_gnp(n, 1);
  std::uint64_t seed = 0;
  std::uint64_t awake_rounds = 0;
  for (auto _ : state) {
    auto result = sim::run_protocol(g, ++seed, core::sleeping_mis());
    awake_rounds += result.metrics.total_awake_node_rounds;
    benchmark::DoNotOptimize(result.outputs);
  }
  state.counters["awake_node_rounds/s"] = benchmark::Counter(
      static_cast<double>(awake_rounds), benchmark::Counter::kIsRate);
  state.counters["virtual_rounds"] = static_cast<double>(
      core::schedule_duration(core::recursion_depth(n)));
}
BENCHMARK(BM_SleepingMis)->Arg(64)->Arg(256)->Arg(1024);

void BM_FastSleepingMis(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = make_gnp(n, 2);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto result = sim::run_protocol(g, ++seed, core::fast_sleeping_mis());
    benchmark::DoNotOptimize(result.outputs);
  }
}
BENCHMARK(BM_FastSleepingMis)->Arg(64)->Arg(256)->Arg(1024);

void BM_LubyA(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = make_gnp(n, 3);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto result = sim::run_protocol(g, ++seed, algos::luby_a());
    benchmark::DoNotOptimize(result.outputs);
  }
}
BENCHMARK(BM_LubyA)->Arg(64)->Arg(256)->Arg(1024);

void BM_DistributedGreedy(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = make_gnp(n, 4);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto result = sim::run_protocol(g, ++seed, algos::distributed_greedy_mis());
    benchmark::DoNotOptimize(result.outputs);
  }
}
BENCHMARK(BM_DistributedGreedy)->Arg(64)->Arg(256)->Arg(1024);

// Pure event-skipping cost: two nodes exchanging across a huge sleep
// gap -- the per-gap cost must be O(log) map operations, independent of
// the gap length.
void BM_EventSkipping(benchmark::State& state) {
  const Graph g = gen::path(2);
  const auto gap = static_cast<std::uint64_t>(state.range(0));
  auto protocol = [gap](sim::Context& ctx) -> sim::Task {
    for (int i = 0; i < 100; ++i) {
      ctx.sleep(gap);
      co_await ctx.broadcast(sim::Message::hello());
    }
    ctx.decide(1);
  };
  for (auto _ : state) {
    auto result = sim::run_protocol(g, 1, protocol);
    benchmark::DoNotOptimize(result.metrics.makespan);
  }
  state.counters["virtual_rounds"] =
      static_cast<double>((gap + 1) * 100);
}
BENCHMARK(BM_EventSkipping)->Arg(1)->Arg(1000)->Arg(1000000000);

// Graph generation throughput (harness overhead).
void BM_GnpGeneration(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const Graph g = make_gnp(n, ++seed);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GnpGeneration)->Arg(1024)->Arg(8192);

// Fault-draw cost, in ns per draw, under the composed plan of the
// repository benchmark's faults-128k-sweep workload (perfbench/). Rounds
// start deep in the 2^K virtual clock, where SleepingMIS frames run,
// and every neighbor visit of a G(4096, 8/n) graph is one link draw.
constexpr std::uint64_t kFaultFirstRound = std::uint64_t{1} << 40;

fault::FaultPlan bench_fault_plan() {
  fault::FaultPlan plan;
  plan.loss_prob = 0.01;
  plan.burst = {.p_on = 0.02, .p_off = 0.2, .epoch_len = 8};
  plan.crash_prob = 1e-6;
  plan.recover.mean_down = 16;
  plan.live_churn = {.leave_prob = 1e-5, .join_prob = 0.2};
  return plan;
}

void report_time_per_draw(benchmark::State& state, std::uint64_t draws) {
  state.counters["time/draw"] = benchmark::Counter(
      static_cast<double>(draws),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// One FaultState::link_down call per draw: the round's key and burst
// epoch are recomputed every call, as in the coroutine scheduler.
void BM_FaultLinkDown(benchmark::State& state) {
  const Graph g = make_gnp(4096, 5);
  const fault::FaultPlan plan = bench_fault_plan();
  const fault::FaultState fs(&plan, 7, g.num_vertices());
  std::uint64_t round = kFaultFirstRound;
  std::uint64_t draws = 0;
  std::uint64_t down = 0;
  for (auto _ : state) {
    ++round;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId u : g.neighbors(v)) {
        down += fs.link_down(v, u, round, 0) ? 1 : 0;
        ++draws;
      }
    }
    benchmark::DoNotOptimize(down);
  }
  report_time_per_draw(state, draws);
}
BENCHMARK(BM_FaultLinkDown);

// The same draws through one FaultState::LinkView per round, the way
// bulk scans take them.
void BM_FaultLinkView(benchmark::State& state) {
  const Graph g = make_gnp(4096, 5);
  const fault::FaultPlan plan = bench_fault_plan();
  const fault::FaultState fs(&plan, 7, g.num_vertices());
  std::uint64_t round = kFaultFirstRound;
  std::uint64_t draws = 0;
  std::uint64_t down = 0;
  for (auto _ : state) {
    const auto links = fs.links(++round, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId u : g.neighbors(v)) {
        down += links.down(v, u) ? 1 : 0;
        ++draws;
      }
    }
    benchmark::DoNotOptimize(down);
  }
  report_time_per_draw(state, draws);
}
BENCHMARK(BM_FaultLinkView);

// One crashes_now plus one live_leave call per node and round: two
// draws, each recomputing its round key.
void BM_FaultCrashLeave(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const fault::FaultPlan plan = bench_fault_plan();
  const fault::FaultState fs(&plan, 7, n);
  std::uint64_t round = kFaultFirstRound;
  std::uint64_t draws = 0;
  std::uint64_t removed = 0;
  for (auto _ : state) {
    ++round;
    for (VertexId v = 0; v < n; ++v) {
      removed += fs.crashes_now(v, round, 0) ? 1 : 0;
      removed += fs.live_leave(v, round, 0).leaves ? 1 : 0;
      draws += 2;
    }
    benchmark::DoNotOptimize(removed);
  }
  report_time_per_draw(state, draws);
}
BENCHMARK(BM_FaultCrashLeave)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
