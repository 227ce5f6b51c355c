// E14 -- google-benchmark microbenchmarks of the simulator substrate:
// protocol throughput (awake node-rounds per second), event-skipping
// cost, and end-to-end engine runtimes. These bound the experiment
// harness's own cost, and document that simulation effort tracks awake
// work (Lemma 8's O(n)), not the Theta(n^3) virtual clock.
#include <benchmark/benchmark.h>

#include "algos/greedy.h"
#include "algos/luby.h"
#include "core/fast_sleeping_mis.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
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

}  // namespace

BENCHMARK_MAIN();
