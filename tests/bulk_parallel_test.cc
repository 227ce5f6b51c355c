// Bitwise-equivalence matrix for the intra-trial parallel bulk path:
// sharding the per-frame node scans over a thread pool must reproduce
// the serial bulk engine — and therefore the coroutine engine — exactly
// (outputs, per-node + aggregate sim::Metrics, recursion traces) for
// every thread count. The suites run with parallel_cutoff = 1 so even
// tiny recursion frames dispatch through the pool, exercising the
// chunked accounting merge on every scan. These tests are also the
// ThreadSanitizer workload for the parallel bulk path (the tsan CI
// job).
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "metrics_test_util.h"
#include "sim/network.h"
#include "util/alloc.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

using analysis::ExecEngine;
using analysis::MisEngine;

// The acceptance matrix's lane counts; 1 pins the pooled-but-serial
// configuration against the pool-less path.
const unsigned kLaneCounts[] = {1, 2, 3, 8};

bulk::BulkOptions parallel_options(const Graph& g, util::ThreadPool* pool) {
  bulk::BulkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  options.pool = pool;
  options.parallel_cutoff = 1;  // shard even one-node frames
  return options;
}

bulk::BulkResult run_bulk_mis(MisEngine engine, const Graph& g,
                              std::uint64_t seed, util::ThreadPool* pool,
                              core::RecursionTrace* trace = nullptr) {
  auto protocol = bulk::bulk_mis_protocol(engine, trace);
  EXPECT_NE(protocol, nullptr);
  return bulk::run_bulk(g, seed, *protocol, parallel_options(g, pool));
}

// --- the acceptance matrix: thread counts x generators x seeds -------

class BulkParallelCrossValidation
    : public ::testing::TestWithParam<gen::Family> {};

TEST_P(BulkParallelCrossValidation, SleepingMisTenSeedsAllLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = gen::make(GetParam(), 600, seed);
    const auto coro = analysis::run_mis(MisEngine::kSleeping, g, seed);
    const auto serial = run_bulk_mis(MisEngine::kSleeping, g, seed, nullptr);
    EXPECT_EQ(coro.outputs, serial.outputs) << "seed=" << seed;
    ExpectMetricsEqual(coro.metrics, serial.metrics);
    for (const unsigned lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " lanes=" << lanes);
      util::ThreadPool pool(lanes);
      const auto sharded =
          run_bulk_mis(MisEngine::kSleeping, g, seed, &pool);
      EXPECT_EQ(serial.outputs, sharded.outputs);
      EXPECT_TRUE(sharded.virtual_makespan == serial.virtual_makespan);
      ExpectMetricsEqual(serial.metrics, sharded.metrics);
    }
  }
}

TEST_P(BulkParallelCrossValidation, BaselinesAgreeAcrossLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::make(GetParam(), 256, seed);
    for (const MisEngine engine :
         {MisEngine::kLubyA, MisEngine::kLubyB, MisEngine::kGreedy}) {
      SCOPED_TRACE("engine=" + analysis::engine_name(engine) +
                   " seed=" + std::to_string(seed));
      const auto coro = analysis::run_mis(engine, g, seed);
      for (const unsigned lanes : {2u, 8u}) {
        util::ThreadPool pool(lanes);
        const auto sharded = run_bulk_mis(engine, g, seed, &pool);
        EXPECT_EQ(coro.outputs, sharded.outputs) << lanes << " lanes";
        ExpectMetricsEqual(coro.metrics, sharded.metrics);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, BulkParallelCrossValidation,
                         ::testing::Values(gen::Family::kGnpSparse,
                                           gen::Family::kRandomTree,
                                           gen::Family::kUnitDisk,
                                           gen::Family::kStar),
                         [](const auto& param_info) {
                           return gen::family_name(param_info.param);
                         });

// --- recursion traces shard-invariantly ------------------------------

TEST(BulkParallelTrace, RecursionTraceMatchesAtEveryLaneCount) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 7);
  core::RecursionTrace serial_trace;
  const auto serial =
      run_bulk_mis(MisEngine::kSleeping, g, 7, nullptr, &serial_trace);
  for (const unsigned lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    util::ThreadPool pool(lanes);
    core::RecursionTrace trace;
    const auto sharded =
        run_bulk_mis(MisEngine::kSleeping, g, 7, &pool, &trace);
    EXPECT_EQ(serial.outputs, sharded.outputs);
    EXPECT_EQ(serial_trace.levels, trace.levels);
    EXPECT_EQ(serial_trace.bits, trace.bits);
    ASSERT_EQ(serial_trace.calls.size(), trace.calls.size());
    for (const auto& [key, stats] : serial_trace.calls) {
      const auto it = trace.calls.find(key);
      ASSERT_NE(it, trace.calls.end())
          << "call (k=" << key.first << ", path=" << key.second
          << ") missing at " << lanes << " lanes";
      EXPECT_EQ(stats.participants, it->second.participants);
      EXPECT_EQ(stats.left, it->second.left);
      EXPECT_EQ(stats.right, it->second.right);
      EXPECT_EQ(stats.isolated_joins, it->second.isolated_joins);
      EXPECT_EQ(stats.first_round, it->second.first_round);
    }
    EXPECT_EQ(serial_trace.z_by_level(), trace.z_by_level());
  }
}

// --- protocols outside the MisEngine enum ----------------------------

TEST(BulkParallelBaselines, IsraeliItaiAgreesAcrossLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(200, 5.0, seed);
    bulk::BulkIsraeliItai serial_protocol;
    const auto serial =
        bulk::run_bulk(g, seed, serial_protocol, parallel_options(g, nullptr));
    for (const unsigned lanes : {2u, 8u}) {
      util::ThreadPool pool(lanes);
      bulk::BulkIsraeliItai protocol;
      const auto sharded =
          bulk::run_bulk(g, seed, protocol, parallel_options(g, &pool));
      EXPECT_EQ(serial.outputs, sharded.outputs)
          << "seed=" << seed << " lanes=" << lanes;
      ExpectMetricsEqual(serial.metrics, sharded.metrics);
    }
  }
}

TEST(BulkParallelBaselines, BeepingMisAgreesAcrossLaneCounts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(120, 4.0, seed);
    bulk::BulkOptions base;
    base.max_message_bits = 1;
    base.parallel_cutoff = 1;
    bulk::BulkBeepingMis serial_protocol;
    const auto serial = bulk::run_bulk(g, seed, serial_protocol, base);
    for (const unsigned lanes : {2u, 8u}) {
      util::ThreadPool pool(lanes);
      bulk::BulkOptions options = base;
      options.pool = &pool;
      bulk::BulkBeepingMis protocol;
      const auto sharded = bulk::run_bulk(g, seed, protocol, options);
      EXPECT_EQ(serial.outputs, sharded.outputs)
          << "seed=" << seed << " lanes=" << lanes;
      ExpectMetricsEqual(serial.metrics, sharded.metrics);
    }
  }
}

// --- run_mis wiring with the default cutoff --------------------------

TEST(BulkParallelRunMis, PoolParameterIsBitwiseInvariant) {
  // n = 10,000 exceeds the default parallel_cutoff, so the big frames
  // genuinely shard while the deep tiny frames take the serial path —
  // both paths must agree with the pool-less run.
  const Graph g = gen::gnp_avg_degree_sharded_csr(10000, 8.0, 5);
  const auto serial =
      analysis::run_mis(MisEngine::kSleeping, g, 5, {.exec = ExecEngine::kBulk});
  util::ThreadPool pool(4);
  const auto sharded = analysis::run_mis(
      MisEngine::kSleeping, g, 5, {.exec = ExecEngine::kBulk, .pool = &pool});
  EXPECT_EQ(serial.outputs, sharded.outputs);
  EXPECT_EQ(serial.valid, sharded.valid);
  EXPECT_EQ(serial.mis_size, sharded.mis_size);
  ExpectMetricsEqual(serial.metrics, sharded.metrics);
}

// --- memory diet: dropped per-node metrics ---------------------------

TEST(BulkMemoryDiet, NodeMetricsOffKeepsOutputsAndAggregates) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(2000, 8.0, 11);
  const auto full = run_bulk_mis(MisEngine::kSleeping, g, 11, nullptr);
  for (const unsigned lanes : {1u, 4u}) {
    util::ThreadPool pool(lanes);
    bulk::BulkOptions options = parallel_options(g, &pool);
    options.node_metrics = false;
    const auto diet = bulk::bulk_sleeping_mis(g, 11, {}, nullptr, options);
    EXPECT_TRUE(diet.metrics.node.empty()) << lanes << " lanes";
    EXPECT_EQ(full.outputs, diet.outputs);
    EXPECT_TRUE(diet.virtual_makespan == full.virtual_makespan);
    EXPECT_EQ(full.metrics.total_awake_node_rounds,
              diet.metrics.total_awake_node_rounds);
    EXPECT_EQ(full.metrics.distinct_active_rounds,
              diet.metrics.distinct_active_rounds);
    EXPECT_EQ(full.metrics.total_messages, diet.metrics.total_messages);
    EXPECT_EQ(full.metrics.dropped_messages, diet.metrics.dropped_messages);
    EXPECT_EQ(full.metrics.max_message_bits_seen,
              diet.metrics.max_message_bits_seen);
    // makespan falls back to the saturated virtual makespan, which for
    // Algorithm 1 equals every node's finish round.
    EXPECT_EQ(full.metrics.makespan, diet.metrics.makespan);
    EXPECT_TRUE(analysis::check_mis(g, diet.outputs).ok());
  }
}

// --- CSR construction: builder output and edge-list round trip -----

TEST(BulkMemoryDiet, CsrGraphRunsIdenticallyToEdgeListGraph) {
  // The builder's CSR and the graph rebuilt from its edges() must be
  // the same graph, port for port, so a bulk run cannot tell them apart.
  for (const VertexId n : {2u, 97u, 4000u}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const Graph built = gen::gnp_avg_degree_sharded_csr(n, 8.0, n);
    const Graph rebuilt(n, built.edges());
    EXPECT_TRUE(rebuilt.same_csr(built));
    EXPECT_EQ(rebuilt.max_degree(), built.max_degree());
    const auto run_built =
        run_bulk_mis(MisEngine::kSleeping, built, n, nullptr);
    const auto run_rebuilt =
        run_bulk_mis(MisEngine::kSleeping, rebuilt, n, nullptr);
    EXPECT_EQ(run_built.outputs, run_rebuilt.outputs);
    ExpectMetricsEqual(run_built.metrics, run_rebuilt.metrics);
    EXPECT_TRUE(analysis::check_mis(built, run_built.outputs).ok());
  }
}

// Every from_csr case runs pool-less and through a 4-lane pool: the
// pooled path shards the per-vertex scan and the symmetry walk
// differently, and both must reject (or accept) the same inputs.
template <typename Fn>
void ForEachFromCsrPath(Fn&& fn) {
  util::ThreadPool pool(4);
  for (util::ThreadPool* path : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool}) {
    SCOPED_TRACE(path == nullptr ? "pool-less" : "4-lane pool");
    fn(path);
  }
}

TEST(BulkMemoryDiet, FromCsrValidatesShape) {
  ForEachFromCsrPath([](util::ThreadPool* pool) {
    // Malformed: offsets not covering adjacency.
    EXPECT_THROW(Graph::from_csr(2, {0, 1, 1}, {1, 0}, pool),
                 std::invalid_argument);
    // Self-loop.
    EXPECT_THROW(Graph::from_csr(2, {0, 1, 2}, {0, 0}, pool),
                 std::invalid_argument);
    // Asymmetric adjacency (1 lists 0, 0 does not list 1).
    EXPECT_THROW(Graph::from_csr(3, {0, 1, 2, 2}, {2, 0}, pool),
                 std::invalid_argument);
    // Crossed pair with balanced degrees: 0-2 and 1-3 each listed from
    // one side only, so every degree matches a symmetric graph's.
    EXPECT_THROW(Graph::from_csr(4, {0, 1, 2, 3, 4}, {2, 3, 1, 0}, pool),
                 std::invalid_argument);
    // Down-entries with no matching up-entry (2 lists 1, 3 lists 2).
    EXPECT_THROW(Graph::from_csr(4, {0, 1, 2, 3, 4}, {1, 0, 1, 2}, pool),
                 std::invalid_argument);
    // Non-monotone offsets, in bounds and past the end of adjacency.
    EXPECT_THROW(Graph::from_csr(3, {0, 2, 1, 2}, {1, 0}, pool),
                 std::invalid_argument);
    EXPECT_THROW(Graph::from_csr(2, {0, 100, 2}, {1, 0}, pool),
                 std::invalid_argument);
    // Up-entries into a trailing empty range: vertex 3's cursor starts
    // one past the last adjacency slot.
    EXPECT_THROW(Graph::from_csr(4, {0, 1, 2, 2, 2}, {3, 3}, pool),
                 std::invalid_argument);
    // Out-of-range endpoint.
    EXPECT_THROW(Graph::from_csr(2, {0, 1, 2}, {5, 0}, pool),
                 std::invalid_argument);
    // Unsorted range.
    EXPECT_THROW(Graph::from_csr(3, {0, 2, 3, 4}, {2, 1, 0, 0}, pool),
                 std::invalid_argument);
    // A valid path graph round-trips.
    const Graph p = Graph::from_csr(3, {0, 1, 3, 4}, {1, 0, 2, 1}, pool);
    EXPECT_EQ(p.num_edges(), 2u);
    EXPECT_EQ(p.degree(1), 2u);
    EXPECT_EQ(p.max_degree(), 2u);
  });
}

TEST(BulkMemoryDiet, FromCsrRejectsEveryRewiredEntry) {
  // Rewiring one entry of a valid CSR to another in-range vertex while
  // keeping its range sorted passes every per-vertex check, so only the
  // symmetry walk can catch it.
  constexpr VertexId kN = 2000;
  const Graph g = gen::gnp_avg_degree_sharded_csr(kN, 8.0, 3);
  util::PodVector<CsrOffset> offsets(std::uint64_t{kN} + 1, 0);
  util::PodVector<VertexId> adjacency(g.degree_sum(), 0);
  for (VertexId v = 0; v < kN; ++v) {
    const auto nbrs = g.neighbors(v);
    offsets[std::uint64_t{v} + 1] = offsets[v] + nbrs.size();
    std::copy(nbrs.begin(), nbrs.end(),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  }
  ForEachFromCsrPath([&](util::ThreadPool* pool) {
    EXPECT_TRUE(Graph::from_csr(kN, offsets, adjacency, pool).same_csr(g));
    Rng rng(17);
    int rewired = 0;
    while (rewired < 64) {
      const auto v = static_cast<VertexId>(rng.below(kN));
      if (g.degree(v) == 0) continue;
      const CsrOffset slot = offsets[v] + rng.below(g.degree(v));
      // Strictly between the slot's neighbors keeps the range sorted.
      const std::uint64_t lo =
          slot == offsets[v] ? 0 : std::uint64_t{adjacency[slot - 1]} + 1;
      const std::uint64_t hi =
          slot + 1 == offsets[v + 1] ? kN : adjacency[slot + 1];
      const auto x = static_cast<VertexId>(lo + rng.below(hi - lo));
      if (x == adjacency[slot] || x == v) continue;
      util::PodVector<VertexId> bad = adjacency;
      bad[slot] = x;
      SCOPED_TRACE(testing::Message() << "v=" << v << " slot=" << slot
                                      << " x=" << x);
      try {
        Graph::from_csr(kN, offsets, std::move(bad), pool);
        ADD_FAILURE() << "rewired CSR accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("asymmetric"),
                  std::string::npos)
            << e.what();
      }
      ++rewired;
    }
  });
}

}  // namespace
}  // namespace slumber
