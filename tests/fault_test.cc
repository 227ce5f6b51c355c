// Fault-layer determinism suite (fault/fault.h, fault/churn.h).
//
// Pins the three contracts the layer is built around:
//   1. lane-independence — a faulty bulk run is bitwise identical at
//      every lane count (the fault draws are keyed pure functions, so
//      chunk-local evaluation merged in chunk order cannot depend on
//      the sharding);
//   2. engine-independence — the coroutine scheduler and the bulk
//      engine facing the same FaultPlan and seed crash the same nodes
//      at the same rounds, lose the same messages, and produce the
//      same outputs and metrics bit for bit;
//   3. churn repair — after every churn batch the repaired output is a
//      correct MIS of the alive-induced subgraph, and the whole churn
//      trajectory is lane-count-independent.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "chi_square_test_util.h"
#include "core/sleeping_mis.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "lane_matrix_test_util.h"
#include "metrics_test_util.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

using analysis::ExecEngine;
using analysis::MisEngine;

// --- FaultState unit contracts --------------------------------------

TEST(FaultState, LossDrawIsSymmetricAndPure) {
  fault::FaultPlan plan;
  plan.loss_prob = 0.5;
  const fault::FaultState fs(&plan, 42, 1000);
  for (VertexId a = 0; a < 20; ++a) {
    for (VertexId b = a + 1; b < 20; ++b) {
      for (std::uint64_t round = 1; round < 8; ++round) {
        const bool down = fs.link_down(a, b, round, 0);
        EXPECT_EQ(down, fs.link_down(b, a, round, 0));
        EXPECT_EQ(down, fs.link_down(a, b, round, 0));  // pure
      }
    }
  }
}

TEST(FaultState, LossRateMatchesProbability) {
  fault::FaultPlan plan;
  plan.loss_prob = 0.1;
  const fault::FaultState fs(&plan, 7, 1 << 20);
  std::uint64_t down = 0;
  const std::uint64_t draws = 20000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    down += fs.link_down(static_cast<VertexId>(i), static_cast<VertexId>(i) + 1,
                         i % 97, 0)
                ? 1
                : 0;
  }
  EXPECT_NEAR(static_cast<double>(down) / static_cast<double>(draws), 0.1,
              0.01);
}

TEST(FaultState, ScheduleEarliestRoundWinsAndClipsOutOfRange) {
  fault::FaultPlan plan;
  plan.crash_schedule = {{5, 10}, {5, 4}, {999, 1}};
  const fault::FaultState fs(&plan, 3, 10);  // node 999 >= n: dropped
  EXPECT_FALSE(fs.crashes_now(5, 3, 0));
  EXPECT_TRUE(fs.crashes_now(5, 4, 0));
  EXPECT_TRUE(fs.crashes_now(5, 11, 0));
  // A 128-bit round with a non-zero high half is past any 64-bit
  // schedule entry.
  EXPECT_TRUE(fs.crashes_now(5, 0, 1));
  EXPECT_FALSE(fs.crashes_now(9, 100, 0));
}

TEST(FaultState, SaltSeparatesStreams) {
  fault::FaultPlan a;
  a.loss_prob = 0.5;
  fault::FaultPlan b = a;
  b.salt = 1;
  const fault::FaultState fa(&a, 42, 100);
  const fault::FaultState fb(&b, 42, 100);
  std::uint64_t differ = 0;
  for (std::uint64_t round = 0; round < 200; ++round) {
    differ += fa.link_down(1, 2, round, 0) != fb.link_down(1, 2, round, 0);
  }
  EXPECT_GT(differ, 0u);
}

// The hoisted per-round view computes the direct call's bits: random
// pairs, both orientations, 128-bit rounds with a non-zero high half,
// the first burst epochs, and epochs on either side of the renewal grid
// (where the backward scan is longest or is cut).
TEST(FaultState, LinkViewMatchesLinkDown) {
  using Wide = unsigned __int128;
  fault::FaultPlan plan;
  plan.loss_prob = 0.1;
  plan.burst = {.p_on = 0.05, .p_off = 0.25, .epoch_len = 4};
  const fault::FaultState fs(&plan, 19, 1 << 20);
  std::vector<std::uint64_t> epochs = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const std::uint64_t grid = k * fault::kBurstRenewalGrid;
    epochs.insert(epochs.end(), {grid - 2, grid - 1, grid, grid + 1});
  }
  Rng rng(5);
  std::uint64_t down = 0;
  std::uint64_t checked = 0;
  for (const std::uint64_t epoch_hi : {0, 1}) {
    for (const std::uint64_t epoch_lo : epochs) {
      for (const std::uint64_t offset : {0, 3}) {
        const Wide round =
            ((Wide{epoch_hi} << 64) | epoch_lo) * plan.burst.epoch_len + offset;
        const auto lo = static_cast<std::uint64_t>(round);
        const auto hi = static_cast<std::uint64_t>(round >> 64);
        const auto links = fs.links(lo, hi);
        for (int i = 0; i < 200; ++i) {
          const auto a = static_cast<VertexId>(rng.below(1 << 20));
          const auto b = static_cast<VertexId>(rng.below(1 << 20));
          const bool d = links.down(a, b);
          EXPECT_EQ(d, fs.link_down(a, b, lo, hi));
          EXPECT_EQ(d, links.down(b, a));
          EXPECT_EQ(links.burst_bad(a, b), fs.burst_bad(a, b, lo, hi));
          EXPECT_EQ(links.burst_bad(a, b), links.burst_bad(b, a));
          down += d ? 1 : 0;
          ++checked;
        }
      }
    }
  }
  // Both outcomes occur, so the comparisons above are not all of
  // constant views.
  EXPECT_GT(down, 0u);
  EXPECT_LT(down, checked);
}

// --- fault keys -----------------------------------------------------

/// Tallies the two bits `pair_bits` draws from one FaultState over
/// 20000 salts of `plan` and returns their 2x2 chi-square.
template <typename PairBits>
double salt_chi_square(fault::FaultPlan plan, const PairBits& pair_bits) {
  std::array<std::array<double, 2>, 2> table{};
  for (std::uint64_t salt = 0; salt < 20000; ++salt) {
    plan.salt = salt;
    const fault::FaultState fs(&plan, 42, 16);
    const std::pair<bool, bool> bits = pair_bits(fs);
    table[bits.first ? 1 : 0][bits.second ? 1 : 0] += 1;
  }
  return chi_square_2x2(table);
}

// Every fault draw keys one entity per stream_key step. Folding a tag
// with the node id and then the round, stream_key(tag ^ v, round), made
// (v = 0, round 1) and (v = 1, round 2) share a draw, and the old edge
// id stream_key(a, b) gave the links {0, 1} and {1, 2} one id. Each
// such pair must now draw independent bits.
TEST(FaultKeys, EntityRoundPairsIndependent) {
  fault::FaultPlan crash;
  crash.crash_prob = 0.5;
  EXPECT_LT(salt_chi_square(crash,
                            [](const fault::FaultState& fs) {
                              return std::pair{fs.crashes_now(0, 1, 0),
                                               fs.crashes_now(1, 2, 0)};
                            }),
            15.0)
      << "crash";

  fault::FaultPlan leave;
  leave.live_churn = {.leave_prob = 0.5, .join_prob = 0.0};
  EXPECT_LT(salt_chi_square(leave,
                            [](const fault::FaultState& fs) {
                              return std::pair{fs.live_leave(0, 1, 0).leaves,
                                               fs.live_leave(1, 2, 0).leaves};
                            }),
            15.0)
      << "live leave";

  // mean_down 2: a downtime of exactly one round has probability 1/2.
  fault::FaultPlan recover;
  recover.crash_prob = 0.5;
  recover.recover.mean_down = 2;
  EXPECT_LT(salt_chi_square(recover,
                            [](const fault::FaultState& fs) {
                              return std::pair{
                                  fs.recover_downtime(0, 1, 0) == 1,
                                  fs.recover_downtime(1, 2, 0) == 1};
                            }),
            15.0)
      << "recover";

  EXPECT_LT(salt_chi_square(fault::FaultPlan{},
                            [](const fault::FaultState& fs) {
                              return std::pair{
                                  fault::churn_uniform(fs.seed(), 1, 0) < 0.5,
                                  fault::churn_uniform(fs.seed(), 2, 1) < 0.5};
                            }),
            15.0)
      << "post-run churn";

  fault::FaultPlan loss;
  loss.loss_prob = 0.5;
  EXPECT_LT(salt_chi_square(loss,
                            [](const fault::FaultState& fs) {
                              return std::pair{fs.link_down(0, 1, 5, 0),
                                               fs.link_down(1, 2, 5, 0)};
                            }),
            15.0)
      << "loss";

  // p_on + p_off = 1: every epoch regenerates, bad with probability 1/2.
  fault::FaultPlan burst;
  burst.burst = {.p_on = 0.5, .p_off = 0.5, .epoch_len = 1};
  EXPECT_LT(salt_chi_square(burst,
                            [](const fault::FaultState& fs) {
                              return std::pair{fs.burst_bad(0, 1, 5, 0),
                                               fs.burst_bad(1, 2, 5, 0)};
                            }),
            15.0)
      << "burst";
}

// --- lane-independence of faulty bulk runs --------------------------

struct NamedPlan {
  std::string name;
  fault::FaultPlan plan;
};

std::vector<NamedPlan> fault_plans() {
  std::vector<NamedPlan> plans(3);
  plans[0].name = "crash";
  plans[0].plan.crash_schedule = {{3, 5}, {11, 2}};
  plans[0].plan.crash_prob = 0.002;
  plans[1].name = "loss";
  plans[1].plan.loss_prob = 0.05;
  plans[2].name = "crash+loss";
  plans[2].plan.crash_prob = 0.002;
  plans[2].plan.loss_prob = 0.05;
  return plans;
}

// Every bulk protocol (the four MIS engines plus Israeli–Itai and the
// beeping variant) under every plan, on both lane-matrix graphs, with
// per-node metrics on and off (the memory-diet mode charges aggregates
// only): lane counts 2, 3, and 8 must reproduce the serial run bit for
// bit, even with one-node chunks.
TEST(FaultLaneMatrix, BulkRunsAreLaneCountIndependent) {
  struct Entry {
    std::string name;
    std::unique_ptr<bulk::BulkProtocol> protocol;
  };
  std::vector<Entry> protocols;
  for (const MisEngine engine :
       {MisEngine::kSleeping, MisEngine::kLubyA, MisEngine::kLubyB,
        MisEngine::kGreedy}) {
    protocols.push_back({analysis::engine_name(engine),
                         bulk::bulk_mis_protocol(engine, nullptr)});
  }
  protocols.push_back({"israeli-itai",
                       std::make_unique<bulk::BulkIsraeliItai>()});
  protocols.push_back({"beeping", std::make_unique<bulk::BulkBeepingMis>()});

  const std::vector<LaneMatrixGraph> graphs = lane_matrix_graphs();
  const Graph& sparse = graphs.back().graph;
  std::uint64_t isolated = 0;
  for (VertexId v = 0; v < sparse.num_vertices(); ++v) {
    isolated += sparse.degree(v) == 0 ? 1 : 0;
  }
  ASSERT_GT(isolated, 0u);
  for (const LaneMatrixGraph& lg : graphs) {
    for (const bool node_metrics : {true, false}) {
      for (const NamedPlan& np : fault_plans()) {
        for (const Entry& entry : protocols) {
          bulk::BulkOptions base;
          base.max_message_bits = 0;
          base.parallel_cutoff = 1;  // shard even one-node frames
          base.node_metrics = node_metrics;
          base.fault = &np.plan;
          const bulk::BulkResult serial =
              bulk::run_bulk(lg.graph, 77, *entry.protocol, base);
          for (const unsigned lanes : {2u, 3u, 8u}) {
            util::ThreadPool pool(lanes);
            bulk::BulkOptions options = base;
            options.pool = &pool;
            const bulk::BulkResult run =
                bulk::run_bulk(lg.graph, 77, *entry.protocol, options);
            SCOPED_TRACE(entry.name + " / " + np.name + " / " + lg.name +
                         " / node_metrics " + std::to_string(node_metrics) +
                         " / lanes " + std::to_string(lanes));
            EXPECT_EQ(serial.outputs, run.outputs);
            EXPECT_EQ(serial.crashed, run.crashed);
            EXPECT_TRUE(serial.virtual_makespan == run.virtual_makespan);
            ExpectMetricsEqual(serial.metrics, run.metrics);
          }
        }
      }
    }
  }
}

// --- engine-independence --------------------------------------------

// The coroutine scheduler and the bulk engine share every fault draw:
// same crashed nodes, same lost messages, same outputs, same metrics.
TEST(CrossEngineFault, EnginesAgreeBitwiseUnderSharedPlans) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(600, 6.0, 23);
  for (const NamedPlan& np : fault_plans()) {
    for (const MisEngine engine :
         {MisEngine::kSleeping, MisEngine::kLubyA, MisEngine::kLubyB,
          MisEngine::kGreedy}) {
      SCOPED_TRACE(analysis::engine_name(engine) + " / " + np.name);
      const auto coro = analysis::run_mis(engine, g, 101,
                                          {.fault = &np.plan});
      const auto bulk_run = analysis::run_mis(
          engine, g, 101, {.exec = ExecEngine::kBulk, .fault = &np.plan});
      EXPECT_EQ(coro.outputs, bulk_run.outputs);
      EXPECT_EQ(coro.alive, bulk_run.alive);
      EXPECT_EQ(coro.valid, bulk_run.valid);
      ExpectMetricsEqual(coro.metrics, bulk_run.metrics);
    }
  }
}

// The CONGEST accounting under loss: a 1-bit budget that every message
// exceeds, counted rather than thrown. Lossy SleepingMIS charges its
// sends per chunk of awake pairs, so the violation count and the widest
// message seen must still match the coroutine engine's per-message
// charges and be the same at every lane count, on a graph with
// isolated members (which send nothing) as well as a denser one.
TEST(CrossEngineFault, CongestCountsAgreeUnderLossAcrossLanes) {
  fault::FaultPlan plan;
  plan.loss_prob = 0.05;
  plan.burst = {.p_on = 0.05, .p_off = 0.25, .epoch_len = 4};
  for (const LaneMatrixGraph& lg : lane_matrix_graphs()) {
    SCOPED_TRACE(lg.name);
    sim::NetworkOptions net;
    net.max_message_bits = 1;
    net.throw_on_congest_violation = false;
    net.fault = &plan;
    const auto coro = sim::run_protocol(lg.graph, 101, core::sleeping_mis(),
                                        net);
    EXPECT_GT(coro.metrics.congest_violations, 0u);
    EXPECT_GT(coro.metrics.injected_losses, 0u);
    bulk::BulkOptions base;
    base.max_message_bits = 1;
    base.throw_on_congest_violation = false;
    base.parallel_cutoff = 1;  // shard even one-node frames
    base.fault = &plan;
    const auto serial =
        bulk::bulk_sleeping_mis(lg.graph, 101, {}, nullptr, base);
    EXPECT_EQ(coro.outputs, serial.outputs);
    EXPECT_EQ(coro.metrics.congest_violations,
              serial.metrics.congest_violations);
    EXPECT_EQ(coro.metrics.max_message_bits_seen,
              serial.metrics.max_message_bits_seen);
    ExpectMetricsEqual(coro.metrics, serial.metrics);
    for (const unsigned lanes : {2u, 3u, 8u}) {
      SCOPED_TRACE(lanes);
      util::ThreadPool pool(lanes);
      bulk::BulkOptions options = base;
      options.pool = &pool;
      const auto run =
          bulk::bulk_sleeping_mis(lg.graph, 101, {}, nullptr, options);
      EXPECT_EQ(serial.outputs, run.outputs);
      EXPECT_EQ(serial.metrics.congest_violations,
                run.metrics.congest_violations);
      EXPECT_EQ(serial.metrics.max_message_bits_seen,
                run.metrics.max_message_bits_seen);
      ExpectMetricsEqual(serial.metrics, run.metrics);
    }
  }
}

// --- churn ----------------------------------------------------------

TEST(Churn, RepairedOutputIsValidMisOfAliveSubgraph) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(500, 8.0, 29);
  fault::FaultPlan plan;
  plan.churn.leave_prob = 0.3;
  plan.churn.join_prob = 0.5;
  plan.churn.batches = 3;
  plan.loss_prob = 0.02;  // arrive at churn with loss damage too
  const auto run = analysis::run_mis(MisEngine::kSleeping, g, 55,
                                     {.exec = ExecEngine::kBulk,
                                      .fault = &plan});
  // run_churn checks the invariant after the initial repair and after
  // every batch; `valid` is the conjunction.
  EXPECT_TRUE(run.valid);
  ASSERT_EQ(run.alive.size(), g.num_vertices());
  EXPECT_EQ(run.metrics.churn_batches, 3u);
  EXPECT_GT(run.metrics.churn_leaves, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (run.alive[v]) {
      EXPECT_TRUE(run.outputs[v] == 0 || run.outputs[v] == 1) << v;
    } else {
      EXPECT_EQ(run.outputs[v], -1) << v;
    }
  }
  // And the invariant really holds on the final state.
  EXPECT_TRUE(fault::check_alive_mis(g, run.alive, run.outputs));
}

TEST(Churn, TrajectoryIsLaneCountIndependent) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 31);
  fault::FaultPlan plan;
  plan.churn.leave_prob = 0.25;
  plan.churn.join_prob = 0.4;
  plan.churn.batches = 4;
  plan.crash_prob = 0.001;
  const auto serial = analysis::run_mis(MisEngine::kLubyA, g, 13,
                                        {.exec = ExecEngine::kBulk,
                                         .fault = &plan});
  for (const unsigned lanes : {2u, 3u, 8u}) {
    util::ThreadPool pool(lanes);
    const auto run = analysis::run_mis(MisEngine::kLubyA, g, 13,
                                       {.exec = ExecEngine::kBulk,
                                        .pool = &pool,
                                        .fault = &plan});
    SCOPED_TRACE(lanes);
    EXPECT_EQ(serial.outputs, run.outputs);
    EXPECT_EQ(serial.alive, run.alive);
    EXPECT_EQ(serial.valid, run.valid);
    EXPECT_EQ(serial.metrics.churn_leaves, run.metrics.churn_leaves);
    EXPECT_EQ(serial.metrics.churn_joins, run.metrics.churn_joins);
    EXPECT_EQ(serial.metrics.churn_repair_rounds,
              run.metrics.churn_repair_rounds);
  }
}

TEST(Churn, CoroutineBackEndRejectsChurn) {
  const Graph g = gen::cycle(8);
  fault::FaultPlan plan;
  plan.churn.leave_prob = 0.5;
  plan.churn.batches = 1;
  EXPECT_THROW(analysis::run_mis(MisEngine::kSleeping, g, 1, {.fault = &plan}),
               std::invalid_argument);
}

// --- run_trials under faults ----------------------------------------

// Faulty multi-trial batches stay bitwise identical across trial-lane
// counts, and the serial path's forwarded intra-trial pool does not
// change results either.
TEST(FaultTrials, TrialBatchesAreThreadCountIndependent) {
  fault::FaultPlan plan;
  plan.crash_prob = 0.002;
  plan.loss_prob = 0.03;
  const auto factory = [](std::uint64_t seed) {
    return gen::gnp_avg_degree_sharded_csr(200, 6.0, seed);
  };
  const auto serial =
      analysis::run_trials(MisEngine::kGreedy, factory, 900, 8,
                           {.exec = ExecEngine::kBulk, .num_threads = 1,
                            .fault = &plan});
  util::ThreadPool pool(3);
  const auto serial_pooled =
      analysis::run_trials(MisEngine::kGreedy, factory, 900, 8,
                           {.exec = ExecEngine::kBulk, .num_threads = 1,
                            .pool = &pool, .fault = &plan});
  const auto wide =
      analysis::run_trials(MisEngine::kGreedy, factory, 900, 8,
                           {.exec = ExecEngine::kBulk, .num_threads = 4,
                            .fault = &plan});
  ASSERT_EQ(serial.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].outputs, serial_pooled[i].outputs);
    EXPECT_EQ(serial[i].outputs, wide[i].outputs);
    EXPECT_EQ(serial[i].alive, wide[i].alive);
    ExpectMetricsEqual(serial[i].metrics, wide[i].metrics);
  }
}

}  // namespace
}  // namespace slumber
