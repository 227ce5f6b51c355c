// Randomized invariant suite ("fuzzing" the scheduler): random graphs x
// random protocol behaviors (random sleeps, random per-port sends,
// random early termination), checking the simulator's conservation and
// consistency laws hold in every execution:
//
//   I1  delivered + dropped + injected == sent
//   I2  sum over nodes of awake_rounds == total_awake_node_rounds
//   I3  every delivered message's receiver was awake that round
//       (checked by construction through echo counting)
//   I4  makespan == max finish_round; finish >= decided for deciders
//   I5  identical seeds => identical everything (determinism)
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/stream_rng.h"

namespace slumber::sim {
namespace {

// A protocol driven by a per-node random plan: each step either sleeps
// a random duration, broadcasts, listens, or sends on random ports;
// terminates after a random number of steps. Every receive is counted
// into the node's output so runs can be compared exactly. The step
// count is the node's rank draw; each step's choices come from that
// step's keyed stream.
Task chaos_protocol(Context& ctx) {
  const std::uint64_t steps =
      1 + util::rank_rng(ctx.seed(), ctx.id()).below(12);
  std::int64_t received_total = 0;
  for (std::uint64_t step = 0; step < steps; ++step) {
    Rng rng = util::step_rng(ctx.seed(), ctx.id(), step);
    const std::uint64_t action = rng.below(4);
    if (action == 0) {
      ctx.sleep(rng.below(5));
    }
    Inbox inbox;
    if (action == 1 && ctx.degree() > 0) {
      std::vector<std::pair<std::uint32_t, Message>> out;
      const std::uint64_t sends = rng.below(ctx.degree()) + 1;
      for (std::uint64_t i = 0; i < sends; ++i) {
        out.push_back({static_cast<std::uint32_t>(rng.below(ctx.degree())),
                       Message::hello()});
      }
      inbox = co_await ctx.exchange(std::move(out));
    } else if (action == 2) {
      inbox = co_await ctx.listen();
    } else {
      inbox = co_await ctx.broadcast(Message::hello());
    }
    received_total += static_cast<std::int64_t>(inbox.size());
  }
  ctx.decide(received_total);
}

class SimInvariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimInvariantsTest, ConservationAndConsistency) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::gnp_avg_degree_sharded_csr(40, 6.0, seed);

  for (const double loss : {0.0, 0.15}) {
    fault::FaultPlan plan;
    plan.loss_prob = loss;
    NetworkOptions options;
    options.fault = &plan;
    Network net(g, seed, options);
    const Metrics& metrics = net.run(chaos_protocol);

    // I1: conservation.
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t awake_sum = 0;
    for (const NodeMetrics& m : metrics.node) {
      sent += m.messages_sent;
      received += m.messages_received;
      awake_sum += m.awake_rounds;
    }
    EXPECT_EQ(received, metrics.total_messages);
    EXPECT_EQ(sent, metrics.total_messages + metrics.dropped_messages +
                        metrics.injected_losses);

    // I2: awake accounting.
    EXPECT_EQ(awake_sum, metrics.total_awake_node_rounds);
    EXPECT_GE(metrics.distinct_active_rounds, 1u);
    EXPECT_LE(metrics.distinct_active_rounds, awake_sum);

    // I4: timing relations.
    std::uint64_t max_finish = 0;
    for (const NodeMetrics& m : metrics.node) {
      max_finish = std::max(max_finish, m.finish_round);
      EXPECT_LE(m.decided_round, m.finish_round);
      EXPECT_LE(m.awake_at_decision, m.awake_rounds);
    }
    EXPECT_EQ(metrics.makespan, max_finish);
  }
}

TEST_P(SimInvariantsTest, Determinism) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::gnp_avg_degree_sharded_csr(30, 5.0, seed);
  fault::FaultPlan plan;
  plan.loss_prob = 0.05;
  NetworkOptions options;
  options.fault = &plan;

  Network a(g, seed * 3 + 1, options);
  Network b(g, seed * 3 + 1, options);
  a.run(chaos_protocol);
  b.run(chaos_protocol);
  EXPECT_EQ(a.outputs(), b.outputs());
  EXPECT_EQ(a.metrics().total_messages, b.metrics().total_messages);
  EXPECT_EQ(a.metrics().makespan, b.metrics().makespan);
  EXPECT_EQ(a.metrics().injected_losses, b.metrics().injected_losses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimInvariantsTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace slumber::sim
