// Tests for the synchronous sleeping-model simulator: round semantics,
// sleeping message loss, event skipping, CONGEST enforcement, metrics.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sim/network.h"
#include "util/stream_rng.h"

namespace slumber::sim {
namespace {

using slumber::gen::cycle;
using slumber::gen::complete;
using slumber::gen::empty;
using slumber::gen::path;
using slumber::gen::star;

TEST(SimTest, ImmediateFinishNodeNeverWakes) {
  const Graph g = empty(4);
  auto protocol = [](Context& ctx) -> Task {
    ctx.decide(static_cast<std::int64_t>(ctx.id()));
    co_return;
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(metrics.makespan, 0u);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(metrics.node[v].awake_rounds, 0u);
    EXPECT_EQ(outputs[v], static_cast<std::int64_t>(v));
  }
}

TEST(SimTest, BroadcastReachesAwakeNeighbors) {
  const Graph g = star(5);  // hub 0, leaves 1..4
  auto protocol = [](Context& ctx) -> Task {
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[0], 4);  // hub hears all leaves
  for (VertexId v = 1; v < 5; ++v) EXPECT_EQ(outputs[v], 1);
  EXPECT_EQ(metrics.makespan, 1u);
  EXPECT_EQ(metrics.total_messages, 8u);
}

TEST(SimTest, MessagesToSleepingNodesAreDropped) {
  const Graph g = path(2);
  // Node 0 broadcasts in round 1; node 1 sleeps through round 1 and
  // broadcasts in round 2. Neither hears the other.
  auto protocol = [](Context& ctx) -> Task {
    if (ctx.id() == 1) ctx.sleep(1);
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[0], 0);
  EXPECT_EQ(outputs[1], 0);
  EXPECT_EQ(metrics.total_messages, 0u);
  EXPECT_EQ(metrics.dropped_messages, 2u);
}

TEST(SimTest, SleepAccumulatesAcrossCalls) {
  const Graph g = path(2);
  auto protocol = [](Context& ctx) -> Task {
    if (ctx.id() == 0) {
      ctx.sleep(2);
      ctx.sleep(3);  // total 5: next exchange at round 6
    } else {
      ctx.sleep(5);
    }
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  // Both woke in round 6 and heard each other.
  EXPECT_EQ(outputs[0], 1);
  EXPECT_EQ(outputs[1], 1);
  EXPECT_EQ(metrics.makespan, 6u);
  EXPECT_EQ(metrics.node[0].awake_rounds, 1u);
}

TEST(SimTest, EventSkippingJumpsSleepGaps) {
  const Graph g = path(2);
  const std::uint64_t gap = 1'000'000'000ULL;
  auto protocol = [gap](Context& ctx) -> Task {
    ctx.sleep(gap);
    co_await ctx.broadcast(Message::hello());
    ctx.decide(1);
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(metrics.makespan, gap + 1);
  // Only one distinct round had awake nodes: simulation cost is O(1).
  EXPECT_EQ(metrics.distinct_active_rounds, 1u);
}

TEST(SimTest, PerPortSendsTargetSingleNeighbor) {
  const Graph g = path(3);  // 0-1-2
  auto protocol = [](Context& ctx) -> Task {
    std::vector<std::pair<std::uint32_t, Message>> out;
    if (ctx.id() == 1) {
      out.push_back({static_cast<std::uint32_t>(1), Message::hello()});
      // port 1 of node 1 leads to neighbor 2 (neighbors sorted: 0, 2)
    }
    Inbox inbox = co_await ctx.exchange(std::move(out));
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[0], 0);
  EXPECT_EQ(outputs[1], 0);
  EXPECT_EQ(outputs[2], 1);
}

TEST(SimTest, ReceivedPortIdentifiesSender) {
  const Graph g = cycle(4);
  auto protocol = [](Context& ctx) -> Task {
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    // Reconstruct sender via the port: neighbor(port) must equal from.
    for (const Received& r : inbox) {
      if (r.msg.kind != MsgKind::kHello) continue;
      EXPECT_LT(r.port, ctx.degree());
    }
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  auto [metrics, outputs] = run_protocol(g, 7, protocol);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(outputs[v], 2);
}

TEST(SimTest, NestedCoroutineRecursionSuspendsWholeStack) {
  const Graph g = complete(3);
  // Recursive protocol: depth d performs one exchange then recurses.
  struct Helper {
    static Task recurse(Context& ctx, int depth, std::uint64_t* rounds) {
      if (depth == 0) co_return;
      co_await ctx.broadcast(Message::hello());
      *rounds += 1;
      co_await recurse(ctx, depth - 1, rounds);
    }
  };
  auto protocol = [](Context& ctx) -> Task {
    std::uint64_t rounds = 0;
    co_await Helper::recurse(ctx, 5, &rounds);
    ctx.decide(static_cast<std::int64_t>(rounds));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(outputs[v], 5);
    EXPECT_EQ(metrics.node[v].awake_rounds, 5u);
  }
  EXPECT_EQ(metrics.makespan, 5u);
}

TEST(SimTest, CongestViolationThrows) {
  const Graph g = path(2);
  auto protocol = [](Context& ctx) -> Task {
    Message fat = Message::hello();
    fat.bits = 10'000;
    co_await ctx.broadcast(fat);
    ctx.decide(1);
  };
  NetworkOptions options;
  options.max_message_bits = congest_bits_for(2);
  Network net(g, 1, options);
  EXPECT_THROW(net.run(protocol), CongestViolation);
}

TEST(SimTest, CongestViolationCountedWhenNotThrowing) {
  const Graph g = path(2);
  auto protocol = [](Context& ctx) -> Task {
    Message fat = Message::hello();
    fat.bits = 10'000;
    co_await ctx.broadcast(fat);
    ctx.decide(1);
  };
  NetworkOptions options;
  options.max_message_bits = congest_bits_for(2);
  options.throw_on_congest_violation = false;
  Network net(g, 1, options);
  const Metrics& metrics = net.run(protocol);
  EXPECT_EQ(metrics.congest_violations, 2u);
  EXPECT_EQ(metrics.max_message_bits_seen, 10'000u);
}

TEST(SimTest, DecideRecordsRoundAndAwakeTime) {
  const Graph g = path(2);
  auto protocol = [](Context& ctx) -> Task {
    co_await ctx.broadcast(Message::hello());
    co_await ctx.broadcast(Message::hello());
    ctx.decide(42);
    co_await ctx.broadcast(Message::hello());  // keeps running after deciding
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[0], 42);
  EXPECT_EQ(metrics.node[0].decided_round, 2u);
  EXPECT_EQ(metrics.node[0].awake_at_decision, 2u);
  EXPECT_EQ(metrics.node[0].finish_round, 3u);
  EXPECT_EQ(metrics.node[0].awake_rounds, 3u);
}

TEST(SimTest, DecideIsIdempotent) {
  const Graph g = empty(1);
  auto protocol = [](Context& ctx) -> Task {
    ctx.decide(1);
    ctx.decide(2);
    co_return;
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[0], 1);
}

TEST(SimTest, TerminatedNodesDropMessages) {
  const Graph g = path(2);
  auto protocol = [](Context& ctx) -> Task {
    if (ctx.id() == 0) {
      ctx.decide(0);
      co_return;  // terminates immediately
    }
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[1], 0);
  EXPECT_EQ(metrics.dropped_messages, 1u);
}

TEST(SimTest, RunTwiceRejected) {
  const Graph g = empty(1);
  auto protocol = [](Context& ctx) -> Task {
    ctx.decide(1);
    co_return;
  };
  Network net(g, 1);
  net.run(protocol);
  EXPECT_THROW(net.run(protocol), std::logic_error);
}

TEST(SimTest, ExceptionInProtocolPropagates) {
  const Graph g = empty(1);
  auto protocol = [](Context&) -> Task {
    throw std::runtime_error("boom");
    co_return;
  };
  Network net(g, 1);
  EXPECT_THROW(net.run(protocol), std::runtime_error);
}

TEST(SimTest, DeterministicAcrossRuns) {
  const Graph g = cycle(6);
  auto protocol = [](Context& ctx) -> Task {
    const std::uint64_t value =
        util::rank_rng(ctx.seed(), ctx.id()).below(1000);
    co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(value));
  };
  auto first = run_protocol(g, 99, protocol);
  auto second = run_protocol(g, 99, protocol);
  EXPECT_EQ(first.outputs, second.outputs);
  auto third = run_protocol(g, 100, protocol);
  EXPECT_NE(first.outputs, third.outputs);
}

TEST(SimTest, RoundVisibleToProtocol) {
  const Graph g = empty(2);
  auto protocol = [](Context& ctx) -> Task {
    co_await ctx.listen();            // round 1
    ctx.sleep(9);
    co_await ctx.listen();            // round 11
    ctx.decide(static_cast<std::int64_t>(ctx.round()));
  };
  auto [metrics, outputs] = run_protocol(g, 1, protocol);
  EXPECT_EQ(outputs[0], 11);
}

}  // namespace
}  // namespace slumber::sim
