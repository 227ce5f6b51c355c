#include "core/fast_sleeping_mis.h"

#include <algorithm>
#include <bit>

#include "core/mis_state.h"
#include "core/schedule.h"

namespace slumber::core {

std::uint32_t greedy_rank_bits(std::uint64_t n) {
  const auto log_n = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  return std::min<std::uint32_t>(3 * std::max<std::uint32_t>(log_n, 1), 48);
}

namespace {

/// Strict total order on active nodes: (rank, id) lexicographic.
bool beats(std::uint64_t rank_a, std::uint64_t id_a, std::uint64_t rank_b,
           std::uint64_t id_b) {
  return rank_a != rank_b ? rank_a > rank_b : id_a > id_b;
}

// DistributedGreedyMIS (paper Algorithm 2, line 10): randomized greedy
// run for exactly `budget` rounds. Decided nodes sleep out the
// remainder so the cell occupies a fixed window.
sim::Task greedy_base(sim::Context& ctx, MisState& st, std::uint64_t budget,
                      std::uint32_t rank_bits) {
  std::uint64_t used = 0;
  while (used + 2 <= budget && st.value == MisValue::kUnknown) {
    sim::Inbox inbox =
        co_await ctx.broadcast(sim::Message::rank(st.base_rank, rank_bits));
    ++used;
    bool win = true;
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kRank &&
          beats(r.msg.payload_a, r.from, st.base_rank, ctx.id())) {
        win = false;
        break;
      }
    }
    if (win) {
      co_await ctx.broadcast(sim::Message::in_mis());
      ++used;
      st.value = MisValue::kTrue;
      ctx.decide(1);
    } else {
      sim::Inbox announcements = co_await ctx.listen();
      ++used;
      for (const sim::Received& r : announcements) {
        if (r.msg.kind == sim::MsgKind::kInMis) {
          st.value = MisValue::kFalse;
          ctx.decide(0);
          break;
        }
      }
    }
  }
  // Fixed-duration synchronization: the base case always consumes
  // exactly `budget` rounds of wall time.
  ctx.sleep(budget - used);
}

sim::Task recurse(sim::Context& ctx, MisState& st, std::uint32_t k,
                  std::uint64_t path, double coin_bias,
                  std::uint64_t base_budget, std::uint32_t rank_bits,
                  RecursionTrace* trace) {
  if (trace != nullptr) ++trace->calls[{k, path}].participants;

  if (k == 0) {
    co_await greedy_base(ctx, st, base_budget, rank_bits);
    co_return;
  }

  // First isolated-node detection, 1 round.
  sim::Inbox inbox = co_await ctx.broadcast(sim::Message::hello());
  if (trace != nullptr) {
    auto& call = trace->calls[{k, path}];
    call.first_round = std::min(call.first_round, ctx.round());
    if (inbox.empty() && st.value == MisValue::kUnknown) {
      ++call.isolated_joins;
    }
  }
  if (inbox.empty() && st.value == MisValue::kUnknown) {
    st.value = MisValue::kTrue;
    ctx.decide(1);
  }

  const std::uint64_t child_span = schedule_duration(k - 1, base_budget);

  // Left recursion: undecided nodes with X_k = 1.
  if (st.value == MisValue::kUnknown &&
      util::coin(ctx.seed(), ctx.id(), k, coin_bias)) {
    if (trace != nullptr) ++trace->calls[{k, path}].left;
    co_await recurse(ctx, st, k - 1, path << 1, coin_bias, base_budget,
                     rank_bits, trace);
  } else {
    ctx.sleep(child_span);
  }

  // Synchronization step / elimination, 1 round.
  inbox = co_await ctx.broadcast(
      sim::Message::status(static_cast<std::uint64_t>(st.value)));
  if (st.value == MisValue::kUnknown) {
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kStatus &&
          r.msg.payload_a == static_cast<std::uint64_t>(MisValue::kTrue)) {
        st.value = MisValue::kFalse;
        ctx.decide(0);
        break;
      }
    }
  }

  // Second isolated-node detection, 1 round.
  inbox = co_await ctx.broadcast(
      sim::Message::status(static_cast<std::uint64_t>(st.value)));
  if (st.value == MisValue::kUnknown) {
    const bool all_false = std::all_of(
        inbox.begin(), inbox.end(), [](const sim::Received& r) {
          return r.msg.kind == sim::MsgKind::kStatus &&
                 r.msg.payload_a == static_cast<std::uint64_t>(MisValue::kFalse);
        });
    if (all_false) {
      st.value = MisValue::kTrue;
      ctx.decide(1);
    }
  }

  // Right recursion.
  if (st.value == MisValue::kUnknown) {
    if (trace != nullptr) ++trace->calls[{k, path}].right;
    co_await recurse(ctx, st, k - 1, (path << 1) | 1, coin_bias, base_budget,
                     rank_bits, trace);
  } else {
    ctx.sleep(child_span);
  }
}

sim::Task node_main(sim::Context& ctx, FastSleepingMisOptions options,
                    RecursionTrace* trace) {
  MisState st;
  const std::uint32_t levels =
      options.levels != 0 ? options.levels : fast_recursion_depth(ctx.n());
  const std::uint64_t base_budget =
      options.base_rounds != 0 ? options.base_rounds
                               : greedy_base_rounds(ctx.n(), options.base_c);
  const std::uint32_t rank_bits = greedy_rank_bits(ctx.n());
  st.base_rank =
      util::rank_rng(ctx.seed(), ctx.id()).next() >> (64 - rank_bits);
  if (trace != nullptr) {
    trace->levels = levels;
    if (trace->bits.size() != ctx.n()) trace->bits.resize(ctx.n());
    if (trace->base_rank.size() != ctx.n()) trace->base_rank.resize(ctx.n());
    trace->bits[ctx.id()] =
        coin_bits(ctx.seed(), ctx.id(), levels, options.coin_bias);
    trace->base_rank[ctx.id()] = st.base_rank;
  }
  co_await recurse(ctx, st, levels, 0, options.coin_bias, base_budget,
                   rank_bits, trace);
}

}  // namespace

sim::Protocol fast_sleeping_mis(FastSleepingMisOptions options,
                                RecursionTrace* trace) {
  return [options, trace](sim::Context& ctx) {
    return node_main(ctx, options, trace);
  };
}

}  // namespace slumber::core
