#include "core/sleeping_mis.h"

#include <algorithm>

#include "core/mis_state.h"
#include "core/schedule.h"

namespace slumber::core {
namespace {

sim::Task recurse(sim::Context& ctx, MisState& st, std::uint32_t k,
                  std::uint64_t path, double coin_bias,
                  RecursionTrace* trace) {
  if (trace != nullptr) ++trace->calls[{k, path}].participants;

  if (k == 0) {  // base case (lines 9-12): w.h.p. |U| <= 1 here
    if (st.value == MisValue::kUnknown) {
      st.value = MisValue::kTrue;
      ctx.decide(1);
    }
    co_return;
  }

  // First isolated-node detection (lines 13-16), 1 round. Only the nodes
  // of this call are awake now, so an empty inbox means "isolated in
  // G[U]".
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

  const std::uint64_t child_span = schedule_duration(k - 1);

  // Left recursion (lines 17-21): undecided nodes with X_k = 1.
  if (st.value == MisValue::kUnknown &&
      util::coin(ctx.seed(), ctx.id(), k, coin_bias)) {
    if (trace != nullptr) ++trace->calls[{k, path}].left;
    co_await recurse(ctx, st, k - 1, path << 1, coin_bias, trace);
  } else {
    ctx.sleep(child_span);
  }

  // Synchronization step / elimination (lines 22-25), 1 round.
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

  // Second isolated-node detection (lines 26-29), 1 round.
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

  // Right recursion (lines 30-34).
  if (st.value == MisValue::kUnknown) {
    if (trace != nullptr) ++trace->calls[{k, path}].right;
    co_await recurse(ctx, st, k - 1, (path << 1) | 1, coin_bias, trace);
  } else {
    ctx.sleep(child_span);
  }
}

sim::Task node_main(sim::Context& ctx, SleepingMisOptions options,
                    RecursionTrace* trace) {
  MisState st;
  const std::uint32_t levels =
      options.levels != 0 ? options.levels : recursion_depth(ctx.n());
  if (trace != nullptr) {
    trace->levels = levels;
    if (trace->bits.size() != ctx.n()) trace->bits.resize(ctx.n());
    trace->bits[ctx.id()] =
        coin_bits(ctx.seed(), ctx.id(), levels, options.coin_bias);
  }
  co_await recurse(ctx, st, levels, 0, options.coin_bias, trace);
}

}  // namespace

sim::Protocol sleeping_mis(SleepingMisOptions options, RecursionTrace* trace) {
  return [options, trace](sim::Context& ctx) {
    return node_main(ctx, options, trace);
  };
}

}  // namespace slumber::core
