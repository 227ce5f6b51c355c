#include "algos/luby.h"

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task luby_a_node(sim::Context& ctx, LubyOptions options) {
  const std::uint32_t rank_bits = rank_bits_for(ctx.n());
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : default_iteration_cap(ctx.n());
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    // Fresh priority each iteration (Luby'86 permutation variant).
    const std::uint64_t priority =
        util::step_rng(ctx.seed(), ctx.id(), iteration).next() >>
        (64 - rank_bits);
    sim::Inbox inbox =
        co_await ctx.broadcast(sim::Message::rank(priority, rank_bits));
    bool win = true;
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kRank &&
          priority_beats(r.msg.payload_a, r.from, priority, ctx.id())) {
        win = false;
        break;
      }
    }
    if (win) {
      // Local maximum: join the MIS, announce, terminate.
      co_await ctx.broadcast(sim::Message::in_mis());
      ctx.decide(1);
      co_return;
    }
    sim::Inbox announcements = co_await ctx.listen();
    for (const sim::Received& r : announcements) {
      if (r.msg.kind == sim::MsgKind::kInMis) {
        // An MIS neighbor dominates this node: eliminated, terminate.
        ctx.decide(0);
        co_return;
      }
    }
  }
  // Unreachable w.h.p.: leave undecided so verifiers flag it.
}

sim::Task luby_b_node(sim::Context& ctx, LubyOptions options) {
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : default_iteration_cap(ctx.n());
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    // Round 1: probe active degree.
    sim::Inbox inbox = co_await ctx.broadcast(sim::Message::hello());
    const std::uint64_t active_degree = inbox.size();

    // Mark w.p. 1/(2d); residual-isolated nodes join outright.
    const bool marked =
        active_degree == 0 ||
        util::step_rng(ctx.seed(), ctx.id(), iteration)
            .bernoulli(1.0 / (2.0 * static_cast<double>(active_degree)));

    // Round 2: marked nodes exchange (degree, id) to break conflicts.
    sim::Inbox marks;
    if (marked) {
      sim::Message mark = sim::Message::mark();
      mark.payload_a = active_degree;  // degree < n: log n bits suffice
      mark.bits = 8 + rank_bits_for(ctx.n()) / 3;
      marks = co_await ctx.broadcast(mark);
    } else {
      marks = co_await ctx.listen();
    }
    bool win = marked;
    if (marked) {
      for (const sim::Received& r : marks) {
        if (r.msg.kind == sim::MsgKind::kMark &&
            priority_beats(r.msg.payload_a, r.from, active_degree,
                           ctx.id())) {
          win = false;
          break;
        }
      }
    }

    // Round 3: winners announce; dominated nodes are eliminated.
    if (win) {
      co_await ctx.broadcast(sim::Message::in_mis());
      ctx.decide(1);
      co_return;
    }
    sim::Inbox announcements = co_await ctx.listen();
    for (const sim::Received& r : announcements) {
      if (r.msg.kind == sim::MsgKind::kInMis) {
        ctx.decide(0);
        co_return;
      }
    }
  }
}

}  // namespace

sim::Protocol luby_a(LubyOptions options) {
  return [options](sim::Context& ctx) { return luby_a_node(ctx, options); };
}

sim::Protocol luby_b(LubyOptions options) {
  return [options](sim::Context& ctx) { return luby_b_node(ctx, options); };
}

}  // namespace slumber::algos
