#include "algos/greedy.h"

#include <algorithm>
#include <numeric>

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task greedy_node(sim::Context& ctx, GreedyOptions options) {
  const std::uint32_t rank_bits = rank_bits_for(ctx.n());
  const std::uint64_t rank =
      util::rank_rng(ctx.seed(), ctx.id()).next() >> (64 - rank_bits);
  if (options.ranks_out != nullptr) {
    if (options.ranks_out->size() != ctx.n()) options.ranks_out->resize(ctx.n());
    (*options.ranks_out)[ctx.id()] = rank;
  }
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : default_iteration_cap(ctx.n());
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    sim::Inbox inbox =
        co_await ctx.broadcast(sim::Message::rank(rank, rank_bits));
    bool win = true;
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kRank &&
          priority_beats(r.msg.payload_a, r.from, rank, ctx.id())) {
        win = false;
        break;
      }
    }
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

sim::Protocol distributed_greedy_mis(GreedyOptions options) {
  return [options](sim::Context& ctx) { return greedy_node(ctx, options); };
}

std::vector<std::uint8_t> sequential_greedy_mis(
    const Graph& g, const std::vector<std::uint64_t>& ranks) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return priority_beats(ranks[a], a, ranks[b], b);
  });
  std::vector<std::uint8_t> in_mis(g.num_vertices(), 0);
  std::vector<std::uint8_t> blocked(g.num_vertices(), 0);
  for (VertexId v : order) {
    if (blocked[v]) continue;
    in_mis[v] = 1;
    for (VertexId u : g.neighbors(v)) blocked[u] = 1;
  }
  return in_mis;
}

}  // namespace slumber::algos
