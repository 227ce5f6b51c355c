#include "algos/greedy_coloring.h"

#include <algorithm>
#include <vector>

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task greedy_coloring_node(sim::Context& ctx,
                               GreedyColoringOptions options) {
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : 2 * default_iteration_cap(ctx.n()) + ctx.n();
  const std::uint32_t rank_bits = rank_bits_for(ctx.n());
  const std::uint32_t color_bits = rank_bits;

  const std::uint64_t own_rank =
      util::rank_rng(ctx.seed(), ctx.id()).below(std::uint64_t{1} << rank_bits);
  if (options.ranks_out != nullptr) {
    (*options.ranks_out)[ctx.id()] = own_rank;
  }

  // Round 1: exchange ranks; learn which neighbors precede us in the
  // (rank, id)-descending order.
  sim::Inbox inbox =
      co_await ctx.broadcast(sim::Message::rank(own_rank, rank_bits));
  std::vector<std::uint8_t> higher(ctx.degree(), 0);
  std::uint32_t higher_pending = 0;
  for (const sim::Received& r : inbox) {
    if (r.msg.kind != sim::MsgKind::kRank) continue;
    if (priority_beats(r.msg.payload_a, r.from, own_rank, ctx.id())) {
      higher[r.port] = 1;
      ++higher_pending;
    }
  }

  // Peeling loop: one round per step. Nodes whose higher neighbors have
  // all committed choose the smallest free color, announce it, and
  // terminate; everyone else listens and strikes announced colors.
  std::vector<std::uint8_t> struck(ctx.degree() + 1, 0);
  for (std::uint64_t step = 0; step < cap; ++step) {
    if (higher_pending == 0) {
      std::uint64_t color = 0;
      while (struck[color]) ++color;  // palette {0..deg}, never exhausted
      co_await ctx.broadcast(sim::Message::color(color, color_bits));
      ctx.decide(static_cast<std::int64_t>(color));
      co_return;
    }
    sim::Inbox heard = co_await ctx.listen();
    for (const sim::Received& r : heard) {
      if (r.msg.kind != sim::MsgKind::kColor) continue;
      if (r.msg.payload_a <= ctx.degree()) struck[r.msg.payload_a] = 1;
      if (higher[r.port]) {
        higher[r.port] = 0;
        --higher_pending;
      }
    }
  }
}

}  // namespace

sim::Protocol greedy_coloring(GreedyColoringOptions options) {
  return [options](sim::Context& ctx) {
    return greedy_coloring_node(ctx, options);
  };
}

std::vector<std::int64_t> sequential_greedy_coloring(
    const Graph& g, const std::vector<VertexId>& order) {
  std::vector<std::int64_t> colors(g.num_vertices(), -1);
  for (const VertexId v : order) {
    std::vector<std::uint8_t> struck(g.degree(v) + 2, 0);
    for (const VertexId u : g.neighbors(v)) {
      const std::int64_t c = colors[u];
      if (c >= 0 && c <= static_cast<std::int64_t>(g.degree(v))) {
        struck[static_cast<std::size_t>(c)] = 1;
      }
    }
    std::int64_t color = 0;
    while (struck[static_cast<std::size_t>(color)]) ++color;
    colors[v] = color;
  }
  return colors;
}

}  // namespace slumber::algos
