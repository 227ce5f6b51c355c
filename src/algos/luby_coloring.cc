#include "algos/luby_coloring.h"

#include <vector>

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task coloring_node(sim::Context& ctx, ColoringOptions options) {
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : default_iteration_cap(ctx.n());
  const std::uint32_t color_bits = rank_bits_for(ctx.n());
  // Palette {0, ..., deg(v)}: always non-empty by a counting argument
  // because each neighbor removes at most one color.
  std::vector<std::uint8_t> removed(ctx.degree() + 1, 0);
  std::uint64_t palette_size = ctx.degree() + 1;

  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    // Draw a tentative color uniformly from the remaining palette.
    std::uint64_t pick =
        util::step_rng(ctx.seed(), ctx.id(), iteration).below(palette_size);
    std::uint64_t tentative = 0;
    for (std::uint64_t c = 0; c <= ctx.degree(); ++c) {
      if (removed[c]) continue;
      if (pick == 0) {
        tentative = c;
        break;
      }
      --pick;
    }

    // Round 1: exchange tentative colors.
    sim::Inbox inbox =
        co_await ctx.broadcast(sim::Message::color(tentative, color_bits));
    bool keep = true;
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kColor && r.msg.payload_a == tentative &&
          r.msg.payload_b == 0) {
        keep = false;
        break;
      }
    }

    // Round 2: finished nodes announce final colors and terminate.
    if (keep) {
      sim::Message final_msg = sim::Message::color(tentative, color_bits);
      final_msg.payload_b = 1;  // "final" flag
      co_await ctx.broadcast(final_msg);
      ctx.decide(static_cast<std::int64_t>(tentative));
      co_return;
    }
    sim::Inbox finals = co_await ctx.listen();
    for (const sim::Received& r : finals) {
      if (r.msg.kind == sim::MsgKind::kColor && r.msg.payload_b == 1 &&
          r.msg.payload_a <= ctx.degree() && !removed[r.msg.payload_a]) {
        removed[r.msg.payload_a] = 1;
        --palette_size;
      }
    }
  }
}

}  // namespace

sim::Protocol luby_coloring(ColoringOptions options) {
  return [options](sim::Context& ctx) { return coloring_node(ctx, options); };
}

}  // namespace slumber::algos
