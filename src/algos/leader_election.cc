#include "algos/leader_election.h"

#include <bit>

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task leader_node(sim::Context& ctx, LeaderElectionOptions options) {
  const std::uint64_t rounds =
      options.diameter_bound != 0
          ? options.diameter_bound
          : (ctx.n() > 0 ? ctx.n() - 1 : 0);
  const std::uint32_t rank_bits = rank_bits_for(ctx.n());
  const std::uint32_t id_bits = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(ctx.n(), 2) - 1));

  const std::uint64_t own_rank =
      util::rank_rng(ctx.seed(), ctx.id()).below(std::uint64_t{1} << rank_bits);
  std::uint64_t best_rank = own_rank;
  std::uint64_t best_id = ctx.id();

  for (std::uint64_t r = 0; r < rounds; ++r) {
    sim::Message m{sim::MsgKind::kRank, best_rank, best_id,
                   rank_bits + id_bits + 8};
    sim::Inbox inbox = co_await ctx.broadcast(m);
    for (const sim::Received& rec : inbox) {
      if (rec.msg.kind != sim::MsgKind::kRank) continue;
      if (priority_beats(rec.msg.payload_a, rec.msg.payload_b, best_rank,
                         best_id)) {
        best_rank = rec.msg.payload_a;
        best_id = rec.msg.payload_b;
      }
    }
    // The Feuilloley decision instant: the first time the node sees a
    // priority beating its own, its output is fixed even though it keeps
    // forwarding the flood until the diameter bound expires.
    if (!ctx.decided() && best_id != ctx.id()) ctx.decide(0);
  }
  ctx.decide(best_id == ctx.id() ? 1 : 0);
}

}  // namespace

sim::Protocol flood_max_leader_election(LeaderElectionOptions options) {
  return [options](sim::Context& ctx) { return leader_node(ctx, options); };
}

}  // namespace slumber::algos
