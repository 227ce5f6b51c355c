#include "bulk/baselines.h"

#include <atomic>
#include <bit>
#include <numeric>
#include <utility>

#include "algos/common.h"
#include "bulk/sleeping_mis.h"
#include "sim/message.h"

namespace slumber::bulk {
namespace {

using algos::default_iteration_cap;
using algos::priority_beats;
using algos::rank_bits_for;

std::vector<VertexId> all_vertices(VertexId n) {
  std::vector<VertexId> alive(n);
  std::iota(alive.begin(), alive.end(), VertexId{0});
  return alive;
}

}  // namespace

void BulkLubyA::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t rank_bits = rank_bits_for(n);
  const std::uint32_t rank_msg_bits = sim::Message::rank(0, rank_bits).bits;
  const std::uint32_t in_mis_bits = sim::Message::in_mis().bits;
  const std::uint64_t cap = options_.max_iterations != 0
                                ? options_.max_iterations
                                : default_iteration_cap(n);
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint64_t> priority(n, 0);
  std::vector<std::uint8_t> win(n, 0);
  const bool dynamic = eng.dynamic();
  const bool lossy = eng.lossy();
  // Re-entrants resume as fresh non-winners; their priority is redrawn
  // with everyone else's at the next round 1.
  const auto reenter = [&](VertexId v) {
    win[v] = 0;
    priority[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    // Round 1: fresh priorities; strict local maxima win.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      if (alive.empty()) break;
    }
    eng.mark_awake(alive);
    eng.charge_round(alive, round);
    eng.scan_awake(alive,
                   [&](BulkChunk&, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       priority[v] = util::step_rng(eng.seed(), v, iteration)
                                         .next() >> (64 - rank_bits);
                     }
                   });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t awake_nbrs = 0;
        std::uint64_t heard = 0;
        bool w = true;
        for (const VertexId u : g.neighbors(v)) {
          if (!eng.is_awake(u)) continue;
          ++awake_nbrs;
          if (lossy && !eng.link_up(v, u, round)) continue;
          ++heard;
          if (priority_beats(priority[u], u, priority[v], v)) w = false;
        }
        chunk.charge_symmetric_broadcast(v, awake_nbrs, heard, rank_msg_bits);
        win[v] = w ? 1 : 0;
      }
    });

    // Round 2: winners announce and join; dominated neighbors exit.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);  // membership changed
    }
    eng.charge_round(alive, round);
    alive = eng.scan_awake(
                   alive,
                   [&](BulkChunk& chunk, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       std::uint64_t awake_nbrs = 0;
                       std::uint64_t delivered_out = 0;
                       std::uint64_t winners_adjacent = 0;
                       for (const VertexId u : g.neighbors(v)) {
                         if (!eng.is_awake(u)) continue;
                         ++awake_nbrs;
                         // One symmetric draw decides both directions.
                         if (lossy && !eng.link_up(v, u, round)) continue;
                         ++delivered_out;
                         winners_adjacent += win[u];
                       }
                       if (win[v] != 0) {
                         chunk.charge_send(v, g.degree(v), delivered_out,
                                           in_mis_bits,
                                           awake_nbrs - delivered_out);
                       }
                       chunk.charge_received(v, winners_adjacent);
                       if (win[v] != 0) {
                         chunk.decide(v, 1, round);
                         chunk.finish(v, round);
                       } else if (winners_adjacent > 0) {
                         chunk.decide(v, 0, round);
                         chunk.finish(v, round);
                       } else {
                         chunk.keep(v);
                       }
                     }
                   })
                .kept;
  }
  // Iteration cap exhausted: remaining nodes return undecided.
  const VirtualRound last = round;
  eng.scan_awake(alive, [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) chunk.finish(v, last);
  });
}

void BulkLubyB::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t hello_bits = sim::Message::hello().bits;
  const std::uint32_t mark_bits = 8 + rank_bits_for(n) / 3;
  const std::uint32_t in_mis_bits = sim::Message::in_mis().bits;
  const std::uint64_t cap = options_.max_iterations != 0
                                ? options_.max_iterations
                                : default_iteration_cap(n);
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint64_t> active_deg(n, 0);
  std::vector<std::uint8_t> marked(n, 0);
  std::vector<std::uint8_t> win(n, 0);
  const bool dynamic = eng.dynamic();
  const bool lossy = eng.lossy();
  // Re-entrants restart the iteration unmarked with no stale win or
  // degree estimate; both are recomputed from round 1's probe.
  const auto reenter = [&](VertexId v) {
    marked[v] = 0;
    win[v] = 0;
    active_deg[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    // Round 1: probe active degree; mark w.p. 1/(2d) (isolated nodes
    // mark outright). Under loss the degree estimate is the hello count
    // actually heard.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      if (alive.empty()) break;
    }
    eng.mark_awake(alive);
    eng.charge_round(alive, round);
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t awake_nbrs = 0;
        std::uint64_t heard = 0;
        for (const VertexId u : g.neighbors(v)) {
          if (!eng.is_awake(u)) continue;
          ++awake_nbrs;
          if (!lossy || eng.link_up(v, u, round)) ++heard;
        }
        active_deg[v] = heard;
        chunk.charge_symmetric_broadcast(v, awake_nbrs, heard, hello_bits);
      }
    });
    eng.scan_awake(
        alive, [&](BulkChunk&, std::span<const VertexId> part) {
          for (const VertexId v : part) {
            marked[v] = (active_deg[v] == 0 ||
                         util::step_rng(eng.seed(), v, iteration)
                             .bernoulli(1.0 / (2.0 * static_cast<double>(
                                                      active_deg[v]))))
                            ? 1
                            : 0;
          }
        });

    // Round 2: marked nodes exchange (degree, id); beaten marks unmark.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);
    }
    eng.charge_round(alive, round);
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t awake_nbrs = 0;
        std::uint64_t delivered_out = 0;
        std::uint64_t marked_adjacent = 0;
        bool w = marked[v] != 0;
        for (const VertexId u : g.neighbors(v)) {
          if (!eng.is_awake(u)) continue;
          ++awake_nbrs;
          if (lossy && !eng.link_up(v, u, round)) continue;
          ++delivered_out;
          if (marked[u] == 0) continue;
          ++marked_adjacent;
          if (w && priority_beats(active_deg[u], u, active_deg[v], v)) {
            w = false;
          }
        }
        if (marked[v] != 0) {
          chunk.charge_send(v, g.degree(v), delivered_out, mark_bits,
                            awake_nbrs - delivered_out);
        }
        chunk.charge_received(v, marked_adjacent);
        win[v] = w ? 1 : 0;
      }
    });

    // Round 3: winners announce and join; dominated neighbors exit.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);
    }
    eng.charge_round(alive, round);
    alive = eng.scan_awake(
                   alive,
                   [&](BulkChunk& chunk, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       std::uint64_t awake_nbrs = 0;
                       std::uint64_t delivered_out = 0;
                       std::uint64_t winners_adjacent = 0;
                       for (const VertexId u : g.neighbors(v)) {
                         if (!eng.is_awake(u)) continue;
                         ++awake_nbrs;
                         if (lossy && !eng.link_up(v, u, round)) continue;
                         ++delivered_out;
                         winners_adjacent += win[u];
                       }
                       if (win[v] != 0) {
                         chunk.charge_send(v, g.degree(v), delivered_out,
                                           in_mis_bits,
                                           awake_nbrs - delivered_out);
                       }
                       chunk.charge_received(v, winners_adjacent);
                       if (win[v] != 0) {
                         chunk.decide(v, 1, round);
                         chunk.finish(v, round);
                       } else if (winners_adjacent > 0) {
                         chunk.decide(v, 0, round);
                         chunk.finish(v, round);
                       } else {
                         chunk.keep(v);
                       }
                     }
                   })
                .kept;
  }
  const VirtualRound last = round;
  eng.scan_awake(alive, [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) chunk.finish(v, last);
  });
}

void BulkGreedy::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t rank_bits = rank_bits_for(n);
  const std::uint32_t rank_msg_bits = sim::Message::rank(0, rank_bits).bits;
  const std::uint32_t in_mis_bits = sim::Message::in_mis().bits;
  const std::uint64_t cap = options_.max_iterations != 0
                                ? options_.max_iterations
                                : default_iteration_cap(n);
  // One rank per node, drawn up front (round 0) by every node.
  std::vector<std::uint64_t> rank(n);
  if (options_.ranks_out != nullptr && options_.ranks_out->size() != n) {
    options_.ranks_out->resize(n);
  }
  eng.scan_range(n, [&](BulkChunk&, std::size_t begin, std::size_t end) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      rank[v] = util::rank_rng(eng.seed(), v).next() >> (64 - rank_bits);
      if (options_.ranks_out != nullptr) (*options_.ranks_out)[v] = rank[v];
    }
  });
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint8_t> win(n, 0);
  const bool dynamic = eng.dynamic();
  const bool lossy = eng.lossy();
  // Ranks are static (drawn at round 0), so a re-entrant only clears
  // its stale win bit and resumes the compare-exchange loop.
  const auto reenter = [&](VertexId v) { win[v] = 0; };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      if (alive.empty()) break;
    }
    eng.mark_awake(alive);
    eng.charge_round(alive, round);
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t awake_nbrs = 0;
        std::uint64_t heard = 0;
        bool w = true;
        for (const VertexId u : g.neighbors(v)) {
          if (!eng.is_awake(u)) continue;
          ++awake_nbrs;
          if (lossy && !eng.link_up(v, u, round)) continue;
          ++heard;
          if (priority_beats(rank[u], u, rank[v], v)) w = false;
        }
        chunk.charge_symmetric_broadcast(v, awake_nbrs, heard, rank_msg_bits);
        win[v] = w ? 1 : 0;
      }
    });

    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);
    }
    eng.charge_round(alive, round);
    alive = eng.scan_awake(
                   alive,
                   [&](BulkChunk& chunk, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       std::uint64_t awake_nbrs = 0;
                       std::uint64_t delivered_out = 0;
                       std::uint64_t winners_adjacent = 0;
                       for (const VertexId u : g.neighbors(v)) {
                         if (!eng.is_awake(u)) continue;
                         ++awake_nbrs;
                         if (lossy && !eng.link_up(v, u, round)) continue;
                         ++delivered_out;
                         winners_adjacent += win[u];
                       }
                       if (win[v] != 0) {
                         chunk.charge_send(v, g.degree(v), delivered_out,
                                           in_mis_bits,
                                           awake_nbrs - delivered_out);
                       }
                       chunk.charge_received(v, winners_adjacent);
                       if (win[v] != 0) {
                         chunk.decide(v, 1, round);
                         chunk.finish(v, round);
                       } else if (winners_adjacent > 0) {
                         chunk.decide(v, 0, round);
                         chunk.finish(v, round);
                       } else {
                         chunk.keep(v);
                       }
                     }
                   })
                .kept;
  }
  const VirtualRound last = round;
  eng.scan_awake(alive, [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) chunk.finish(v, last);
  });
}

void BulkIsraeliItai::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  constexpr std::uint32_t kIiBits = 10;  // tag + 2-bit discriminator
  const std::uint64_t cap = options_.max_iterations != 0
                                ? options_.max_iterations
                                : default_iteration_cap(n);
  std::vector<VertexId> alive = all_vertices(n);
  // Per-port active flags, indexed by CSR adjacency slot.
  std::vector<std::uint8_t> port_active(g.degree_sum(), 1);
  std::vector<std::uint32_t> active_count(n);
  for (VertexId v = 0; v < n; ++v) active_count[v] = g.degree(v);
  std::vector<std::uint8_t> proposer(n, 0);
  std::vector<VertexId> target(n, kInvalidVertex);
  std::vector<std::int64_t> partner(n, -1);
  std::vector<std::uint32_t> recv(n, 0);
  // Whether v's round-1 proposal actually arrived (captures both the
  // target's awake status and the round-1 link draw) — the acceptor
  // consults this instead of re-deriving last round's delivery.
  std::vector<std::uint8_t> sent_ok(n, 0);
  const bool dynamic = eng.dynamic();
  const bool lossy = eng.lossy();
  // A re-entrant resumes as an idle non-proposer with no pending match.
  // Its port view (port_active / active_count) survives the downtime:
  // matched neighbors it already struck stay struck, and any it missed
  // while away are struck again by later round-3 announcements or leave
  // it proposing to terminated nodes (delivery simply fails) — the same
  // staleness loss already handles.
  const auto reenter = [&](VertexId v) {
    proposer[v] = 0;
    target[v] = kInvalidVertex;
    partner[v] = -1;
    sent_ok[v] = 0;
    recv[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    // Nodes whose active neighborhood emptied terminate unmatched. In
    // the coroutine engine this runs during the previous round's resume,
    // so the decision carries the current round stamp.
    const VirtualRound now = round;
    alive = eng.scan_awake(
                   alive,
                   [&](BulkChunk& chunk, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       if (active_count[v] == 0) {
                         chunk.decide(v, -1, now);
                         chunk.finish(v, now);
                       } else {
                         chunk.keep(v);
                       }
                     }
                   })
                .kept;
    if (alive.empty()) break;

    // Role coins; proposers pick a uniformly random active port.
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) {
        partner[v] = -1;
        Rng rng = util::step_rng(eng.seed(), v, iteration);
        proposer[v] = rng.coin() ? 1 : 0;
        if (proposer[v] != 0) {
          std::uint64_t pick = rng.below(active_count[v]);
          const CsrOffset base = g.adjacency_offset(v);
          std::uint32_t port = 0;
          for (const std::uint32_t deg = g.degree(v); port < deg; ++port) {
            if (port_active[base + port] == 0) continue;
            if (pick == 0) break;
            --pick;
          }
          target[v] = g.neighbor(v, port);
        } else {
          target[v] = kInvalidVertex;
        }
      }
    });

    // Round 1: proposals travel one port each. Several proposers may
    // target one acceptor, so the receive tallies go through relaxed
    // atomic increments (an order-free integer sum).
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      if (alive.empty()) break;
    }
    eng.mark_awake(alive);
    eng.charge_round(alive, round);
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) recv[v] = 0;
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        if (proposer[v] == 0) continue;
        const VertexId t = target[v];
        const bool awake_t = eng.is_awake(t);
        const bool delivered =
            awake_t && (!lossy || eng.link_up(v, t, round));
        sent_ok[v] = delivered ? 1 : 0;
        chunk.charge_send(v, 1, delivered ? 1 : 0, kIiBits,
                          (awake_t && !delivered) ? 1 : 0);
        if (delivered) {
          std::atomic_ref(recv[t]).fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) chunk.charge_received(v, recv[v]);
    });

    // Round 2: acceptors answer the lowest-port proposal; the accepted
    // proposer and the acceptor become partners. A proposer targets
    // exactly one node, so partner[w] and recv[w] have a unique writer.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);
    }
    eng.charge_round(alive, round);
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) recv[v] = 0;
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId u : part) {
        if (proposer[u] != 0) continue;
        const auto nbrs = g.neighbors(u);
        for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
          const VertexId w = nbrs[p];
          // Answer the lowest-port proposal that actually arrived last
          // round. The acceptor commits to the match when it sends;
          // under faults the accept itself may be lost, leaving w
          // unmatched (it will keep proposing) — realistic asymmetry.
          if (proposer[w] == 0 || target[w] != u || sent_ok[w] == 0) {
            continue;
          }
          const bool awake_w = eng.is_awake(w);
          const bool delivered =
              awake_w && (!lossy || eng.link_up(u, w, round));
          chunk.charge_send(u, 1, delivered ? 1 : 0, kIiBits,
                            (awake_w && !delivered) ? 1 : 0);
          partner[u] = static_cast<std::int64_t>(w);
          if (delivered) {
            ++recv[w];
            partner[w] = static_cast<std::int64_t>(u);
          }
          break;
        }
      }
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) chunk.charge_received(v, recv[v]);
    });

    // Round 3: matched nodes announce and terminate; the rest strike
    // announced neighbors from their active port sets.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);
    }
    eng.charge_round(alive, round);
    alive =
        eng.scan_awake(
               alive,
               [&](BulkChunk& chunk, std::span<const VertexId> part) {
                 for (const VertexId v : part) {
                   std::uint64_t awake_nbrs = 0;
                   std::uint64_t delivered_out = 0;
                   std::uint64_t matched_adjacent = 0;
                   const auto nbrs = g.neighbors(v);
                   const CsrOffset base = g.adjacency_offset(v);
                   for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
                     const VertexId u = nbrs[p];
                     if (!eng.is_awake(u)) continue;
                     ++awake_nbrs;
                     if (lossy && !eng.link_up(v, u, round)) continue;
                     ++delivered_out;
                     if (partner[u] >= 0) {
                       ++matched_adjacent;
                       if (partner[v] < 0 && port_active[base + p] != 0) {
                         port_active[base + p] = 0;
                         --active_count[v];
                       }
                     }
                   }
                   if (partner[v] >= 0) {
                     chunk.charge_send(v, g.degree(v), delivered_out, kIiBits,
                                       awake_nbrs - delivered_out);
                   }
                   chunk.charge_received(v, matched_adjacent);
                   if (partner[v] >= 0) {
                     chunk.decide(v, partner[v], round);
                     chunk.finish(v, round);
                   } else {
                     chunk.keep(v);
                   }
                 }
               })
            .kept;
  }
  const VirtualRound last = round;
  eng.scan_awake(alive, [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) chunk.finish(v, last);
  });
}

void BulkBeepingMis::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t beep_bits = sim::Message::beep().bits;
  const std::uint64_t phase_cap = options_.max_phases != 0
                                      ? options_.max_phases
                                      : default_iteration_cap(n);
  const std::uint32_t id_bits = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  // Capped like algos/beeping_mis.cc so the 64-bit composite rank never
  // shifts out of range past n = 65536 (bit-compatibility requires the
  // identical cap).
  const std::uint32_t random_bits =
      std::min(rank_bits_for(n), 64 - id_bits);
  const std::uint32_t total_bits = random_bits + id_bits;
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint64_t> rank(n, 0);
  std::vector<std::uint8_t> contending(n, 0);
  std::vector<std::uint8_t> beeper(n, 0);
  const bool dynamic = eng.dynamic();
  const bool lossy = eng.lossy();
  // A re-entrant sits out the rest of the current auction (it missed
  // the phase's candidate draw) and contends from the next phase.
  const auto reenter = [&](VertexId v) {
    contending[v] = 0;
    beeper[v] = 0;
    rank[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t phase = 0; phase < phase_cap && !alive.empty(); ++phase) {
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) {
        Rng rng = util::step_rng(eng.seed(), v, phase);
        const bool candidate = rng.bernoulli(options_.candidate_prob);
        rank[v] = candidate
                      ? (rng.below(std::uint64_t{1} << random_bits)
                         << id_bits) |
                            v
                      : 0;
        contending[v] = candidate ? 1 : 0;
      }
    });
    eng.mark_awake(alive);  // one awake set for the whole phase

    // Bit auction, most significant bit first.
    for (std::uint32_t slot = 0; slot < total_bits; ++slot) {
      ++round;
      if (dynamic) {
        alive = eng.apply_dynamics(std::move(alive), round, reenter);
        eng.mark_awake(alive);
      }
      eng.charge_round(alive, round);
      const std::uint32_t bit_index = total_bits - 1 - slot;
      eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
        for (const VertexId v : part) {
          beeper[v] =
              (contending[v] != 0 && ((rank[v] >> bit_index) & 1) != 0) ? 1
                                                                        : 0;
        }
      });
      eng.scan_awake(alive, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
        for (const VertexId v : part) {
          std::uint64_t awake_nbrs = 0;
          std::uint64_t delivered_out = 0;
          std::uint64_t beeps_heard = 0;
          for (const VertexId u : g.neighbors(v)) {
            if (!eng.is_awake(u)) continue;
            ++awake_nbrs;
            if (lossy && !eng.link_up(v, u, round)) continue;
            ++delivered_out;
            beeps_heard += beeper[u];
          }
          if (beeper[v] != 0) {
            chunk.charge_send(v, g.degree(v), delivered_out, beep_bits,
                              awake_nbrs - delivered_out);
          }
          chunk.charge_received(v, beeps_heard);
          // A beeping node cannot listen; only silent contenders drop
          // out.
          if (beeper[v] == 0 && contending[v] != 0 && beeps_heard > 0) {
            contending[v] = 0;
          }
        }
      });
    }

    // Join slot: survivors beep-and-join; listeners that hear it exit.
    ++round;
    if (dynamic) {
      alive = eng.apply_dynamics(std::move(alive), round, reenter);
      eng.mark_awake(alive);
    }
    eng.charge_round(alive, round);
    alive = eng.scan_awake(
                   alive,
                   [&](BulkChunk& chunk, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       std::uint64_t awake_nbrs = 0;
                       std::uint64_t delivered_out = 0;
                       std::uint64_t joins_heard = 0;
                       for (const VertexId u : g.neighbors(v)) {
                         if (!eng.is_awake(u)) continue;
                         ++awake_nbrs;
                         if (lossy && !eng.link_up(v, u, round)) continue;
                         ++delivered_out;
                         joins_heard += contending[u];
                       }
                       if (contending[v] != 0) {
                         chunk.charge_send(v, g.degree(v), delivered_out,
                                           beep_bits,
                                           awake_nbrs - delivered_out);
                       }
                       chunk.charge_received(v, joins_heard);
                       if (contending[v] != 0) {
                         chunk.decide(v, 1, round);
                         chunk.finish(v, round);
                       } else if (joins_heard > 0) {
                         chunk.decide(v, 0, round);
                         chunk.finish(v, round);
                       } else {
                         chunk.keep(v);
                       }
                     }
                   })
                .kept;
  }
  const VirtualRound last = round;
  eng.scan_awake(alive, [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) chunk.finish(v, last);
  });
}

std::unique_ptr<BulkProtocol> bulk_mis_protocol(algos::MisEngine engine,
                                                core::RecursionTrace* trace) {
  switch (engine) {
    case algos::MisEngine::kSleeping:
      return std::make_unique<BulkSleepingMis>(core::SleepingMisOptions{},
                                               trace);
    case algos::MisEngine::kLubyA:
      return std::make_unique<BulkLubyA>();
    case algos::MisEngine::kLubyB:
      return std::make_unique<BulkLubyB>();
    case algos::MisEngine::kGreedy:
      return std::make_unique<BulkGreedy>();
    case algos::MisEngine::kFastSleeping:
    case algos::MisEngine::kGhaffari:
      return nullptr;
  }
  return nullptr;
}

bool bulk_supports(algos::MisEngine engine) {
  switch (engine) {
    case algos::MisEngine::kSleeping:
    case algos::MisEngine::kLubyA:
    case algos::MisEngine::kLubyB:
    case algos::MisEngine::kGreedy:
      return true;
    case algos::MisEngine::kFastSleeping:
    case algos::MisEngine::kGhaffari:
      return false;
  }
  return false;
}

}  // namespace slumber::bulk
