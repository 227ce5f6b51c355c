#include "bulk/sleeping_mis.h"

#include <atomic>
#include <numeric>
#include <utility>

#include "core/mis_state.h"
#include "core/schedule.h"
#include "obs/obs.h"
#include "sim/message.h"
#include "util/alloc.h"

namespace slumber::bulk {
namespace {

using core::MisValue;

/// T(k) = 3(2^k - 1) in 128 bits (core::schedule_duration overflows
/// std::uint64_t for k >= 62, which n = 10M reaches: K = 70).
VirtualRound duration128(std::uint32_t k) {
  return (VirtualRound{1} << k) * 3 - 3;
}

// The recursion walker. Depth-first order over the recursion tree is
// exactly virtual-time order: a frame at parameter k starting at round s
// owns [s, s+T(k)-1], partitioned into its first detection round {s},
// the left child's window, the synchronization round, the second
// detection round, and the right child's window.
//
// Each of the three communication rounds of a frame is one sharded
// scan_awake() over the member list. Per-node tri-state statuses are
// accessed through relaxed std::atomic_ref: the sync scan's predicate
// ("has a kTrue neighbor") only races against Unknown -> False
// transitions and the second detection's ("all neighbors kFalse") only
// against Unknown -> True, so — exactly the argument that lets the
// serial code scan in place — the concurrent value is deterministic
// regardless of lane interleaving.
//
// Under message loss a round is two scans instead (lossy_round): pass
// 1 draws each awake link once, from its lower endpoint, and ORs a
// kHeard bit into the status byte of each endpoint that heard a
// relevant neighbor; pass 2 reads and clears every member's bit and
// applies the round's transitions. Pass 1 changes no status, so by the
// same argument its snapshot reads see the in-place scan's predicates.
struct Walker {
  // Spare bit of a status byte (MisValue uses 0-2): set in pass 1 of a
  // lossy round, cleared in its pass 2, so it is zero between rounds.
  static constexpr std::uint8_t kHeard = 0x80;
  // Speaker masks for lossy_round: bit s set means a heard neighbor of
  // status s counts.
  static constexpr unsigned kAnyStatus = 0b111;
  static constexpr unsigned kTrueStatus =
      1u << static_cast<unsigned>(MisValue::kTrue);
  static constexpr unsigned kUndecidedOrTrue =
      kTrueStatus | 1u << static_cast<unsigned>(MisValue::kUnknown);

  BulkEngine& eng;
  const Graph& g;
  core::RecursionTrace* trace;
  double coin_bias;
  util::PodVector<std::uint8_t> value;  // MisValue per node
  std::uint32_t hello_bits;
  std::uint32_t status_bits;
  // Fault flags hoisted once per run; the fault-free hot loops pay one
  // predictable branch.
  bool dynamic = false;
  bool lossy = false;
  // Live-dynamics re-entry hook: a node coming back (crash recovery or
  // churn rejoin) resumes undecided in whatever frame is current, so
  // its tri-state status must return to kUnknown (the engine already
  // cleared its decision state).
  std::function<void(VertexId)> reenter;

  MisValue value_of(VertexId v) {
    return static_cast<MisValue>(
        std::atomic_ref(value[v]).load(std::memory_order_relaxed) & ~kHeard);
  }

  void set_value(VertexId v, MisValue x) {
    std::atomic_ref(value[v]).store(static_cast<std::uint8_t>(x),
                                    std::memory_order_relaxed);
  }

  /// Whether v's status is in the speaker mask `speakers`.
  bool speaks(unsigned speakers, VertexId v) {
    return ((speakers >> static_cast<unsigned>(value_of(v))) & 1) != 0;
  }

  /// Pass 2's read-and-clear of v's kHeard bit. Only v's owner calls
  /// it, after pass 1's barrier.
  bool take_heard(VertexId v) {
    std::atomic_ref byte(value[v]);
    const std::uint8_t bits = byte.load(std::memory_order_relaxed);
    if ((bits & kHeard) == 0) return false;
    byte.store(static_cast<std::uint8_t>(bits & ~kHeard),
               std::memory_order_relaxed);
    return true;
  }

  /// One lossy broadcast round over the marked awake set `members`:
  /// every member sends `bits`-wide on all ports, and settle(chunk, v,
  /// heard) runs for each member, where `heard` says whether v heard a
  /// neighbor whose status is in `speakers`. Returns pass 2's scan.
  template <typename Settle>
  ScanResult lossy_round(const std::vector<VertexId>& members,
                         const fault::FaultState::LinkView& links,
                         unsigned speakers, std::uint32_t bits,
                         const Settle& settle) {
    // Pass 1: each awake pair {v, u}, v < u, is drawn once, by the chunk
    // owning v. Other chunks OR into the same status bytes, so every
    // write is a relaxed atomic; a load first skips the read-modify-
    // write once the bit is set. ORs and sums are order-free, so the
    // result is bitwise independent of the lane count.
    eng.scan_awake(members, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
      std::uint64_t degree_sum = 0;
      std::uint64_t awake_pairs = 0;
      std::uint64_t heard_pairs = 0;
      for (const VertexId v : part) {
        const std::span<const VertexId> nbrs = g.neighbors(v);
        degree_sum += nbrs.size();
        chunk.charge_broadcast_sent(v);
        const bool v_speaks = speaks(speakers, v);
        bool v_heard = false;
        for (const VertexId u : nbrs) {
          if (u < v || !eng.is_awake(u)) continue;
          ++awake_pairs;
          if (links.down(v, u)) continue;
          ++heard_pairs;
          chunk.charge_heard_pair(v, u);
          v_heard |= speaks(speakers, u);
          std::atomic_ref u_byte(value[u]);
          if (v_speaks &&
              (u_byte.load(std::memory_order_relaxed) & kHeard) == 0) {
            u_byte.fetch_or(kHeard, std::memory_order_relaxed);
          }
        }
        std::atomic_ref v_byte(value[v]);
        if (v_heard && (v_byte.load(std::memory_order_relaxed) & kHeard) == 0) {
          v_byte.fetch_or(kHeard, std::memory_order_relaxed);
        }
      }
      chunk.charge_pair_broadcast(degree_sum, awake_pairs, heard_pairs, bits);
    });
    // Pass 2, after pass 1's barrier: owner-only reads and transitions.
    return eng.scan_awake(members, [&](BulkChunk& chunk,
                                       std::span<const VertexId> part) {
      for (const VertexId v : part) settle(chunk, v, take_heard(v));
    });
  }

  /// Lines 9-12 of the paper: the k = 0 base case. It spends no rounds;
  /// its code runs during the resume of the parent's preceding
  /// communication round, so decisions are stamped with that round.
  void base_case(std::uint64_t path, VirtualRound decide_round,
                 const std::vector<VertexId>& members) {
    if (trace != nullptr) {
      trace->calls[{0, path}].participants += members.size();
    }
    eng.scan_awake(members, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
      for (const VertexId v : part) {
        if (value_of(v) == MisValue::kUnknown) {
          set_value(v, MisValue::kTrue);
          chunk.decide(v, 1, decide_round);
        }
      }
    });
  }

  void frame(std::uint32_t k, std::uint64_t path, VirtualRound start,
             std::vector<VertexId> members) {
    // Telemetry: count every frame, but emit spans only for frames big
    // enough to shard (sub-cutoff frames number in the millions at
    // n = 10^7 and would swamp the event buffers).
    obs::progress_frame();
    obs::Span frame_span(
        members.size() >= eng.options().parallel_cutoff ? "mis" : nullptr,
        "frame", k);
    core::CallStats* stats = nullptr;
    if (trace != nullptr) {
      stats = &trace->calls[{k, path}];
      stats->participants += members.size();
      stats->first_round =
          std::min(stats->first_round, saturate_round(start));
    }

    // First isolated-node detection (lines 13-16), 1 round: only this
    // frame's members are awake, so hearing no hello means "isolated in
    // G[U]" (under loss: effectively isolated this round).
    if (dynamic) members = eng.apply_dynamics(std::move(members), start, reenter);
    eng.mark_awake(members);
    eng.charge_round(members, start);
    const auto join_if_isolated = [&](BulkChunk& chunk, VertexId v,
                                      bool heard) {
      if (!heard && value_of(v) == MisValue::kUnknown) {
        set_value(v, MisValue::kTrue);
        chunk.decide(v, 1, start);
        chunk.bump();
      }
    };
    const ScanResult detect1 =
        lossy ? lossy_round(members, eng.links(start), kAnyStatus, hello_bits,
                            join_if_isolated)
              : eng.scan_awake(members, [&](BulkChunk& chunk,
                                            std::span<const VertexId> part) {
                  for (const VertexId v : part) {
                    std::uint64_t awake_nbrs = 0;
                    for (const VertexId u : g.neighbors(v)) {
                      if (eng.is_awake(u)) ++awake_nbrs;
                    }
                    chunk.charge_symmetric_broadcast(v, awake_nbrs,
                                                     hello_bits);
                    join_if_isolated(chunk, v, awake_nbrs > 0);
                  }
                });
    if (stats != nullptr) stats->isolated_joins += detect1.user;

    // Left recursion (lines 17-21): undecided members with X_k = 1,
    // drawn only for them. The keep() lists concatenate in chunk order,
    // preserving member order.
    std::vector<VertexId> left =
        eng.scan_awake(members,
                       [&](BulkChunk& chunk, std::span<const VertexId> part) {
                         for (const VertexId v : part) {
                           if (value_of(v) == MisValue::kUnknown &&
                               util::coin(eng.seed(), v, k, coin_bias)) {
                             chunk.keep(v);
                           }
                         }
                       })
            .kept;
    if (stats != nullptr) stats->left += left.size();
    if (!left.empty()) {
      if (k == 1) {
        base_case(path << 1, start, left);
      } else {
        frame(k - 1, path << 1, start + 1, std::move(left));
      }
    }
    left = {};

    // Synchronization step (lines 22-25), 1 round: an undecided node
    // with an MIS neighbor in the frame is eliminated. Only
    // Unknown -> False transitions happen here, so the in-place status
    // scan observes the same "has a kTrue neighbor" predicate the
    // coroutine engine's message snapshot does — per lane as well as
    // serially.
    const VirtualRound sync = start + duration128(k - 1) + 1;
    if (dynamic) members = eng.apply_dynamics(std::move(members), sync, reenter);
    eng.mark_awake(members);  // children bumped the epoch during the left call
    eng.charge_round(members, sync);
    const auto eliminate_if_mis_neighbor = [&](BulkChunk& chunk, VertexId v,
                                               bool mis_neighbor) {
      if (mis_neighbor && value_of(v) == MisValue::kUnknown) {
        set_value(v, MisValue::kFalse);
        chunk.decide(v, 0, sync);
      }
    };
    if (lossy) {
      lossy_round(members, eng.links(sync), kTrueStatus, status_bits,
                  eliminate_if_mis_neighbor);
    } else {
      eng.scan_awake(members, [&](BulkChunk& chunk,
                                  std::span<const VertexId> part) {
        for (const VertexId v : part) {
          std::uint64_t awake_nbrs = 0;
          bool mis_neighbor = false;
          for (const VertexId u : g.neighbors(v)) {
            if (!eng.is_awake(u)) continue;
            ++awake_nbrs;
            mis_neighbor |= value_of(u) == MisValue::kTrue;
          }
          chunk.charge_symmetric_broadcast(v, awake_nbrs, status_bits);
          eliminate_if_mis_neighbor(chunk, v, mis_neighbor);
        }
      });
    }

    // Second isolated-node detection (lines 26-29), 1 round: an
    // undecided node all of whose frame neighbors are eliminated joins.
    // Only Unknown -> True transitions happen, and both Unknown and True
    // block a neighbor's join, so the in-place scan is again exact.
    const VirtualRound detect2 = sync + 1;
    if (dynamic) {
      members = eng.apply_dynamics(std::move(members), detect2, reenter);
      eng.mark_awake(members);  // membership changed; sync's marking is stale
    }
    eng.charge_round(members, detect2);
    // A neighbor whose status message is lost simply isn't heard; it
    // cannot block the join (that is the injected damage).
    const auto join_if_all_eliminated = [&](BulkChunk& chunk, VertexId v,
                                            bool blocked) {
      if (!blocked && value_of(v) == MisValue::kUnknown) {
        set_value(v, MisValue::kTrue);
        chunk.decide(v, 1, detect2);
      }
    };
    if (lossy) {
      lossy_round(members, eng.links(detect2), kUndecidedOrTrue, status_bits,
                  join_if_all_eliminated);
    } else {
      eng.scan_awake(members, [&](BulkChunk& chunk,
                                  std::span<const VertexId> part) {
        for (const VertexId v : part) {
          std::uint64_t awake_nbrs = 0;
          bool all_eliminated = true;
          for (const VertexId u : g.neighbors(v)) {
            if (!eng.is_awake(u)) continue;
            ++awake_nbrs;
            all_eliminated &= value_of(u) == MisValue::kFalse;
          }
          chunk.charge_symmetric_broadcast(v, awake_nbrs, status_bits);
          join_if_all_eliminated(chunk, v, !all_eliminated);
        }
      });
    }

    // Right recursion (lines 30-34): still-undecided members.
    std::vector<VertexId> right =
        eng.scan_awake(members,
                       [&](BulkChunk& chunk, std::span<const VertexId> part) {
                         for (const VertexId v : part) {
                           if (value_of(v) == MisValue::kUnknown) {
                             chunk.keep(v);
                           }
                         }
                       })
            .kept;
    if (stats != nullptr) stats->right += right.size();
    if (!right.empty()) {
      if (k == 1) {
        base_case((path << 1) | 1, detect2, right);
      } else {
        frame(k - 1, (path << 1) | 1, detect2 + 1, std::move(right));
      }
    }
  }
};

}  // namespace

void BulkSleepingMis::run(BulkEngine& engine) {
  const Graph& g = engine.graph();
  const std::uint64_t n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t levels =
      options_.levels != 0 ? options_.levels : core::recursion_depth(n);

  obs::Span run_span("mis", "sleeping_mis", n);
  Walker w{engine,
           g,
           trace_,
           options_.coin_bias,
           {},
           sim::Message::hello().bits,
           sim::Message::status(0).bits,
           engine.dynamic(),
           engine.lossy(),
           {}};
  w.reenter = [&w](VertexId v) { w.set_value(v, core::MisValue::kUnknown); };

  // First-touch placement for the tri-state statuses: each lane's slice
  // of every later sharded scan lands on pages that lane touched first.
  // Placement only; contents (and every result) are bitwise unaffected.
  util::ThreadPool* touch_pool =
      engine.options().first_touch && engine.options().pool != nullptr &&
              engine.options().pool->num_threads() > 1
          ? engine.options().pool
          : nullptr;
  {
    obs::Span span("mis", "placement", n);
    w.value = util::sharded_fill<std::uint8_t>(
        n, static_cast<std::uint8_t>(core::MisValue::kUnknown), touch_pool);
  }

  // A traced run records every node's coins, as core::sleeping_mis does.
  if (trace_ != nullptr) {
    trace_->levels = levels;
    if (trace_->bits.size() != n) trace_->bits.resize(n);
    engine.scan_range(n, [&](BulkChunk&, std::size_t begin, std::size_t end) {
      for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
        trace_->bits[v] =
            core::coin_bits(engine.seed(), v, levels, options_.coin_bias);
      }
    });
  }

  std::vector<VertexId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), VertexId{0});

  if (levels == 0) {
    // K = 0: the whole run is the base case, executed at round 0 with no
    // communication (matches the coroutine engine on n <= 1).
    w.base_case(0, 0, everyone);
    for (VertexId v = 0; v < n; ++v) engine.finish(v, 0);
    return;
  }

  // The root frame owns rounds [1, T(K)]; every node returns at T(K)
  // (Lemma 1's synchronization guarantee), trailing sleeps included.
  const VirtualRound total = duration128(levels);
  obs::progress_phase("recursion");
  obs::progress_total(static_cast<double>(total));
  w.frame(levels, 0, 1, std::move(everyone));
  obs::progress_phase("finish");
  obs::Span finish_span("mis", "final_finish", n);
  engine.scan_range(n, [&](BulkChunk& chunk, std::size_t begin,
                           std::size_t end) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      // Down nodes (crashed or departed) got their finish_round stamped
      // when they dropped out.
      if (!engine.down(v)) chunk.finish(v, total);
    }
  });
}

BulkResult bulk_sleeping_mis(const Graph& g, std::uint64_t seed,
                             core::SleepingMisOptions options,
                             core::RecursionTrace* trace,
                             BulkOptions engine_options) {
  BulkSleepingMis protocol(options, trace);
  return run_bulk(g, seed, protocol, engine_options);
}

}  // namespace slumber::bulk
