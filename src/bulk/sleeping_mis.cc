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
struct Walker {
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
        std::atomic_ref(value[v]).load(std::memory_order_relaxed));
  }

  void set_value(VertexId v, MisValue x) {
    std::atomic_ref(value[v]).store(static_cast<std::uint8_t>(x),
                                    std::memory_order_relaxed);
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
    const ScanResult detect1 = eng.scan_awake(
        members, [&](BulkChunk& chunk, std::span<const VertexId> part) {
          for (const VertexId v : part) {
            std::uint64_t awake_nbrs = 0;
            std::uint64_t heard = 0;
            for (const VertexId u : g.neighbors(v)) {
              if (!eng.is_awake(u)) continue;
              ++awake_nbrs;
              if (!lossy || eng.link_up(v, u, start)) ++heard;
            }
            chunk.charge_symmetric_broadcast(v, awake_nbrs, heard,
                                             hello_bits);
            if (heard == 0 && value_of(v) == MisValue::kUnknown) {
              set_value(v, MisValue::kTrue);
              chunk.decide(v, 1, start);
              chunk.bump();
            }
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
    eng.scan_awake(members, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t awake_nbrs = 0;
        std::uint64_t heard = 0;
        bool mis_neighbor = false;
        for (const VertexId u : g.neighbors(v)) {
          if (!eng.is_awake(u)) continue;
          ++awake_nbrs;
          if (lossy && !eng.link_up(v, u, sync)) continue;
          ++heard;
          mis_neighbor |= value_of(u) == MisValue::kTrue;
        }
        chunk.charge_symmetric_broadcast(v, awake_nbrs, heard, status_bits);
        if (mis_neighbor && value_of(v) == MisValue::kUnknown) {
          set_value(v, MisValue::kFalse);
          chunk.decide(v, 0, sync);
        }
      }
    });

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
    eng.scan_awake(members, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t awake_nbrs = 0;
        std::uint64_t heard = 0;
        bool all_eliminated = true;
        for (const VertexId u : g.neighbors(v)) {
          if (!eng.is_awake(u)) continue;
          ++awake_nbrs;
          // A neighbor whose status message is lost simply isn't heard;
          // it cannot block the join (that is the injected damage).
          if (lossy && !eng.link_up(v, u, detect2)) continue;
          ++heard;
          all_eliminated &= value_of(u) == MisValue::kFalse;
        }
        chunk.charge_symmetric_broadcast(v, awake_nbrs, heard, status_bits);
        if (all_eliminated && value_of(v) == MisValue::kUnknown) {
          set_value(v, MisValue::kTrue);
          chunk.decide(v, 1, detect2);
        }
      }
    });

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
