// Deterministic fault injection shared by both execution back ends.
//
// A FaultPlan describes what goes wrong in a run: a fail-stop crash
// schedule (node v crashes at the first round >= r in which it is
// awake), a probabilistic per-round crash rate, probabilistic message
// loss (memoryless and/or burst-correlated via a per-link
// Gilbert-Elliott channel), live network dynamics (mid-run leave/join
// churn and crash recovery, bulk engine only), and a post-run churn
// stream (joins/leaves with incremental MIS repair, bulk engine only —
// see fault/churn.h).
//
// Every probabilistic decision is a *pure function* of (run seed, fault
// identity): one util::keyed_uniform of a key that folds the entity the
// fault hits — the undirected edge and round for message loss, the node
// and round for crashes and leaves — never an engine's own RNG streams
// or any sequential generator. That is the property that makes the
// layer engine-independent: the coroutine scheduler evaluating "does
// the link (u, v) drop its messages in round t?" and a bulk-engine lane
// evaluating the same question on another thread, in another order, at
// another lane count, compute the identical bit. Message loss is
// symmetric per link per round (one draw for both directions), so a
// receiver-side count of surviving messages equals the sender-side
// count of deliveries and per-chunk accounting stays an order-free sum.
//
// Keys fold one entity per util::stream_key step, so no two (entity,
// round) pairs share a draw. Per-round draws key round-first — (seed ^
// tag, round_lo, round_hi, entity) — and FaultState::links / nodes
// compute the round half once, so a bulk scan pays one hash per
// neighbor it checks. The burst channel keys (seed ^ tag, epoch_hi,
// edge, epoch_lo): the edge before epoch_lo, because its scan walks
// back over the epochs of one edge.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/stream_rng.h"
#include "util/stream_tags.h"

namespace slumber::fault {

/// One entry of a deterministic fail-stop schedule: `node` crashes at
/// the start of the first round >= `round` in which it is awake.
struct CrashEvent {
  VertexId node = 0;
  std::uint64_t round = 0;
};

/// Burst-correlated message loss: a Gilbert-Elliott on/off channel per
/// undirected link. Virtual time is cut into fixed-length epochs of
/// `epoch_len` rounds; within an epoch the channel holds one state
/// (good delivers, bad drops everything). Across epochs the state
/// follows the two-state chain with per-epoch transition probabilities
/// p_on (good -> bad) and p_off (bad -> good), realized through its
/// regeneration coupling so that the state at epoch e is a pure keyed
/// function of (edge, e): with probability 1 - (p_on + p_off) the state
/// copies the previous epoch, otherwise it regenerates from the
/// stationary law Bernoulli(p_on / (p_on + p_off)). The coupling
/// requires p_on + p_off <= 1 (the CLI validates; larger sums are
/// clamped to the i.i.d. boundary). Composes with the independent
/// per-round loss_prob: a message dies if either mechanism fires.
struct BurstSpec {
  double p_on = 0.0;
  double p_off = 0.0;
  /// Rounds per channel epoch; 0 disables the model.
  std::uint64_t epoch_len = 0;

  bool enabled() const { return epoch_len > 0 && p_on > 0.0 && p_off > 0.0; }
  /// Long-run fraction of epochs (and so of rounds) spent bad.
  double stationary_loss() const { return p_on / (p_on + p_off); }
};

/// Mid-run churn (bulk engine only): each round a node participates in,
/// it leaves the network with probability `leave_prob` (keyed on
/// (round, node), exactly like crash draws). A leaver's downtime is
/// drawn at leave time from the same key — geometric with per-round
/// rejoin probability `join_prob`, distributionally identical to
/// independent per-round rejoin draws — after which it re-enters the
/// protocol in a reset state at the next faulty round. join_prob == 0
/// means leavers never return.
struct LiveChurnSpec {
  double leave_prob = 0.0;
  double join_prob = 0.0;

  bool enabled() const { return leave_prob > 0.0; }
};

/// Crash recovery (bulk engine only): a node that fail-stops comes back
/// after a keyed-draw downtime, geometric with mean `mean_down` rounds
/// (>= 1), re-entering the protocol in a reset state. 0 disables
/// recovery (crashes stay fail-stop-forever). Note that a *scheduled*
/// crash (`node crashes at any round >= r`) re-fires on the round after
/// the node recovers: under recovery a crash_schedule entry models a
/// permanently flaky node that bounces with period ~ downtime + 1, not
/// a one-shot event. Use crash_prob for transient random failures.
struct RecoverSpec {
  std::uint64_t mean_down = 0;

  bool enabled() const { return mean_down > 0; }
};

/// Churn stream configuration: after the protocol run, `batches` rounds
/// of membership churn hit the graph. In each batch every alive node
/// leaves with probability `leave_prob` and every departed node rejoins
/// with probability `join_prob`; after each batch the MIS is repaired
/// incrementally (fault/churn.h). Draws are keyed by (node, batch).
struct ChurnSpec {
  double leave_prob = 0.0;
  double join_prob = 0.0;
  std::uint32_t batches = 0;

  bool enabled() const {
    return batches > 0 && (leave_prob > 0.0 || join_prob > 0.0);
  }
};

/// The full fault configuration of a run. Engine-independent: the same
/// plan produces the same faults on the coroutine scheduler and the
/// bulk engine at every lane count.
struct FaultPlan {
  /// Deterministic fail-stop events (may list a node more than once;
  /// the earliest round wins).
  std::vector<CrashEvent> crash_schedule;
  /// Each round a node is awake it crashes independently with this
  /// probability, BEFORE sending (fail-stop; silent forever after).
  double crash_prob = 0.0;
  /// Each otherwise-deliverable message is lost with this probability.
  /// Loss is symmetric per undirected link per round.
  double loss_prob = 0.0;
  /// Burst-correlated loss on top of (or instead of) loss_prob; both
  /// engines evaluate it through link_down, so it works everywhere.
  BurstSpec burst;
  /// Mid-run membership churn (bulk engine only).
  LiveChurnSpec live_churn;
  /// Crash recovery (bulk engine only); inert without crash faults.
  RecoverSpec recover;
  /// Post-run membership churn (bulk engine only).
  ChurnSpec churn;
  /// Extra key folded into every draw, so two runs with the same seed
  /// can face independent fault streams.
  std::uint64_t salt = 0;

  bool has_crashes() const {
    return crash_prob > 0.0 || !crash_schedule.empty();
  }
  bool has_loss() const { return loss_prob > 0.0 || burst.enabled(); }
  /// Live dynamics mutate the membership mid-run; only the bulk engine
  /// supports them (the experiment layer rejects them elsewhere).
  bool has_live_dynamics() const {
    return live_churn.enabled() || (recover.enabled() && has_crashes());
  }
  bool empty() const {
    return !has_crashes() && !has_loss() && !live_churn.enabled() &&
           !recover.enabled() && !churn.enabled();
  }
};

namespace detail {

/// Inverse-CDF geometric draw on {1, 2, ...} with success probability
/// p, from one uniform: P(k) = (1-p)^(k-1) * p. The downtime primitive
/// of live churn and crash recovery. p >= 1 pins the draw at 1;
/// pathological inputs saturate at 2^62 rounds (never, in practice).
inline std::uint64_t geometric_from_uniform(double u, double p) {
  constexpr std::uint64_t kNever = std::uint64_t{1} << 62;
  if (p >= 1.0) return 1;
  if (p <= 0.0) return kNever;
  const double k = std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(k >= 0.0)) return 1;
  if (k >= 4.6e18) return kNever;
  return 1 + static_cast<std::uint64_t>(k);
}

}  // namespace detail

/// Forced-renewal period of the burst channel's regeneration coupling,
/// in epochs: every epoch on this grid regenerates from the stationary
/// law, which bounds LinkView::burst_bad's backward scan at the cost
/// of cutting state correlation across grid boundaries only (the
/// marginal at every epoch is exactly stationary either way).
inline constexpr std::uint64_t kBurstRenewalGrid = 64;
// LinkView's walk tests the grid on the epoch's low word alone, which
// is exact only while the grid divides 2^64.
static_assert((kBurstRenewalGrid & (kBurstRenewalGrid - 1)) == 0,
              "kBurstRenewalGrid must be a power of two");

/// Result of the mid-run leave draw for a participating node.
struct LeaveDraw {
  bool leaves = false;
  bool rejoins = false;
  /// Rounds out of the network before re-entry (>= 1); meaningful only
  /// when `rejoins` (join_prob == 0 leavers never return).
  std::uint64_t downtime = 0;
};

/// A FaultPlan bound to one run (seed + vertex count): the read-side
/// object both engines query. Copyable, cheap when inert; the borrowed
/// plan must outlive it. All queries are const and thread-safe — they
/// touch no mutable state, which is what lets bulk lanes evaluate
/// faults chunk-locally and merge in chunk order.
class FaultState {
 public:
  class LinkView;
  class NodeView;

  FaultState() = default;

  FaultState(const FaultPlan* plan, std::uint64_t run_seed, VertexId n)
      : plan_(plan) {
    if (plan_ == nullptr) return;
    seed_ = util::stream_key(run_seed, plan_->salt);
    crash_at_.reserve(plan_->crash_schedule.size());
    for (const CrashEvent& ev : plan_->crash_schedule) {
      if (ev.node < n) crash_at_.push_back({ev.node, ev.round});
    }
    std::sort(crash_at_.begin(), crash_at_.end());
    // Keep only the earliest round per node; lookups binary-search the
    // (small) schedule instead of paying an O(n) array at 10^8 nodes.
    crash_at_.erase(
        std::unique(crash_at_.begin(), crash_at_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        crash_at_.end());
  }

  bool active() const { return plan_ != nullptr && !plan_->empty(); }
  bool has_loss() const { return plan_ != nullptr && plan_->has_loss(); }
  bool has_crashes() const { return plan_ != nullptr && plan_->has_crashes(); }
  bool has_burst() const { return plan_ != nullptr && plan_->burst.enabled(); }
  bool has_live_churn() const {
    return plan_ != nullptr && plan_->live_churn.enabled();
  }
  /// Recovery needs crashes to recover from; inert otherwise.
  bool has_recovery() const {
    return plan_ != nullptr && plan_->recover.enabled() && has_crashes();
  }
  const FaultPlan* plan() const { return plan_; }
  /// The derived fault seed; churn/repair streams key off this.
  std::uint64_t seed() const { return seed_; }

  /// The link draws of one round with everything that depends on the
  /// round alone (the loss key, the burst epoch) computed once. Rounds
  /// are passed as (lo, hi) halves of the bulk engine's 128-bit virtual
  /// clock; the coroutine scheduler passes hi = 0. Bulk scans take the
  /// view before walking their neighbor spans.
  LinkView links(std::uint64_t round_lo, std::uint64_t round_hi) const;

  /// The crash and mid-run leave draws of one round, hoisted likewise.
  NodeView nodes(std::uint64_t round_lo, std::uint64_t round_hi) const;

  /// Does node v, awake in the given round, fail-stop at the start of
  /// it? Only meaningful for rounds in which v is actually awake — both
  /// engines evaluate it exactly there, which is why they agree.
  bool crashes_now(VertexId v, std::uint64_t round_lo,
                   std::uint64_t round_hi) const;

  /// Is the undirected link {a, b} down in the given round? See
  /// LinkView::down.
  bool link_down(VertexId a, VertexId b, std::uint64_t round_lo,
                 std::uint64_t round_hi) const;

  /// Is the {a, b} burst channel in its bad (all-dropping) state in the
  /// given round? See LinkView::burst_bad.
  bool burst_bad(VertexId a, VertexId b, std::uint64_t round_lo,
                 std::uint64_t round_hi) const;

  /// Mid-run churn: does node v, participating in the given round,
  /// leave the network now — and if so, for how long? See
  /// NodeView::leave.
  LeaveDraw live_leave(VertexId v, std::uint64_t round_lo,
                       std::uint64_t round_hi) const;

  /// Crash recovery: the downtime (>= 1 rounds) before node v, crashed
  /// at the given round, comes back; geometric with mean
  /// RecoverSpec::mean_down, keyed on (crash round, node).
  std::uint64_t recover_downtime(VertexId v, std::uint64_t round_lo,
                                 std::uint64_t round_hi) const {
    const double u = util::keyed_uniform(
        round_key(util::stream_tags::kRecoverTag, round_lo, round_hi), v);
    return detail::geometric_from_uniform(
        u, 1.0 / static_cast<double>(plan_->recover.mean_down));
  }

 private:
  /// The round half of a per-round draw key: the fault seed folded with
  /// the draw's tag, then with both halves of the round. Every entity
  /// the round's draws hit folds into it in its keyed_uniform.
  std::uint64_t round_key(std::uint64_t tag, std::uint64_t round_lo,
                          std::uint64_t round_hi) const {
    return util::stream_key(util::stream_key(seed_ ^ tag, round_lo), round_hi);
  }

  const FaultPlan* plan_ = nullptr;
  std::uint64_t seed_ = 0;
  // Sorted (node, earliest crash round) pairs from the schedule.
  std::vector<std::pair<VertexId, std::uint64_t>> crash_at_;
};

/// The link draws of one round (FaultState::links). A plain value: it
/// copies the keys and thresholds it needs, so the hot neighbor loop
/// reads nothing through the plan.
class FaultState::LinkView {
 public:
  /// Is the undirected link {a, b} down in this round? Symmetric: the
  /// pair is canonicalized, so both directions (and both engines, and
  /// every lane) share one draw. That is what lets a caller evaluate
  /// it once per link and round and apply the bit to both endpoints:
  /// the bulk SleepingMIS's lossy rounds ask from the lower endpoint
  /// only, the coroutine scheduler from each sender. A link is down
  /// when its burst channel is in the bad state OR the independent
  /// memoryless loss draw fires — the two mechanisms compose. Always
  /// false without a loss plan.
  bool down(VertexId a, VertexId b) const {
    const std::uint64_t edge = edge_id(a, b);
    if (burst_ && burst_state(edge)) return true;
    return loss_prob_ > 0.0 && util::keyed_uniform(loss_key_, edge) < loss_prob_;
  }

  /// Is the {a, b} burst channel in its bad (all-dropping) state in
  /// this round? A pure function of (edge, epoch): the Gilbert-Elliott
  /// chain is realized through its regeneration coupling — each epoch
  /// either copies the previous epoch's state (probability
  /// 1 - (p_on + p_off)) or regenerates from the stationary law
  /// Bernoulli(p_on / (p_on + p_off)) — so the state at any epoch is
  /// found by scanning backward to the most recent regenerating epoch.
  /// Epochs on the kBurstRenewalGrid always regenerate, bounding the
  /// scan; every draw is keyed on (edge, epoch), so lane count, engine,
  /// and evaluation order cannot change a single bit.
  bool burst_bad(VertexId a, VertexId b) const {
    return burst_ && burst_state(edge_id(a, b));
  }

 private:
  friend class FaultState;

  /// The undirected link's id: the canonical pair packed into one word,
  /// so distinct links never share an id.
  static std::uint64_t edge_id(VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (std::uint64_t{a} << 32) | b;
  }

  // Kept out of line: inlined into a scan's neighbor loop, the walk's
  // registers crowd the loop's fault-free path, which then spills its
  // iterator (measured ~10% slower fault-free SleepingMIS and Luby-B
  // scans). Defined in the header, so the compiler still sees that it
  // writes no memory and keeps the loop's loads hoisted.
  [[gnu::noinline]] bool burst_state(std::uint64_t edge) const {
    // The edge folds in once per query, then each epoch the scan visits
    // costs one hash. Grid epochs (epoch_lo on the grid, since the grid
    // divides 2^64) regenerate unconditionally, so the scan never
    // leaves the view's epoch_hi and takes at most kBurstRenewalGrid
    // steps — in expectation min(1/regen_rate, grid). The state uniform
    // is drawn on the regenerating epoch only.
    const std::uint64_t edge_key = util::stream_key(burst_key_, edge);
    for (std::uint64_t lo = epoch_lo_;; --lo) {
      if (lo % kBurstRenewalGrid == 0 ||
          util::keyed_uniform(edge_key, lo) < regen_rate_) {
        return util::keyed_uniform(util::stream_key(edge_key, lo), 1) <
               stationary_;
      }
    }
  }

  std::uint64_t loss_key_ = 0;
  double loss_prob_ = 0.0;
  bool burst_ = false;
  std::uint64_t burst_key_ = 0;
  std::uint64_t epoch_lo_ = 0;
  double regen_rate_ = 0.0;
  double stationary_ = 0.0;
};

/// The crash and mid-run leave draws of one round (FaultState::nodes).
/// Borrows the FaultState it came from.
class FaultState::NodeView {
 public:
  /// Does node v, awake in this round, fail-stop at the start of it?
  bool crashes(VertexId v) const {
    if (!fs_->has_crashes()) return false;
    const auto& schedule = fs_->crash_at_;
    const auto it = std::lower_bound(
        schedule.begin(), schedule.end(), v,
        [](const auto& e, VertexId node) { return e.first < node; });
    if (it != schedule.end() && it->first == v &&
        (round_hi_ > 0 || round_lo_ >= it->second)) {
      return true;
    }
    const double crash_prob = fs_->plan_->crash_prob;
    return crash_prob > 0.0 && util::keyed_uniform(crash_key_, v) < crash_prob;
  }

  /// Does node v, participating in this round, leave the network now —
  /// and if so, for how long? Both come from one key, (round, node): the
  /// downtime is a second hash of it, so every lane (and a serial
  /// rerun) computes identical bits. Like crashes, only meaningful for
  /// rounds v actually participates in.
  LeaveDraw leave(VertexId v) const {
    LeaveDraw draw;
    if (!fs_->has_live_churn()) return draw;
    const LiveChurnSpec& spec = fs_->plan_->live_churn;
    if (!(util::keyed_uniform(leave_key_, v) < spec.leave_prob)) return draw;
    draw.leaves = true;
    if (spec.join_prob > 0.0) {
      draw.rejoins = true;
      draw.downtime = detail::geometric_from_uniform(
          util::keyed_uniform(util::stream_key(leave_key_, v), 1),
          spec.join_prob);
    }
    return draw;
  }

 private:
  friend class FaultState;

  const FaultState* fs_ = nullptr;
  std::uint64_t round_lo_ = 0;
  std::uint64_t round_hi_ = 0;
  std::uint64_t crash_key_ = 0;
  std::uint64_t leave_key_ = 0;
};

inline FaultState::LinkView FaultState::links(std::uint64_t round_lo,
                                              std::uint64_t round_hi) const {
  LinkView view;
  if (!has_loss()) return view;
  if (plan_->loss_prob > 0.0) {
    view.loss_prob_ = plan_->loss_prob;
    view.loss_key_ =
        round_key(util::stream_tags::kLossTag, round_lo, round_hi);
  }
  if (has_burst()) {
    const BurstSpec& burst = plan_->burst;
    using Wide = unsigned __int128;
    const Wide epoch = ((Wide{round_hi} << 64) | round_lo) / burst.epoch_len;
    // NOLINTNEXTLINE(slumber-d7): lossless lo/hi split; both halves key the stream
    view.epoch_lo_ = static_cast<std::uint64_t>(epoch);
    // NOLINTNEXTLINE(slumber-d7): lossless lo/hi split; both halves key the stream
    const std::uint64_t epoch_hi = static_cast<std::uint64_t>(epoch >> 64);
    view.burst_ = true;
    view.burst_key_ =
        util::stream_key(seed_ ^ util::stream_tags::kBurstTag, epoch_hi);
    // The coupling needs p_on + p_off <= 1 (CLI-validated); clamping to
    // the boundary degrades gracefully to i.i.d. stationary states.
    view.regen_rate_ = std::min(burst.p_on + burst.p_off, 1.0);
    view.stationary_ = burst.stationary_loss();
  }
  return view;
}

inline FaultState::NodeView FaultState::nodes(std::uint64_t round_lo,
                                              std::uint64_t round_hi) const {
  NodeView view;
  view.fs_ = this;
  view.round_lo_ = round_lo;
  view.round_hi_ = round_hi;
  if (has_crashes() && plan_->crash_prob > 0.0) {
    view.crash_key_ =
        round_key(util::stream_tags::kCrashTag, round_lo, round_hi);
  }
  if (has_live_churn()) {
    view.leave_key_ =
        round_key(util::stream_tags::kLiveChurnTag, round_lo, round_hi);
  }
  return view;
}

inline bool FaultState::crashes_now(VertexId v, std::uint64_t round_lo,
                                    std::uint64_t round_hi) const {
  return nodes(round_lo, round_hi).crashes(v);
}

inline bool FaultState::link_down(VertexId a, VertexId b,
                                  std::uint64_t round_lo,
                                  std::uint64_t round_hi) const {
  return links(round_lo, round_hi).down(a, b);
}

inline bool FaultState::burst_bad(VertexId a, VertexId b,
                                  std::uint64_t round_lo,
                                  std::uint64_t round_hi) const {
  return links(round_lo, round_hi).burst_bad(a, b);
}

inline LeaveDraw FaultState::live_leave(VertexId v, std::uint64_t round_lo,
                                        std::uint64_t round_hi) const {
  return nodes(round_lo, round_hi).leave(v);
}

}  // namespace slumber::fault
