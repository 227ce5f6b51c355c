// The keyed RNG stream-tag registry: every domain-separation tag that
// keys a util::stream_rng draw lives here, as a named constant.
//
// Why a registry: a keyed stream's identity is (seed, stream), and the
// stream id is built by folding a 64-bit *tag* with the faulted /
// generated entity (edge id, node id, round, batch...). Two subsystems
// picking tags independently could collide, at which point their draws
// become correlated — e.g. a message-loss draw and a crash draw for the
// same (node, round) would flip together, silently biasing the paper's
// awake-complexity numbers while every determinism test still passes
// (the bug is *reproducible*, just wrong). Hand-picked hex constants in
// scattered files (the pre-PR-9 state of fault/fault.h) had no
// collision check at all.
//
// Registry rules (machine-checked by slumber-d6 in
// tools/lint/ast_checks.py, and by the static_assert below):
//
//   1. Every tag is declared in THIS file, in the strict format
//          // SLUMBER-STREAM-TAG(<name>): <what the stream draws>
//          inline constexpr std::uint64_t k<Name>Tag = 0x....ULL;
//      and is listed in kAllStreamTags.
//   2. Tags are pairwise distinct in their HIGH 32 bits. Stream ids
//      mix the tag with entity keys whose entropy lives in the low
//      bits (node ids, rounds), so the high half is the part that must
//      carry the domain separation on its own.
//   3. Every util::stream_rng call site under src/ either derives its
//      stream argument from a registered tag, or sits on a documented
//      block-counter discipline (a dense counter over disjoint work
//      blocks, e.g. the sharded G(n, p) generator's per-block streams)
//      marked with an adjacent
//          // SLUMBER-STREAM-DISCIPLINE(block-counter): <why sound>
//      annotation. Anything else is a slumber-d6 finding.
//
// Adding a tag: pick a fresh high-32 prefix (grep this file), keep the
// low half as a small serial, add the annotation line, append it to
// kAllStreamTags. The static_assert fails the build on a collision
// before the linter ever runs.
#pragma once

#include <cstdint>

namespace slumber::util::stream_tags {

// SLUMBER-STREAM-TAG(loss): symmetric per-(edge, round) message-loss
// draws (fault/fault.h, FaultState::link_down).
inline constexpr std::uint64_t kLossTag = 0x10557AD0'5EED'0001ULL;

// SLUMBER-STREAM-TAG(crash): per-(node, round) fail-stop draws
// (fault/fault.h, FaultState::crashes_now).
inline constexpr std::uint64_t kCrashTag = 0xC4A54AD0'5EED'0002ULL;

// SLUMBER-STREAM-TAG(churn): per-(node, batch) membership draws of the
// post-run churn stream (fault/churn.cc).
inline constexpr std::uint64_t kChurnTag = 0xC4024AD0'5EED'0003ULL;

// SLUMBER-STREAM-TAG(repair): per-node repair priorities of the
// incremental MIS repair (fault/churn.cc, prio/beats).
inline constexpr std::uint64_t kRepairTag = 0x4EBA14D0'5EED'0004ULL;

// SLUMBER-STREAM-TAG(burst): per-(edge, epoch) Gilbert-Elliott channel
// regeneration + state draws of the burst-loss model (fault/fault.h,
// FaultState::burst_bad).
inline constexpr std::uint64_t kBurstTag = 0xB5257AD0'5EED'0005ULL;

// SLUMBER-STREAM-TAG(live-churn): per-(node, round) mid-run leave draws
// plus the rejoin-downtime draw taken from the same stream at leave
// time (fault/fault.h, FaultState::live_leave).
inline constexpr std::uint64_t kLiveChurnTag = 0x11FEC4D0'5EED'0006ULL;

// SLUMBER-STREAM-TAG(recover): per-(node, crash round) downtime draws
// of crash recovery (fault/fault.h, FaultState::recover_downtime).
inline constexpr std::uint64_t kRecoverTag = 0x4EC0FED0'5EED'0007ULL;

// SLUMBER-STREAM-TAG(coin): per-(node, level) coins X_k (util::coin).
inline constexpr std::uint64_t kCoinTag = 0xC0125AD0'5EED'0008ULL;

// SLUMBER-STREAM-TAG(rank): one-shot per-node ranks (util::rank_rng).
inline constexpr std::uint64_t kRankTag = 0x4A4C5AD0'5EED'0009ULL;

// SLUMBER-STREAM-TAG(step): per-(node, iteration) draws (util::step_rng).
inline constexpr std::uint64_t kStepTag = 0x57E95AD0'5EED'000AULL;

/// Every registered tag, for the pairwise-distinctness proof below and
/// for tooling. Append when registering a new tag.
inline constexpr std::uint64_t kAllStreamTags[] = {
    kLossTag,
    kCrashTag,
    kChurnTag,
    kRepairTag,
    kBurstTag,
    kLiveChurnTag,
    kRecoverTag,
    kCoinTag,
    kRankTag,
    kStepTag,
};

namespace detail {

/// Compile-time proof of registry rule 2: all registered tags are
/// pairwise distinct in their high 32 bits.
constexpr bool high32_pairwise_distinct() {
  constexpr std::size_t n = sizeof(kAllStreamTags) / sizeof(kAllStreamTags[0]);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if ((kAllStreamTags[i] >> 32) == (kAllStreamTags[j] >> 32)) return false;
    }
  }
  return true;
}

static_assert(high32_pairwise_distinct(),
              "stream-tag registry collision: two registered tags share "
              "their high 32 bits; pick a fresh prefix (see the registry "
              "rules at the top of util/stream_tags.h)");

}  // namespace detail

}  // namespace slumber::util::stream_tags
