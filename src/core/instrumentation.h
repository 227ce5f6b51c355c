// Optional instrumentation for the sleeping MIS algorithms.
//
// The benches validating Lemma 2 / Lemma 3 (pruning), Lemma 7 (geometric
// level decay) and Corollary 1 (lexicographically-first equivalence)
// need to observe the recursion from the outside: which call each node
// participated in, the per-call left/right participation, the coin bits
// X_i and the base-case greedy ranks. A RecursionTrace pointer can be
// passed to the protocol factories to collect exactly that; it costs a
// few map updates per call and nothing when null.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/rank.h"
#include "util/stream_rng.h"

namespace slumber::core {

/// Statistics for a single call of SleepingMISRecursive, identified by
/// (k, path): k is the frame parameter, path the left(0)/right(1)
/// choices from the root, one bit per level.
struct CallStats {
  std::uint64_t participants = 0;    // |U|
  std::uint64_t left = 0;            // |L|: entered the left recursion
  std::uint64_t right = 0;           // |R|: entered the right recursion
  std::uint64_t isolated_joins = 0;  // joined at first isolated detection
  std::uint64_t first_round = std::numeric_limits<std::uint64_t>::max();
};

/// Node v's coins X_1..X_levels (index 0 unused), as util::coin draws
/// them, for RecursionTrace::bits.
inline std::vector<std::uint8_t> coin_bits(std::uint64_t seed, VertexId v,
                                           std::uint32_t levels, double bias) {
  std::vector<std::uint8_t> bits(levels + 1, 0);
  for (std::uint32_t i = 1; i <= levels; ++i) {
    bits[i] = util::coin(seed, v, i, bias) ? 1 : 0;
  }
  return bits;
}

struct RecursionTrace {
  std::uint32_t levels = 0;  // K of the traced run
  CoinBits bits;             // bits[v][i] = X_i of node v
  std::vector<std::uint64_t> base_rank;  // Algorithm 2 greedy ranks
  std::map<std::pair<std::uint32_t, std::uint64_t>, CallStats> calls;

  /// Z_k of Lemma 7: total number of nodes over all calls with
  /// parameter k. Index k in [0, levels].
  std::vector<std::uint64_t> z_by_level() const {
    std::vector<std::uint64_t> z(levels + 1, 0);
    for (const auto& [key, stats] : calls) z[key.first] += stats.participants;
    return z;
  }

  /// Sum of |L| (resp. |R|) over all calls with parameter k.
  struct LevelParticipation {
    std::uint64_t u_total = 0;
    std::uint64_t left_total = 0;
    std::uint64_t right_total = 0;
  };
  LevelParticipation level_participation(std::uint32_t k) const {
    LevelParticipation p;
    for (const auto& [key, stats] : calls) {
      if (key.first != k) continue;
      p.u_total += stats.participants;
      p.left_total += stats.left;
      p.right_total += stats.right;
    }
    return p;
  }
};

}  // namespace slumber::core
