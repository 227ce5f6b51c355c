// Algorithm 1 of the paper: the Sleeping MIS algorithm.
//
// Each node runs SleepingMISRecursive(K), K = ceil(3 log2 n), reading
// its fair coin X_k (a keyed util::coin draw) where a call branches on it.
// A call with parameter k >= 1 spends exactly T(k) = 3(2^k - 1) rounds:
//
//   1 round   first isolated-node detection (join MIS if no neighbor in
//             the current subgraph G[U] is awake to answer)
//   T(k-1)    left recursion: nodes with X_k = 1 recurse; everyone else
//             SLEEPS for exactly T(k-1) rounds
//   1 round   synchronization step: statuses are exchanged; undecided
//             nodes with an MIS neighbor are eliminated
//   1 round   second isolated-node detection: an undecided node all of
//             whose G[U]-neighbors are eliminated joins the MIS
//   T(k-1)    right recursion: still-undecided nodes recurse; everyone
//             else sleeps
//
// Guarantees (Theorem 1): the output is an MIS w.h.p.; expected O(1)
// node-averaged awake complexity; O(log n) worst-case awake complexity;
// O(n^3) worst-case round complexity.
//
// The subgraph G[U] never needs to be materialized: only the nodes of
// the current call are awake during its rounds, so a broadcast reaches
// exactly the G[U]-neighbors -- the sleeping model does the induction.
#pragma once

#include "core/instrumentation.h"
#include "sim/network.h"

namespace slumber::core {

struct SleepingMisOptions {
  /// Recursion depth K; 0 means the paper's ceil(3 log2 n).
  std::uint32_t levels = 0;
  /// P[X_i = 1]. The paper uses a fair coin (1/2); other values are for
  /// the E11 ablation (left load ~ p|U| vs right load ~ (1-p)|U|/2).
  double coin_bias = 0.5;
};

/// Protocol factory for Algorithm 1. Each node decides output 1 (in the
/// MIS) or 0. `trace`, if non-null, must outlive the run and collects
/// per-call participation and the coin bits (see instrumentation.h).
sim::Protocol sleeping_mis(SleepingMisOptions options = {},
                           RecursionTrace* trace = nullptr);

}  // namespace slumber::core
