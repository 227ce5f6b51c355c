// Bulk-engine port of Algorithm 1 (core/sleeping_mis.h).
//
// The awake schedule of SleepingMISRecursive is an oblivious function of
// each node's coin bits and the evolving tri-state statuses: at any
// virtual round exactly one recursion frame owns the clock, and the
// awake set of that round is exactly the frame's participant set. The
// bulk port therefore walks the recursion tree depth-first (which IS
// virtual-time order), carrying explicit participant lists, and executes
// each frame's three communication rounds as flat scans over CSR
// neighbor spans: no coroutine frames, no message objects, no wake
// buckets. Coins are the same keyed util::coin draws the coroutine
// implementation takes, read at the same branches, so outputs, metrics,
// and RecursionTrace contents match bit for bit.
#pragma once

#include <memory>

#include "bulk/engine.h"
#include "core/instrumentation.h"
#include "core/sleeping_mis.h"

namespace slumber::bulk {

class BulkSleepingMis final : public BulkProtocol {
 public:
  explicit BulkSleepingMis(core::SleepingMisOptions options = {},
                           core::RecursionTrace* trace = nullptr)
      : options_(options), trace_(trace) {}

  std::string_view name() const override { return "SleepingMIS/bulk"; }
  void run(BulkEngine& engine) override;

 private:
  core::SleepingMisOptions options_;
  core::RecursionTrace* trace_;
};

/// Convenience: one bulk Algorithm-1 trial over `g` with `seed`.
BulkResult bulk_sleeping_mis(const Graph& g, std::uint64_t seed,
                             core::SleepingMisOptions options = {},
                             core::RecursionTrace* trace = nullptr,
                             BulkOptions engine_options = {});

}  // namespace slumber::bulk
