// Shared per-node MIS state for the sleeping algorithms.
#pragma once

#include <cstdint>

namespace slumber::core {

/// The tri-state v.inMIS variable of the paper. Numeric values match the
/// payload encoding of sim::Message::status.
enum class MisValue : std::uint64_t {
  kFalse = 0,
  kTrue = 1,
  kUnknown = 2,
};

struct MisState {
  MisValue value = MisValue::kUnknown;
  /// Greedy rank for Algorithm 2's base case.
  std::uint64_t base_rank = 0;
};

}  // namespace slumber::core
