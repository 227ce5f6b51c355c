// Counter-based RNG streams: the library's one randomness discipline.
//
// A stream is a pure function of (seed, stream), so it is seekable and
// independent of lane counts, interleaving and other draws. Protocols
// draw through coin / rank_rng / step_rng below, which both engines call
// with the same keys; the fault layer keys through stream_key and the
// tags of util/stream_tags.h; gen::gnp_sharded_csr keys one stream per
// vertex block.
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "util/stream_tags.h"

namespace slumber::util {

/// Deterministic generator for counter `stream` under `seed`. Two
/// chained SplitMix64 steps mix the pair into a 64-bit key; the Rng
/// constructor expands the key into the xoshiro256** state. Adjacent
/// counters yield decorrelated streams (SplitMix64 is a bijective
/// avalanche mix), and no call here has any global state.
inline Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed;
  const std::uint64_t seed_key = splitmix64(sm);
  sm = seed_key ^ stream;
  return Rng(splitmix64(sm));
}

/// One avalanche step combining two 64-bit keys. The golden-ratio offset
/// keeps stream_key(x, 0) from collapsing to splitmix64(x). Fold one
/// entity per step: stream_key(tag ^ v, k) hashes v ^ (k + offset), so
/// distinct (v, k) pairs can share a stream.
inline std::uint64_t stream_key(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sm = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return splitmix64(sm);
}

/// Coin X_k of node v (paper Algorithm 1): true with probability `bias`.
inline bool coin(std::uint64_t seed, std::uint64_t v, std::uint64_t k,
                 double bias) {
  return stream_rng(seed,
                    stream_key(stream_key(stream_tags::kCoinTag, v), k))
      .bernoulli(bias);
}

/// Node v's one-shot rank stream.
inline Rng rank_rng(std::uint64_t seed, std::uint64_t v) {
  return stream_rng(seed, stream_key(stream_tags::kRankTag, v));
}

/// Node v's stream in iteration `step` of an iterative protocol; a step
/// that needs several values takes them in order from it.
inline Rng step_rng(std::uint64_t seed, std::uint64_t v, std::uint64_t step) {
  return stream_rng(seed,
                    stream_key(stream_key(stream_tags::kStepTag, v), step));
}

}  // namespace slumber::util
