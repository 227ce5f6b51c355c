// Tests for the deterministic RNG utilities and the keyed per-node
// draws (util/stream_rng.h) every protocol takes its randomness from.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/stream_rng.h"

namespace slumber {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t x = rng.range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo = saw_lo || x == -3;
    saw_hi = saw_hi || x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(RngTest, CoinIsFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) heads += rng.coin() ? 1 : 0;
  EXPECT_NEAR(heads / 10'000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(21);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.bernoulli(0.2) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.2, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(8);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(RngTest, WorksWithStdDistributions) {
  Rng rng(33);
  // UniformRandomBitGenerator conformance compile check + sanity.
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  std::uint64_t x = rng();
  (void)x;
}

// --- keyed draws ------------------------------------------------------
//
// A weak key mix would correlate the coins of one node across levels or
// of neighbouring node ids at one level. Every engine draws the same
// bits, so no bulk-vs-coroutine or repeat-run test can see that; these
// statistics can.

constexpr std::uint64_t kKeyedSeed = 0x5EED'0001ULL;
constexpr std::uint64_t kKeyedNodes = std::uint64_t{1} << 16;
constexpr std::uint32_t kKeyedLevels = 48;  // ceil(3 log2 2^16)

TEST(KeyedDrawTest, SeekableInAnyCallOrder) {
  constexpr std::uint64_t kNodes = 64;
  constexpr std::uint32_t kLevels = 16;
  std::vector<bool> forward;
  std::vector<std::uint64_t> forward_steps;
  for (std::uint64_t v = 0; v < kNodes; ++v) {
    for (std::uint32_t k = 1; k <= kLevels; ++k) {
      forward.push_back(util::coin(kKeyedSeed, v, k, 0.5));
      forward_steps.push_back(util::step_rng(kKeyedSeed, v, k).next());
    }
  }
  // Reverse order, with unrelated draws interleaved: every value is a
  // function of its key alone.
  for (std::uint64_t v = kNodes; v-- > 0;) {
    for (std::uint32_t k = kLevels; k >= 1; --k) {
      const std::size_t i = v * kLevels + (k - 1);
      (void)util::rank_rng(kKeyedSeed, v + k).next();
      EXPECT_EQ(util::step_rng(kKeyedSeed, v, k).next(), forward_steps[i]);
      EXPECT_EQ(util::coin(kKeyedSeed, v, k, 0.5), forward[i]);
    }
  }
  // A stream yields the same sequence however often it is reopened.
  Rng a = util::step_rng(kKeyedSeed, 7, 3);
  Rng b = util::step_rng(kKeyedSeed, 7, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(util::rank_rng(kKeyedSeed, 5).next(),
            util::rank_rng(kKeyedSeed, 5).next());
}

TEST(KeyedDrawTest, CoinShareWithinFiveSigmaOfBias) {
  for (const double bias : {0.5, 0.3}) {
    std::vector<std::uint64_t> ones(kKeyedLevels + 1, 0);
    for (std::uint64_t v = 0; v < kKeyedNodes; ++v) {
      for (std::uint32_t k = 1; k <= kKeyedLevels; ++k) {
        ones[k] += util::coin(kKeyedSeed, v, k, bias) ? 1 : 0;
      }
    }
    std::uint64_t total = 0;
    const double level_sigma =
        std::sqrt(bias * (1 - bias) / static_cast<double>(kKeyedNodes));
    for (std::uint32_t k = 1; k <= kKeyedLevels; ++k) {
      total += ones[k];
      const double share =
          static_cast<double>(ones[k]) / static_cast<double>(kKeyedNodes);
      EXPECT_LT(std::abs(share - bias), 5 * level_sigma)
          << "bias " << bias << ", level " << k;
    }
    const double draws = static_cast<double>(kKeyedNodes * kKeyedLevels);
    const double share = static_cast<double>(total) / draws;
    EXPECT_LT(std::abs(share - bias), 5 * std::sqrt(bias * (1 - bias) / draws))
        << "bias " << bias;
  }
}

/// Pearson chi-square of a 2x2 contingency table (one degree of
/// freedom): large when the two bits of a pair are dependent.
double chi_square_2x2(const std::array<std::array<double, 2>, 2>& t) {
  const double total = t[0][0] + t[0][1] + t[1][0] + t[1][1];
  double chi = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const double expected =
          (t[a][0] + t[a][1]) * (t[0][b] + t[1][b]) / total;
      chi += (t[a][b] - expected) * (t[a][b] - expected) / expected;
    }
  }
  return chi;
}

TEST(KeyedDrawTest, AdjacentKeysIndependent) {
  std::array<std::array<double, 2>, 2> next_level{};
  std::array<std::array<double, 2>, 2> next_node{};
  std::array<std::array<double, 2>, 2> next_step{};
  for (std::uint64_t v = 0; v < kKeyedNodes; ++v) {
    for (std::uint32_t k = 1; k < kKeyedLevels; ++k) {
      const bool here = util::coin(kKeyedSeed, v, k, 0.5);
      next_level[here][util::coin(kKeyedSeed, v, k + 1, 0.5)] += 1;
      next_node[here][util::coin(kKeyedSeed, v + 1, k, 0.5)] += 1;
      next_step[util::step_rng(kKeyedSeed, v, k).coin()]
               [util::step_rng(kKeyedSeed, v, k + 1).coin()] += 1;
    }
  }
  EXPECT_LT(chi_square_2x2(next_level), 15.0);
  EXPECT_LT(chi_square_2x2(next_node), 15.0);
  EXPECT_LT(chi_square_2x2(next_step), 15.0);
}

}  // namespace
}  // namespace slumber
