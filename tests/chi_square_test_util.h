// Shared independence statistic for the keyed-draw suites (rng_test,
// fault_test): two bits drawn from keys that must not collide are
// tallied into a 2x2 table over many seeds or salts.
#pragma once

#include <array>

namespace slumber {

/// Pearson chi-square of a 2x2 contingency table (one degree of
/// freedom): large when the two bits of a pair are dependent.
inline double chi_square_2x2(const std::array<std::array<double, 2>, 2>& t) {
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

}  // namespace slumber
