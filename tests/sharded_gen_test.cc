// Determinism and distribution tests for the G(n, p) builder
// (gen::gnp_sharded_csr family, src/graph/sharded_gnp.cc).
//
// The central contract: the sharded generator's output is a pure
// function of (n, p, seed) — bitwise identical CSR (and per-block
// final RNG states, probed via ShardedGnpStats::rng_digest) for every
// lane count, with the pool-less serial path as the reference. The
// lane matrix here runs under the tsan CI job, so every cross-block
// atomic path is also a ThreadSanitizer workload.
//
// The distribution suite holds the degree distribution to the exact
// Binomial(n-1, p) law with a chi-square-style statistic.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "bulk/sleeping_mis.h"
#include "graph/generators.h"
#include "util/alloc.h"
#include "util/stream_rng.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

// The acceptance matrix's lane counts; 1 pins the pooled-but-serial
// configuration against the pool-less path.
const unsigned kLaneCounts[] = {1, 2, 3, 8};

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "v=" << v;
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "v=" << v;
  }
}

// --- lane-count determinism matrix -----------------------------------

TEST(ShardedGen, BitwiseIdenticalAcrossLaneCounts) {
  for (const VertexId n : {97u, 5000u, 20000u}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      gen::ShardedGnpStats ref_stats;
      gen::ShardedGnpOptions ref_options;
      ref_options.stats_out = &ref_stats;
      const Graph reference =
          gen::gnp_avg_degree_sharded_csr(n, 8.0, seed, ref_options);
      for (const unsigned lanes : kLaneCounts) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " seed=" << seed << " lanes=" << lanes);
        util::ThreadPool pool(lanes);
        gen::ShardedGnpStats stats;
        gen::ShardedGnpOptions options;
        options.pool = &pool;
        options.stats_out = &stats;
        const Graph sharded =
            gen::gnp_avg_degree_sharded_csr(n, 8.0, seed, options);
        ExpectSameCsr(reference, sharded);
        // Per-block final RNG states are pure functions of (seed,
        // block); their order-free digest must match the serial path.
        EXPECT_EQ(ref_stats.rng_digest, stats.rng_digest);
        EXPECT_EQ(ref_stats.blocks, stats.blocks);
      }
    }
  }
}

// FNV-1a over n, then every vertex's degree and neighbors in CSR order.
std::uint64_t CsrDigest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  mix(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mix(g.degree(v));
    for (const VertexId u : g.neighbors(v)) mix(u);
  }
  return h;
}

TEST(ShardedGen, RealizationPinnedOnEveryPath) {
  // The lane matrix above only compares paths with each other; these
  // pins catch a change that moves every path the same way. Recorded
  // from the generator with atomic slot claims on every path; the
  // serial plain-increment path must reproduce them bit for bit. The
  // rng_digest pins (each block stream's next draw after generation,
  // summed) catch a build that runs a block's stream twice or stops it
  // early. n = 2^18 spans 64 blocks.
  struct Pin {
    VertexId n;
    std::uint64_t seed;
    std::size_t edges;
    std::uint64_t digest;
    std::uint64_t rng_digest;
  };
  const Pin pins[] = {
      {97, 1, 389, 0x808bbd1694f60e8aULL, 0x83895fa2ee68b14fULL},
      {5000, 7, 19827, 0x70081af682253a80ULL, 0xf3ceeab3224c807dULL},
      {20000, 42, 80550, 0x7d4987ef5033b05bULL, 0x0dbd6e23092b3eccULL},
      {1u << 18, 3, 1050603, 0xe073aad85d4090bcULL, 0xb5f4f902f51adccbULL}};
  util::ThreadPool one_lane(1);
  util::ThreadPool four_lanes(4);
  for (const Pin& pin : pins) {
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &one_lane, &four_lanes}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << pin.n << " seed=" << pin.seed << " lanes="
                   << (pool == nullptr ? 0 : pool->num_threads()));
      gen::ShardedGnpStats stats;
      gen::ShardedGnpOptions options;
      options.pool = pool;
      options.stats_out = &stats;
      const Graph g =
          gen::gnp_avg_degree_sharded_csr(pin.n, 8.0, pin.seed, options);
      EXPECT_EQ(g.num_edges(), pin.edges);
      EXPECT_EQ(CsrDigest(g), pin.digest);
      EXPECT_EQ(stats.rng_digest, pin.rng_digest);
    }
  }
}

TEST(ShardedGen, BuildTransientWithinBudget) {
  // The build's large arrays are all page mappings (util::PodVector),
  // so util::mapped_peak_bytes() bounds its footprint. The two-pass
  // build that sampled every edge twice peaked at exactly the final CSR
  // + 12 B/node (its u64 cursor and u32 down-degrees) on both paths:
  // 54,526,320 bytes for this graph. Staging the sampled edges must not
  // raise that, and the build must leave only the graph mapped.
  constexpr VertexId kN = 1u << 20;
  constexpr std::size_t kTwoPassPeak = 54526320;
  util::ThreadPool four_lanes(4);
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &four_lanes}) {
    SCOPED_TRACE(pool == nullptr ? "pool-less" : "4 lanes");
    const std::size_t before = util::mapped_bytes();
    util::reset_mapped_peak();
    {
      gen::ShardedGnpOptions options;
      options.pool = pool;
      const Graph g = gen::gnp_avg_degree_sharded_csr(kN, 8.0, 1, options);
      const std::size_t peak = util::mapped_peak_bytes() - before;
      const std::size_t csr_bytes =
          sizeof(CsrOffset) * (std::size_t{kN} + 1) +
          2 * sizeof(VertexId) * g.num_edges();
      EXPECT_LE(peak, csr_bytes + 12 * std::size_t{kN});
      EXPECT_LE(peak, kTwoPassPeak);
    }
    EXPECT_EQ(util::mapped_bytes(), before);
  }
}

TEST(ShardedGen, DenseAndEdgeCasesAcrossLaneCounts) {
  util::ThreadPool pool(4);
  gen::ShardedGnpOptions parallel;
  parallel.pool = &pool;
  // Dense p: every block emits many edges per row.
  const Graph dense_ref = gen::gnp_sharded_csr(300, 0.5, 3);
  ExpectSameCsr(dense_ref, gen::gnp_sharded_csr(300, 0.5, 3, parallel));
  // Degenerate p: empty and complete.
  EXPECT_EQ(gen::gnp_sharded_csr(50, 0.0, 1, parallel).num_edges(), 0u);
  const Graph complete = gen::gnp_sharded_csr(40, 1.0, 1, parallel);
  EXPECT_EQ(complete.num_edges(), 40u * 39 / 2);
  // Tiny n.
  EXPECT_EQ(gen::gnp_sharded_csr(0, 0.5, 1, parallel).num_vertices(), 0u);
  EXPECT_EQ(gen::gnp_sharded_csr(1, 0.5, 1, parallel).num_edges(), 0u);
}

TEST(ShardedGen, FirstTouchPlacementIsBitwiseInvariant) {
  util::ThreadPool pool(4);
  gen::ShardedGnpOptions plain;
  plain.pool = &pool;
  gen::ShardedGnpOptions touched;
  touched.pool = &pool;
  touched.first_touch = true;
  const Graph a = gen::gnp_avg_degree_sharded_csr(20000, 8.0, 5, plain);
  const Graph b = gen::gnp_avg_degree_sharded_csr(20000, 8.0, 5, touched);
  ExpectSameCsr(a, b);
}

TEST(ShardedGen, SeedsAndParametersChangeTheGraph) {
  const Graph a = gen::gnp_avg_degree_sharded_csr(4000, 8.0, 1);
  const Graph b = gen::gnp_avg_degree_sharded_csr(4000, 8.0, 2);
  // Distinct seeds must realize distinct edge sets (overwhelmingly).
  bool differs = a.num_edges() != b.num_edges();
  for (VertexId v = 0; !differs && v < 4000; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    differs = na.size() != nb.size() ||
              !std::equal(na.begin(), na.end(), nb.begin());
  }
  EXPECT_TRUE(differs);
}

// --- the counter-based stream discipline -----------------------------

TEST(StreamRng, PureFunctionOfSeedAndCounter) {
  Rng a = util::stream_rng(99, 7);
  // Opening and consuming unrelated streams in between must not
  // perturb stream 7 (counter-based, not consumption-based).
  Rng noise = util::stream_rng(99, 3);
  for (int i = 0; i < 100; ++i) noise.next();
  Rng b = util::stream_rng(99, 7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "draw " << i;
  }
}

TEST(StreamRng, AdjacentCountersDecorrelate) {
  Rng a = util::stream_rng(5, 0);
  Rng b = util::stream_rng(5, 1);
  Rng c = util::stream_rng(6, 0);
  int agree_ab = 0;
  int agree_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = a.next();
    if (x == b.next()) ++agree_ab;
    if (x == c.next()) ++agree_ac;
  }
  EXPECT_EQ(agree_ab, 0);
  EXPECT_EQ(agree_ac, 0);
}

// --- distribution of the realized graphs -----------------------------

// Chi-square-style statistic of an empirical degree histogram against
// the exact Binomial(n-1, p) law, pooling bins with expected count
// below 5 into the tails.
double DegreeChiSquare(const Graph& g, double p) {
  const auto n = g.num_vertices();
  std::vector<std::uint64_t> histogram(g.max_degree() + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++histogram[g.degree(v)];
  // Binomial pmf via the ratio recurrence, scaled to n vertices.
  const double trials = static_cast<double>(n - 1);
  std::vector<double> expected;
  double pmf = std::pow(1.0 - p, trials);
  for (std::uint32_t k = 0; k <= 4 * 8 + 40; ++k) {
    expected.push_back(pmf * static_cast<double>(n));
    pmf *= ((trials - k) / (k + 1.0)) * (p / (1.0 - p));
  }
  double statistic = 0.0;
  double pooled_obs = 0.0;
  double pooled_exp = 0.0;
  const std::size_t bins = std::max(histogram.size(), expected.size());
  for (std::size_t k = 0; k < bins; ++k) {
    const double obs =
        k < histogram.size() ? static_cast<double>(histogram[k]) : 0.0;
    const double exp = k < expected.size() ? expected[k] : 0.0;
    if (exp < 5.0) {
      pooled_obs += obs;
      pooled_exp += exp;
      continue;
    }
    statistic += (obs - exp) * (obs - exp) / exp;
  }
  if (pooled_exp > 0.0) {
    statistic +=
        (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
  }
  return statistic;
}

TEST(ShardedGen, DegreeDistributionMatchesLegacySchedule) {
  constexpr VertexId kN = 20000;
  const double p = gen::gnp_probability_for_avg_degree(kN, 8.0);
  // ~30 effective bins; chi-square critical value at p=0.001 is ~60.
  // Fixed seeds make the statistics deterministic; 80 gives slack for
  // an unlucky (but committed) draw while still catching a broken
  // schedule, whose statistic explodes by orders of magnitude.
  constexpr double kThreshold = 80.0;
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(kN, 8.0, seed);
    EXPECT_LT(DegreeChiSquare(g, p), kThreshold) << "seed=" << seed;
    // Edge totals are Binomial(C(n,2), p): mean 80k, sigma ~283. The
    // realization must land within 5 sigma.
    const double mean =
        p * 0.5 * static_cast<double>(kN) * static_cast<double>(kN - 1);
    const double sigma = std::sqrt(mean * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(g.num_edges()), mean, 5 * sigma);
  }
}

// --- make() routing ----------------------------------------------------

TEST(ShardedGen, MakeRoutesGnpFamiliesThroughShardedSchedule) {
  util::ThreadPool pool(4);
  for (util::ThreadPool* path : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool}) {
    SCOPED_TRACE(path == nullptr ? "pool-less" : "4-lane pool");
    const gen::ShardedGnpOptions options{.pool = path};
    ExpectSameCsr(gen::make(gen::Family::kGnpSparse, 3000, 17, options),
                  gen::gnp_avg_degree_sharded_csr(3000, 8.0, 17));
    ExpectSameCsr(gen::make(gen::Family::kGnpDense, 300, 17, options),
                  gen::gnp_sharded_csr(300, 0.5, 17));
  }
}

// --- shared gnp helpers ------------------------------------------------

TEST(GnpHelpers, ProbabilityForAvgDegree) {
  EXPECT_DOUBLE_EQ(gen::gnp_probability_for_avg_degree(101, 8.0), 0.08);
  EXPECT_DOUBLE_EQ(gen::gnp_probability_for_avg_degree(2, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(gen::gnp_probability_for_avg_degree(11, 0.0), 0.0);
}

// --- first-touch in the bulk engine ----------------------------------

TEST(ShardedGen, BulkFirstTouchIsBitwiseInvariant) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(8000, 8.0, 23);
  bulk::BulkOptions base;
  base.max_message_bits = sim::congest_bits_for(g.num_vertices());
  const bulk::BulkResult reference =
      bulk::bulk_sleeping_mis(g, 23, {}, nullptr, base);
  EXPECT_TRUE(analysis::check_mis(g, reference.outputs).ok());
  util::ThreadPool pool(4);
  bulk::BulkOptions touched = base;
  touched.pool = &pool;
  touched.parallel_cutoff = 1;
  touched.first_touch = true;
  const bulk::BulkResult run =
      bulk::bulk_sleeping_mis(g, 23, {}, nullptr, touched);
  EXPECT_EQ(reference.outputs, run.outputs);
  EXPECT_TRUE(run.virtual_makespan == reference.virtual_makespan);
  EXPECT_EQ(reference.metrics.total_awake_node_rounds,
            run.metrics.total_awake_node_rounds);
  EXPECT_EQ(reference.metrics.total_messages, run.metrics.total_messages);
}

// --- util::sharded_fill ----------------------------------------------

TEST(ShardedFill, ContentsIdenticalWithAndWithoutPool) {
  util::ThreadPool pool(3);
  const auto serial = util::sharded_fill<std::uint32_t>(10001, 7, nullptr);
  const auto parallel = util::sharded_fill<std::uint32_t>(10001, 7, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(std::equal(serial.begin(), serial.end(), parallel.begin()));
  EXPECT_TRUE(util::sharded_fill<int>(0, 1, &pool).empty());
}

}  // namespace
}  // namespace slumber
