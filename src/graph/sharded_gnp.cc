// Sharded G(n, p) generation: counter-based per-block RNG streams and
// a parallel two-pass CSR build that draws every edge once.
//
// One RNG stream consumed sequentially across the whole vertex
// triangle would make generation inherently serial — at n = 10^8 the
// build is ~40% of a bulk trial's wall time. Here the triangle's rows
// are split into fixed-size vertex blocks (kBlockVertices rows per
// block, a constant — never a function of the lane count), and block b
// enumerates the G(n, p) pairs whose higher endpoint lies in its rows
// from its own counter-based stream, util::stream_rng(seed, b). Because
// each stream is a pure function of (seed, b) and each unordered pair
// belongs to exactly one block, the sampled edge set is a pure function
// of (n, p, seed): lane counts, block claim order, and interleaving
// cannot change it.
//
// Pass 1 is the only run of each block's stream. It counts degree
// halves — down[x] (neighbors below x, single writer block(x)) and
// up[u] (neighbors above u, relaxed atomic increments when sharded,
// whose sum is order-free) — and stages the block's down-neighbors,
// v-major with both coordinates ascending, in a segment reserved for
// the block. Pass 2 builds the CSR from the staged rows and draws no
// random numbers. A vertex x's adjacency range is
// [down-neighbors u < x][up-neighbors v > x], both ascending:
//
//  * Down halves: each row's staged run is copied to offsets[x], rows
//    ascending. The staged runs are already the ascending down halves.
//  * Up halves are claimed from the copied down halves: each u in row
//    v's down half takes slot offsets[u + 1] - up[u]--, so up[] counts
//    down and doubles as the claim cursor. The claims for destinations
//    [first, last) scan rows ascending, so every up half fills in
//    ascending order. When sharded, each lane owns whole destination
//    ranges (and their up[] entries), so the claims need no atomics and
//    the CSR needs no sort: it is bitwise identical at every lane count,
//    the pool-less serial path running the same bodies.
//
// The staging lives inside the adjacency array itself, so it adds no
// mapping of its own. Staging starts at entry `base`, a bound on m (its
// mean + 10 sd + 64; exceeded with probability below 10^-21, and the
// build then throws). Serial blocks stage back to back; sharded blocks
// finish in any order, so block b gets a segment of its own bound.
// The down-half copy is in place: offsets[x] = D(x) + U(x), where D and
// U count the down- and up-entries of the rows below x, and U(x) <= m
// <= base, so every row lands at or below its own staged run and above
// every run already consumed. A forward copy, rows ascending, is
// therefore safe; it is serial (a row's destination can overlap any
// lower block's staged run), a sequential copy of m entries. The claims
// start only after it, since up halves overlap staged runs too.
//
// The atomics are needed only for pass 1's up[] when blocks are sharded.
// With no pool or a 1-lane pool the blocks run in index order on the
// calling thread with plain increments: a relaxed RMW is still
// `lock`-prefixed on x86, which serializes the scatter's cache misses.
//
// Memory: the transients on top of the final CSR are the two u32 degree
// halves and the staging's reach past the CSR's 2m entries: base - m
// serially, more when sharded (the per-block bounds' slack). Those pages
// are handed back after the fill; the adjacency keeps its capacity. At
// n = 2^20, average degree 8, the mapped peak is CSR + 8.2 bytes/vertex
// serially and CSR + 9.3 sharded. With ShardedGnpOptions::first_touch
// the CSR arrays are pre-touched in ThreadPool::parallel_for_range's
// chunk layout so pages land near the lanes that later scan them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "obs/obs.h"
#include "util/alloc.h"
#include "util/stream_rng.h"
#include "util/thread_pool.h"

namespace slumber::gen {

namespace {

/// Batagelj-Brandes geometric-skipping enumeration of the G(n, p) pairs
/// whose higher endpoint v lies in [row_begin, row_end): streams every
/// sampled edge (u, v) with u < v to `fn`, v-major with both
/// coordinates ascending. O(rows + edges) expected; requires
/// 0 < p < 1. Restarting at a row boundary is distribution-exact (the
/// underlying per-pair Bernoulli process is memoryless), which is what
/// lets every vertex block have its own stream.
template <typename Fn>
void for_each_gnp_edge_rows(VertexId row_begin, VertexId row_end, double p,
                            Rng& rng, Fn&& fn) {
  const double log1mp = std::log1p(-p);
  std::int64_t v = row_begin < 1 ? 1 : static_cast<std::int64_t>(row_begin);
  std::int64_t w = -1;
  const auto vend = static_cast<std::int64_t>(row_end);
  while (v < vend) {
    const double r = rng.uniform();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log1p(-r) / log1mp));
    while (w >= v && v < vend) {
      w -= v;
      ++v;
    }
    if (v < vend) fn(static_cast<VertexId>(w), static_cast<VertexId>(v));
  }
}

/// K_n streamed straight into CSR (the p >= 1 degenerate case).
Graph complete_csr(VertexId n) {
  // Fill-constructed (not resize): PodVector::resize skips
  // initialization, and the n < 2 return below must hand from_csr
  // all-zero offsets.
  util::PodVector<CsrOffset> offsets(std::uint64_t{n} + 1, 0);
  if (n < 2) {
    return Graph::from_csr(n, std::move(offsets), {});
  }
  checked_edge_count(std::uint64_t{n} * (n - 1) / 2, "complete_csr");
  util::PodVector<VertexId> adjacency;
  adjacency.resize(std::uint64_t{n} * (n - 1));
  CsrOffset next = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets[std::uint64_t{v} + 1] = offsets[v] + (std::uint64_t{n} - 1);
    for (VertexId u = 0; u < n; ++u) {
      if (u != v) adjacency[next++] = u;
    }
  }
  return Graph::from_csr(n, std::move(offsets), std::move(adjacency));
}

/// Rows per counter-keyed stream. A constant so the edge set depends
/// only on (n, p, seed): at n = 10^8 this yields ~24k blocks (ample
/// dynamic load balancing — late blocks own linearly more pairs than
/// early ones), while n as small as ~10^4 still spans several blocks
/// so tests exercise the cross-block paths.
constexpr VertexId kBlockVertices = 4096;

std::uint64_t block_count(VertexId n) {
  return (std::uint64_t{n} + kBlockVertices - 1) / kBlockVertices;
}

/// Block b's rows, [lo, hi).
struct BlockRows {
  VertexId lo;
  VertexId hi;
};

BlockRows block_rows(VertexId n, std::uint64_t b) {
  return {static_cast<VertexId>(b * kBlockVertices),
          static_cast<VertexId>(
              std::min<std::uint64_t>(n, (b + 1) * kBlockVertices))};
}

/// A bound on a Binomial(pairs, p) edge count: mean + 10 sd + 64,
/// exceeded with probability below 10^-21 (Bernstein), and never more
/// than `pairs`.
std::uint64_t edge_bound(std::uint64_t pairs, double p) {
  const double mean = p * static_cast<double>(pairs);
  const double bound = std::ceil(mean + 10.0 * std::sqrt(mean) + 64.0);
  return std::min(pairs, static_cast<std::uint64_t>(bound));
}

/// Staging slots reserved for block b when blocks are sharded: the
/// bound on its edge count, whose pairs are the sum of its row indices.
/// A pure function of (n, p, b).
std::uint64_t block_capacity(VertexId n, double p, std::uint64_t b) {
  const BlockRows rows = block_rows(n, b);
  return edge_bound((std::uint64_t{rows.lo} + rows.hi - 1) *
                        (rows.hi - rows.lo) / 2,
                    p);
}

/// Runs fn(begin, end) over contiguous chunks of [0, total): the
/// pool's parallel_for_range chunks when present, one serial chunk
/// when not.
template <typename Fn>
void for_each_range(std::uint64_t total, util::ThreadPool* pool, Fn&& fn) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_for_range(
        total,
        [&fn](std::size_t, std::size_t begin, std::size_t end) {
          fn(begin, end);
        });
  } else {
    fn(std::uint64_t{0}, total);
  }
}

}  // namespace

Graph gnp_sharded_csr(VertexId n, double p, std::uint64_t seed,
                      const ShardedGnpOptions& options) {
  if (options.stats_out != nullptr) *options.stats_out = {};
  if (p <= 0.0 || n < 2) {
    util::PodVector<CsrOffset> offsets(std::uint64_t{n} + 1, 0);
    return Graph::from_csr(n, std::move(offsets), {}, options.pool);
  }
  if (p >= 1.0) return complete_csr(n);

  util::ThreadPool* pool = options.pool;
  const std::uint64_t blocks = block_count(n);
  const bool sharded = pool != nullptr && pool->num_threads() > 1;
  const bool first_touch = options.first_touch && sharded;
  obs::progress_phase("generate");
  obs::Span gen_span("gen", "gnp_sharded_csr", n);

  // --- staging layout -----------------------------------------------
  // Staging starts at entry `base` >= m of the adjacency (see the
  // header); block b stages at stage[stage_begin[b]...]. Serial blocks
  // stage back to back, each after its predecessor's edges. Sharded
  // blocks run in any order, so each gets a segment of its own bound.
  const std::uint64_t base =
      edge_bound(std::uint64_t{n} * (n - 1) / 2, p);
  std::vector<std::uint64_t> stage_begin(blocks + 1, 0);
  if (sharded) {
    for (std::uint64_t b = 0; b < blocks; ++b) {
      stage_begin[b + 1] = stage_begin[b] + block_capacity(n, p, b);
    }
  }
  const std::uint64_t stage_size = sharded ? stage_begin[blocks] : base;
  util::PodVector<VertexId> adjacency;
  adjacency.resize(base + stage_size);
  if (first_touch) {
    // Deliberate page placement; staging and the fill overwrite it.
    VertexId* adj = adjacency.data();
    for_each_range(adjacency.size(), pool,
                   [adj](std::uint64_t begin, std::uint64_t end) {
                     for (std::uint64_t i = begin; i < end; ++i) adj[i] = 0;
                   });
  }
  VertexId* const stage = adjacency.data() + base;

  // --- pass 1: sample, count degree halves, stage down halves --------
  // down[x] = |{u < x adjacent to x}| (single writer: block(x));
  // up[u]   = |{v > u adjacent to u}| (relaxed atomic sum when sharded).
  util::PodVector<std::uint32_t> down =
      util::sharded_fill<std::uint32_t>(n, 0, first_touch ? pool : nullptr);
  util::PodVector<std::uint32_t> up =
      util::sharded_fill<std::uint32_t>(n, 0, first_touch ? pool : nullptr);
  // Pass 1's block body, staging at most `capacity` entries; count_up(u)
  // bumps up[u]. The only run of the block's stream. Returns the block's
  // edge count and the stream's next draw after generation, a pure
  // function of (seed, b) whose wrapping sum over blocks is order-free.
  struct Sampled {
    std::uint64_t edges;
    std::uint64_t next_draw;
  };
  auto sample_block = [&](std::uint64_t b, std::uint64_t capacity,
                          auto&& count_up) {
    // SLUMBER-STREAM-DISCIPLINE(block-counter): one stream per vertex
    // block; the dense block id b is the stream key and blocks never
    // share a row, so no tag mixing is needed (see README).
    Rng rng = util::stream_rng(seed, b);
    const BlockRows rows = block_rows(n, b);
    VertexId* const out = stage + stage_begin[b];
    std::uint64_t count = 0;
    for_each_gnp_edge_rows(rows.lo, rows.hi, p, rng,
                           [&](VertexId u, VertexId v) {
                             ++down[v];  // block(v) == b: single writer
                             count_up(u);
                             if (count < capacity) out[count] = u;
                             ++count;
                           });
    return Sampled{count, rng.next()};
  };
  std::uint64_t m = 0;
  std::uint64_t rng_digest = 0;
  bool overflow = false;
  {
    obs::Span span("gen", "degree_pass", blocks);
    if (sharded) {
      std::atomic<std::uint64_t> edge_total{0};
      std::atomic<std::uint64_t> digest{0};
      std::atomic<bool> any_overflow{false};
      pool->parallel_for_index(blocks, [&](std::uint64_t b) {
        const std::uint64_t capacity = stage_begin[b + 1] - stage_begin[b];
        const Sampled s = sample_block(b, capacity, [&up](VertexId u) {
          std::atomic_ref<std::uint32_t>(up[u]).fetch_add(
              1, std::memory_order_relaxed);
        });
        edge_total.fetch_add(s.edges, std::memory_order_relaxed);
        digest.fetch_add(s.next_draw, std::memory_order_relaxed);
        if (s.edges > capacity) {
          any_overflow.store(true, std::memory_order_relaxed);
        }
      });
      m = edge_total.load(std::memory_order_relaxed);
      rng_digest = digest.load(std::memory_order_relaxed);
      overflow = any_overflow.load(std::memory_order_relaxed);
    } else {
      for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint64_t capacity = base - stage_begin[b];
        const Sampled s =
            sample_block(b, capacity, [&up](VertexId u) { ++up[u]; });
        m += s.edges;
        rng_digest += s.next_draw;
        stage_begin[b + 1] = stage_begin[b] + std::min(s.edges, capacity);
      }
    }
  }
  if (overflow || m > base) {
    throw std::runtime_error(
        "gnp_sharded_csr: sampled more edges than the staging bound");
  }
  checked_edge_count(m, "gnp_sharded_csr");

  // --- offsets --------------------------------------------------------
  util::PodVector<CsrOffset> offsets =
      util::sharded_fill<CsrOffset>(std::uint64_t{n} + 1, 0,
                                    first_touch ? pool : nullptr);
  {
    obs::Span span("gen", "offsets", n);
    for (VertexId v = 0; v < n; ++v) {
      offsets[std::uint64_t{v} + 1] =
          offsets[v] + down[v] + up[v];
    }
  }

  // --- pass 2: fill from the staged rows ------------------------------
  {
    obs::Span span("gen", "fill_pass", blocks);
    VertexId* const adj = adjacency.data();
    const CsrOffset* const off = offsets.data();
    const std::uint32_t* const dn = down.data();
    // Down halves: every row's staged run moves to offsets[v], rows
    // ascending, each at or below its source (see the header).
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const BlockRows rows = block_rows(n, b);
      const VertexId* src = stage + stage_begin[b];
      for (VertexId v = rows.lo; v < rows.hi; ++v) {
        VertexId* const dst = adj + off[v];
        for (std::uint32_t i = 0; i < dn[v]; ++i) dst[i] = src[i];
        src += dn[v];
      }
    }
    // Up halves, claimed from the moved down halves. The claims for
    // destinations [first, last) scan the rows above `first`, ascending,
    // and hand each u in range its next up-half slot: every up half
    // fills in ascending order on every path, with plain decrements (one
    // owner per up[u]) and no sort.
    auto claim_range = [&](VertexId first, VertexId last) {
      for (VertexId v = first + 1; v < n; ++v) {
        CsrOffset i = off[v];
        const CsrOffset row_end = i + dn[v];
        while (i != row_end && adj[i] < first) ++i;
        for (; i != row_end && adj[i] < last; ++i) {
          const VertexId u = adj[i];
          adj[off[std::uint64_t{u} + 1] - up[u]--] = v;
        }
      }
    };
    if (sharded) {
      // Up halves shrink with the vertex id, and so does the scan, so
      // 2 ranges per lane claimed lowest-first pair heavy with light.
      const std::uint64_t ranges =
          std::min<std::uint64_t>(n, std::uint64_t{2} * pool->num_threads());
      pool->parallel_for_index(ranges, [&](std::uint64_t r) {
        claim_range(static_cast<VertexId>(r * n / ranges),
                    static_cast<VertexId>((r + 1) * n / ranges));
      });
    } else {
      claim_range(0, n);
    }
  }
  // Every up[u] has counted down to zero; genuinely release (swap —
  // `= {}` would retain capacity).
  util::PodVector<std::uint32_t>().swap(up);
  util::PodVector<std::uint32_t>().swap(down);
  adjacency.resize(2 * m);
  util::release_tail(adjacency);  // leftover staging past the CSR

  if (options.stats_out != nullptr) {
    options.stats_out->blocks = blocks;
    options.stats_out->rng_digest = rng_digest;
  }
  return Graph::from_csr(n, std::move(offsets), std::move(adjacency), pool);
}

Graph gnp_avg_degree_sharded_csr(VertexId n, double avg_deg,
                                 std::uint64_t seed,
                                 const ShardedGnpOptions& options) {
  if (n < 2) return gnp_sharded_csr(n, 0.0, seed, options);
  return gnp_sharded_csr(n, gnp_probability_for_avg_degree(n, avg_deg), seed,
                         options);
}

}  // namespace slumber::gen
