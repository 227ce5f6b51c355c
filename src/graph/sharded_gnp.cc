// Sharded G(n, p) generation: counter-based per-block RNG streams and
// a parallel two-pass CSR build.
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
// Determinism of the *CSR layout* needs one more step. A vertex x's
// adjacency range is [down-neighbors u < x][up-neighbors v > x], both
// ascending:
//
//  * The down half is written only by block(x) — while the block walks
//    row x it appends each sampled u in ascending order. Single
//    writer, deterministic order.
//  * The up half receives x's higher neighbors from whichever blocks
//    own them. When blocks are sharded over more than one lane, slots
//    are claimed with a relaxed atomic cursor fetch_add, so the
//    *positions* depend on scheduling — but the *set* does not. A final
//    parallel per-vertex sort of the up half restores the unique
//    ascending layout, making the full CSR bitwise identical at every
//    lane count (the pool-less serial path runs the identical block
//    schedule and is the reference).
//
// Degree counting (pass 1) splits the same way: down-degrees have a
// single writer; up-degrees accumulate with relaxed atomic increments,
// whose sum is order-free.
//
// The atomics are needed only when blocks are sharded. With no pool or
// a 1-lane pool the blocks run in index order on the calling thread,
// and both passes use plain increments instead: a relaxed RMW is still
// `lock`-prefixed on x86, which serializes the scatter's cache misses.
// The serial run claims each up half's slots in ascending neighbor
// order, which is the sorted layout itself, so it also skips the sort
// and its CSR is identical.
//
// Memory stays on the diet path: no edge list is staged, and the
// transient arrays (two u32 degree halves + the u64 cursor) are freed
// as soon as the offsets are fixed, so peak is CSR + ~16 bytes/vertex
// over the final graph. With ShardedGnpOptions::first_touch the CSR
// arrays are pre-touched in ThreadPool::parallel_for_range's chunk
// layout so pages land near the lanes that later scan them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

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

/// Streams block b's G(n, p) pairs (u, v), u < v, to fn in row order
/// and returns the block's stream for the caller to digest. Both passes
/// replay the same stream, so pass 2 sees exactly pass 1's edges.
template <typename Fn>
Rng replay_block(VertexId n, double p, std::uint64_t seed, std::uint64_t b,
                 Fn&& fn) {
  // SLUMBER-STREAM-DISCIPLINE(block-counter): one stream per vertex
  // block; the dense block id b is the stream key and blocks never
  // share a row, so no tag mixing is needed (see README).
  Rng rng = util::stream_rng(seed, b);
  const VertexId lo = static_cast<VertexId>(b * kBlockVertices);
  const VertexId hi = static_cast<VertexId>(
      std::min<std::uint64_t>(n, (b + 1) * kBlockVertices));
  for_each_gnp_edge_rows(lo, hi, p, rng, fn);
  return rng;
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

  // --- pass 1: degree halves ----------------------------------------
  // down[x] = |{u < x adjacent to x}| (single writer: block(x));
  // up[u]   = |{v > u adjacent to u}| (relaxed atomic sum when sharded).
  util::PodVector<std::uint32_t> down =
      util::sharded_fill<std::uint32_t>(n, 0, first_touch ? pool : nullptr);
  util::PodVector<std::uint32_t> up =
      util::sharded_fill<std::uint32_t>(n, 0, first_touch ? pool : nullptr);
  // Pass 1's block body; count_up(u) bumps up[u].
  auto count_block = [&](std::uint64_t b, auto&& count_up) {
    std::uint64_t count = 0;
    replay_block(n, p, seed, b, [&](VertexId u, VertexId v) {
      ++down[v];  // v is a row of block b: block(v) is the single writer
      count_up(u);
      ++count;
    });
    return count;
  };
  std::uint64_t m = 0;
  {
    obs::Span span("gen", "degree_pass", blocks);
    if (sharded) {
      std::atomic<std::uint64_t> edge_total{0};
      pool->parallel_for_index(blocks, [&](std::uint64_t b) {
        const std::uint64_t count = count_block(b, [&up](VertexId u) {
          std::atomic_ref<std::uint32_t>(up[u]).fetch_add(
              1, std::memory_order_relaxed);
        });
        edge_total.fetch_add(count, std::memory_order_relaxed);
      });
      m = edge_total.load(std::memory_order_relaxed);
    } else {
      for (std::uint64_t b = 0; b < blocks; ++b) {
        m += count_block(b, [&up](VertexId u) { ++up[u]; });
      }
    }
  }
  checked_edge_count(m, "gnp_sharded_csr");

  // --- offsets + up-half cursors ------------------------------------
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
  // cursor[u] starts at the first slot of u's up half and is bumped once
  // per up-half write in pass 2 (a relaxed fetch_add when sharded).
  util::PodVector<CsrOffset> cursor;
  cursor.resize(n);
  {
    obs::Span span("gen", "cursor_init", n);
    CsrOffset* cur = cursor.data();
    const CsrOffset* off = offsets.data();
    const std::uint32_t* dn = down.data();
    for_each_range(n, pool, [cur, off, dn](std::uint64_t begin,
                                           std::uint64_t end) {
      for (std::uint64_t v = begin; v < end; ++v) cur[v] = off[v] + dn[v];
    });
  }
  // Folded into offsets/cursor; genuinely release (swap — `= {}` would
  // retain capacity) before the adjacency allocation below.
  util::PodVector<std::uint32_t>().swap(up);

  // --- pass 2: fill -------------------------------------------------
  util::PodVector<VertexId> adjacency;
  adjacency.resize(offsets[n]);
  if (first_touch) {
    // Deliberate page placement; every slot is overwritten below.
    VertexId* adj = adjacency.data();
    for_each_range(offsets[n], pool,
                   [adj](std::uint64_t begin, std::uint64_t end) {
                     for (std::uint64_t i = begin; i < end; ++i) adj[i] = 0;
                   });
  }
  // Pass 2's block body; claim_up(u) returns the next free slot of
  // u's up half. Returns the stream's next draw after generation, a pure
  // function of (seed, b) whose wrapping sum over blocks is order-free.
  auto fill_block = [&](std::uint64_t b, auto&& claim_up) {
    VertexId row = kInvalidVertex;
    CsrOffset row_cursor = 0;
    Rng rng = replay_block(n, p, seed, b, [&](VertexId u, VertexId v) {
      if (v != row) {
        row = v;
        row_cursor = offsets[v];
      }
      // row_cursor walks offsets[v]..offsets[v]+down[v], a range owned
      // by block b since block(v) == b.
      adjacency[row_cursor++] = u;  // down half, ascending in row
      adjacency[claim_up(u)] = v;   // up half, ascending after the sort
    });
    return rng.next();
  };
  std::uint64_t rng_digest = 0;
  {
    obs::Span span("gen", "fill_pass", blocks);
    if (sharded) {
      std::atomic<std::uint64_t> digest{0};
      pool->parallel_for_index(blocks, [&](std::uint64_t b) {
        const std::uint64_t next = fill_block(b, [&cursor](VertexId u) {
          return std::atomic_ref<CsrOffset>(cursor[u]).fetch_add(
              1, std::memory_order_relaxed);
        });
        digest.fetch_add(next, std::memory_order_relaxed);
      });
      rng_digest = digest.load(std::memory_order_relaxed);
    } else {
      for (std::uint64_t b = 0; b < blocks; ++b) {
        rng_digest += fill_block(b, [&cursor](VertexId u) {
          return cursor[u]++;
        });
      }
    }
  }
  util::PodVector<CsrOffset>().swap(cursor);

  // --- canonicalize the up halves -----------------------------------
  // Only sharded claims land out of order. The serial run visits blocks,
  // and rows within a block, ascending, so its up halves are already
  // sorted (from_csr rejects the CSR if they are not).
  if (sharded) {
    obs::Span span("gen", "sort_up_halves", n);
    VertexId* adj = adjacency.data();
    const CsrOffset* off = offsets.data();
    const std::uint32_t* dn = down.data();
    for_each_range(n, pool, [adj, off, dn](std::uint64_t begin,
                                           std::uint64_t end) {
      for (std::uint64_t v = begin; v < end; ++v) {
        std::sort(adj + off[v] + dn[v], adj + off[v + 1]);
      }
    });
  }
  util::PodVector<std::uint32_t>().swap(down);

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
