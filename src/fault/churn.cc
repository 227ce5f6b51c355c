#include "fault/churn.h"

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace slumber::fault {
namespace {

// Below this many nodes a sharded pass costs more in fork-join than it
// saves; matches the bulk engine's default parallel_cutoff.
constexpr std::size_t kParallelCutoff = 4096;

/// Runs fn(chunk, begin, end) over [0, n), sharded over `pool` when it
/// pays off. `chunks` must be chunk_count(pool, n) — per-chunk partial
/// arrays are indexed by the chunk argument and reduced in chunk index
/// order by the caller (integer sums, so order-free anyway).
std::size_t chunk_count(util::ThreadPool* pool, std::size_t n) {
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && n >= kParallelCutoff;
  return parallel ? pool->num_chunks(n) : 1;
}

template <typename Fn>
void for_range(util::ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (n == 0) return;
  if (chunk_count(pool, n) == 1) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  pool->parallel_for_range(
      n, [&](std::size_t c, std::size_t begin, std::size_t end) {
        fn(c, begin, end);
      });
}

std::uint64_t sum(const std::vector<std::uint64_t>& parts) {
  std::uint64_t total = 0;
  for (const std::uint64_t p : parts) total += p;
  return total;
}

/// Repair priority: a keyed hash, so the repaired set depends on the
/// fault seed rather than on vertex numbering alone.
std::uint64_t prio(std::uint64_t fault_seed, VertexId v) {
  return util::stream_key(fault_seed ^ util::stream_tags::kRepairTag, v);
}

bool beats(std::uint64_t fault_seed, VertexId u, VertexId v) {
  const std::uint64_t pu = prio(fault_seed, u);
  const std::uint64_t pv = prio(fault_seed, v);
  return pu != pv ? pu > pv : u < v;
}

}  // namespace

std::uint64_t repair_mis(const Graph& g, const std::vector<std::uint8_t>& alive,
                         std::vector<std::int64_t>& outputs,
                         std::uint64_t fault_seed, util::ThreadPool* pool,
                         std::uint64_t* demotions, std::uint64_t* promotions) {
  const std::size_t n = g.num_vertices();
  obs::Span span(obs::enabled() && n >= kParallelCutoff ? "fault" : nullptr,
                 "repair_mis", n);
  std::vector<std::uint8_t> in_mis(n, 0);
  for_range(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (alive[v] == 0) {
        outputs[v] = -1;
      } else {
        outputs[v] = outputs[v] == 1 ? 1 : 0;
        in_mis[v] = outputs[v] == 1 ? 1 : 0;
      }
    }
  });
  std::uint64_t rounds = 0;

  // Phase 1, one pass: restore independence. Reads go to the `snap`
  // copy and writes to own-node slots of `in_mis`, so every lane sees
  // the same pre-pass membership. Any surviving adjacent MIS pair would
  // mean neither endpoint had a beating MIS neighbor — impossible, one
  // of the two beats the other — so one pass suffices.
  const std::vector<std::uint8_t> snap = in_mis;
  std::vector<std::uint64_t> demoted_parts(chunk_count(pool, n), 0);
  for_range(pool, n, [&](std::size_t c, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (alive[v] == 0 || snap[v] == 0) continue;
      for (const VertexId u : g.neighbors(v)) {
        if (alive[u] != 0 && snap[u] != 0 &&
            beats(fault_seed, u, static_cast<VertexId>(v))) {
          in_mis[v] = 0;
          outputs[v] = 0;
          ++demoted_parts[c];
          break;
        }
      }
    }
  });
  ++rounds;
  if (demotions != nullptr) *demotions += sum(demoted_parts);

  // Phase 2: promote to maximality. Candidates are computed against the
  // pass-stable `in_mis`, then the winning candidates join; the
  // globally best candidate always wins its neighborhood, so each pass
  // makes progress and the loop terminates.
  std::vector<std::uint8_t> candidate(n, 0);
  for (;;) {
    std::vector<std::uint64_t> cand_parts(chunk_count(pool, n), 0);
    for_range(pool, n, [&](std::size_t c, std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        candidate[v] = 0;
        if (alive[v] == 0 || in_mis[v] != 0) continue;
        bool mis_neighbor = false;
        for (const VertexId u : g.neighbors(v)) {
          if (alive[u] != 0 && in_mis[u] != 0) {
            mis_neighbor = true;
            break;
          }
        }
        if (!mis_neighbor) {
          candidate[v] = 1;
          ++cand_parts[c];
        }
      }
    });
    if (sum(cand_parts) == 0) break;

    std::vector<std::uint64_t> promoted_parts(chunk_count(pool, n), 0);
    for_range(pool, n, [&](std::size_t c, std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        if (candidate[v] == 0) continue;
        bool wins = true;
        for (const VertexId u : g.neighbors(v)) {
          if (alive[u] != 0 && candidate[u] != 0 &&
              !beats(fault_seed, static_cast<VertexId>(v), u)) {
            wins = false;
            break;
          }
        }
        if (wins) {
          in_mis[v] = 1;
          outputs[v] = 1;
          ++promoted_parts[c];
        }
      }
    });
    ++rounds;
    if (promotions != nullptr) *promotions += sum(promoted_parts);
  }
  return rounds;
}

bool check_alive_mis(const Graph& g, const std::vector<std::uint8_t>& alive,
                     const std::vector<std::int64_t>& outputs,
                     util::ThreadPool* pool) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint64_t> bad_parts(chunk_count(pool, n), 0);
  for_range(pool, n, [&](std::size_t c, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (alive[v] == 0) continue;
      if (outputs[v] != 0 && outputs[v] != 1) {
        ++bad_parts[c];
        continue;
      }
      bool mis_neighbor = false;
      for (const VertexId u : g.neighbors(v)) {
        if (alive[u] != 0 && outputs[u] == 1) {
          mis_neighbor = true;
          break;
        }
      }
      if (outputs[v] == 1 ? mis_neighbor : !mis_neighbor) ++bad_parts[c];
    }
  });
  return sum(bad_parts) == 0;
}

ChurnReport run_churn(const Graph& g, const ChurnSpec& spec,
                      std::uint64_t fault_seed,
                      std::vector<std::uint8_t>& alive,
                      std::vector<std::int64_t>& outputs,
                      util::ThreadPool* pool) {
  const std::size_t n = g.num_vertices();
  ChurnReport report;
  report.valid = true;

  // The trial may have ended invalid (crashed or lossy runs): repair
  // before the stream starts so every batch begins from a valid MIS.
  report.repair_rounds += repair_mis(g, alive, outputs, fault_seed, pool,
                                     &report.demotions, &report.promotions);
  report.valid = report.valid && check_alive_mis(g, alive, outputs, pool);

  for (std::uint32_t batch = 1; batch <= spec.batches; ++batch) {
    ++report.batches;
    obs::Span batch_span("fault", "churn_batch", batch);
    // Keyed membership draws: one stream per (node, batch), so the
    // batch's composition is independent of lane count and of any other
    // RNG consumer in the run.
    std::vector<std::uint64_t> leave_parts(chunk_count(pool, n), 0);
    std::vector<std::uint64_t> join_parts(chunk_count(pool, n), 0);
    for_range(pool, n, [&](std::size_t c, std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        const std::uint64_t stream = util::stream_key(
            util::stream_tags::kChurnTag ^ static_cast<VertexId>(v), batch);
        if (alive[v] != 0) {
          if (spec.leave_prob > 0.0 &&
              util::stream_rng(fault_seed, stream).bernoulli(spec.leave_prob)) {
            alive[v] = 0;
            outputs[v] = -1;
            ++leave_parts[c];
          }
        } else {
          if (spec.join_prob > 0.0 &&
              util::stream_rng(fault_seed, stream).bernoulli(spec.join_prob)) {
            alive[v] = 1;
            outputs[v] = 0;
            ++join_parts[c];
          }
        }
      }
    });
    report.leaves += sum(leave_parts);
    report.joins += sum(join_parts);

    report.repair_rounds += repair_mis(g, alive, outputs, fault_seed, pool,
                                       &report.demotions, &report.promotions);
    report.valid = report.valid && check_alive_mis(g, alive, outputs, pool);
  }

  std::vector<std::uint64_t> alive_parts(chunk_count(pool, n), 0);
  for_range(pool, n, [&](std::size_t c, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      alive_parts[c] += alive[v] != 0 ? 1 : 0;
    }
  });
  report.alive_final = sum(alive_parts);
  return report;
}

}  // namespace slumber::fault
