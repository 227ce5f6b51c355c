#include "bulk/engine.h"

#include <algorithm>
#include <limits>
#include <string>

#include "obs/obs.h"

namespace slumber::bulk {

BulkEngine::BulkEngine(const Graph& g, std::uint64_t seed, BulkOptions options)
    : graph_(g),
      options_(options),
      seed_(seed),
      fault_(options.fault, seed, g.num_vertices()) {
  const VertexId n = g.num_vertices();
  if (options_.node_metrics) metrics_.node.resize(n);
  if (fault_.has_crashes()) crashed_.assign(n, 0);
  if (fault_.has_live_churn()) departed_.assign(n, 0);
  outputs_.assign(n, -1);
  // With first_touch, each lane initializes (and so places) the slice
  // of the hot per-node arrays that parallel_for_range will hand it on
  // every subsequent sharded scan. Contents are identical either way.
  util::ThreadPool* touch_pool =
      options_.first_touch && options_.pool != nullptr &&
              options_.pool->num_threads() > 1
          ? options_.pool
          : nullptr;
  decided_ = util::sharded_fill<std::uint8_t>(n, 0, touch_pool);
  awake_epoch_ = util::sharded_fill<std::uint32_t>(n, 0, touch_pool);
}

void BulkEngine::merge_chunk(const BulkChunk& chunk) {
  metrics_.total_messages += chunk.total_messages_;
  metrics_.dropped_messages += chunk.dropped_messages_;
  metrics_.injected_losses += chunk.injected_losses_;
  metrics_.congest_violations += chunk.congest_violations_;
  metrics_.max_message_bits_seen =
      std::max(metrics_.max_message_bits_seen, chunk.max_message_bits_seen_);
  virtual_makespan_ = std::max(virtual_makespan_, chunk.virtual_makespan_);
}

ScanResult BulkEngine::scan_awake(
    std::span<const VertexId> vs,
    const std::function<void(BulkChunk&, std::span<const VertexId>)>& fn) {
  return scan_range(vs.size(),
                    [&](BulkChunk& chunk, std::size_t begin, std::size_t end) {
                      fn(chunk, vs.subspan(begin, end - begin));
                    });
}

ScanResult BulkEngine::scan_range(
    std::size_t total,
    const std::function<void(BulkChunk&, std::size_t begin, std::size_t end)>&
        fn) {
  ScanResult result;
  if (total == 0) return result;
  const bool parallel = options_.pool != nullptr &&
                        options_.pool->num_threads() > 1 && total > 1 &&
                        total >= options_.parallel_cutoff;
  // Telemetry only: spans for cutoff-sized scans, with a scan id that
  // groups this scan's chunk spans in the export (imbalance stats).
  // Sub-cutoff scans stay span-free so 10^7-node runs emit thousands of
  // events, not hundreds of millions. Never read by any decision.
  const bool traced = obs::enabled() && total >= options_.parallel_cutoff;
  const std::uint64_t scan_id = traced ? ++obs_scan_seq_ : 0;
  obs::Span scan_span(traced ? "engine" : nullptr, "scan", scan_id);
  if (!parallel) {
    BulkChunk chunk(this);
    fn(chunk, 0, total);
    merge_chunk(chunk);
    result.kept = std::move(chunk.kept_);
    result.dropped = std::move(chunk.dropped_);
    result.user = chunk.user_;
    return result;
  }
  const std::size_t chunks = options_.pool->num_chunks(total);
  std::vector<BulkChunk> parts(chunks, BulkChunk(this));
  options_.pool->parallel_for_range(
      total, [&](std::size_t c, std::size_t begin, std::size_t end) {
        obs::Span chunk_span(traced ? "engine" : nullptr, "chunk", scan_id);
        fn(parts[c], begin, end);
      });
  // Deterministic reduction in chunk index order. Every merged quantity
  // is an integer sum or max, and the keep()/drop() lists concatenate
  // in input order, so the result is bitwise independent of the lane
  // count.
  std::size_t total_kept = 0;
  std::size_t total_dropped = 0;
  for (const BulkChunk& part : parts) {
    total_kept += part.kept_.size();
    total_dropped += part.dropped_.size();
  }
  result.kept.reserve(total_kept);
  result.dropped.reserve(total_dropped);
  for (BulkChunk& part : parts) {
    merge_chunk(part);
    result.user += part.user_;
    result.kept.insert(result.kept.end(), part.kept_.begin(),
                       part.kept_.end());
    result.dropped.insert(result.dropped.end(), part.dropped_.begin(),
                          part.dropped_.end());
  }
  return result;
}

void BulkEngine::mark_awake(std::span<const VertexId> awake) {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Theoretical wrap guard (needs 2^32 - 1 mark_awake calls): restart
    // the stamp sequence with a clean slate.
    std::fill(awake_epoch_.begin(), awake_epoch_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  const std::uint32_t epoch = epoch_;
  obs::Span span(obs::enabled() && awake.size() >= options_.parallel_cutoff
                     ? "engine"
                     : nullptr,
                 "mark_awake", awake.size());
  const bool parallel = options_.pool != nullptr &&
                        options_.pool->num_threads() > 1 &&
                        awake.size() >= options_.parallel_cutoff;
  if (!parallel) {
    for (const VertexId v : awake) awake_epoch_[v] = epoch;
    return;
  }
  // Awake sets hold distinct vertices, so the stamped slots are
  // disjoint across lanes.
  options_.pool->parallel_for_range(
      awake.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          awake_epoch_[awake[i]] = epoch;
        }
      });
}

void BulkEngine::charge_round(std::span<const VertexId> awake,
                              VirtualRound round) {
  if (awake.empty()) return;
  if (obs::enabled()) {
    // Out-of-band progress + occupancy samples (write-only telemetry).
    obs::progress_round(static_cast<double>(round));
    if (awake.size() >= options_.parallel_cutoff) {
      obs::counter("awake_set", static_cast<double>(awake.size()));
    }
    if (fault_.has_burst()) {
      // Epoch rollovers of the burst-channel clock: the instants at
      // which per-link burst states may transition. Write-only.
      const VirtualRound epoch = round / fault_.plan()->burst.epoch_len;
      if (epoch != obs_burst_epoch_) {
        obs_burst_epoch_ = epoch;
        obs::instant("fault", "burst_epoch", saturate_round(epoch));
      }
    }
  }
  ++metrics_.distinct_active_rounds;
  metrics_.total_awake_node_rounds += awake.size();
  virtual_makespan_ = std::max(virtual_makespan_, round);
  if (!options_.node_metrics) return;
  const bool parallel = options_.pool != nullptr &&
                        options_.pool->num_threads() > 1 &&
                        awake.size() >= options_.parallel_cutoff;
  if (!parallel) {
    for (const VertexId v : awake) ++metrics_.node[v].awake_rounds;
    return;
  }
  options_.pool->parallel_for_range(
      awake.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          ++metrics_.node[awake[i]].awake_rounds;
        }
      });
}

void BulkEngine::charge_send(VertexId v, std::uint64_t attempted,
                             std::uint64_t delivered, std::uint32_t bits,
                             std::uint64_t lost) {
  BulkChunk chunk(this);
  chunk.charge_send(v, attempted, delivered, bits, lost);
  merge_chunk(chunk);
}

void BulkEngine::charge_received(VertexId v, std::uint64_t count) {
  BulkChunk chunk(this);
  chunk.charge_received(v, count);
  merge_chunk(chunk);
}

void BulkEngine::charge_symmetric_broadcast(VertexId v,
                                            std::uint64_t awake_neighbors,
                                            std::uint32_t bits) {
  BulkChunk chunk(this);
  chunk.charge_symmetric_broadcast(v, awake_neighbors, bits);
  merge_chunk(chunk);
}

void BulkEngine::decide(VertexId v, std::int64_t output, VirtualRound round) {
  BulkChunk chunk(this);
  chunk.decide(v, output, round);
  merge_chunk(chunk);
}

void BulkEngine::finish(VertexId v, VirtualRound round) {
  BulkChunk chunk(this);
  chunk.finish(v, round);
  merge_chunk(chunk);
}

std::vector<VertexId> BulkEngine::apply_dynamics(
    std::vector<VertexId> awake, VirtualRound round,
    const std::function<void(VertexId)>& on_reenter) {
  const bool crashy_run = fault_.has_crashes();
  const bool churny = fault_.has_live_churn();
  if (!crashy_run && !churny) return awake;
  const bool recovering = fault_.has_recovery();
  const RoundHalves halves = round_halves(round);
  const std::uint64_t lo = halves.lo;
  const std::uint64_t hi = halves.hi;
  const std::size_t before = awake.size();
  obs::Span span(obs::enabled() && before >= options_.parallel_cutoff
                     ? "fault"
                     : nullptr,
                 "dynamics", before);
  // Phase 1 (sharded): removal draws over the participating set.
  // Removed nodes land on the chunk drop() lists exactly when a
  // comeback must be scheduled, giving phase 2 a chunk-order (lane-
  // count-independent) sequence to walk.
  ScanResult scan;
  if (before > 0) {
    scan = scan_awake(
        awake, [&](BulkChunk& chunk, std::span<const VertexId> part) {
          for (const VertexId v : part) {
            // Already-down nodes are dropped silently (the SleepingMIS
            // recursion's ancestor member lists legitimately go stale
            // when a node leaves inside a child frame).
            if (down(v)) continue;
            if (crashy_run && fault_.crashes_now(v, lo, hi)) {
              crashed_[v] = 1;
              if (options_.node_metrics) metrics_.node[v].crashed = true;
              chunk.finish(v, round);
              chunk.bump();
              if (recovering) chunk.drop(v);
              continue;
            }
            if (churny) {
              if (fault_.live_leave(v, lo, hi).leaves) {
                departed_[v] = 1;
                chunk.finish(v, round);
                chunk.drop(v);
                continue;
              }
            }
            chunk.keep(v);
          }
        });
    metrics_.crashed_nodes += scan.user;
  }
  // Phase 2 (serial): schedule comebacks for this round's removals. The
  // keyed draws are recomputed here rather than smuggled out of the
  // chunks — same stream, same bits, and the scan lambda stays a pure
  // filter.
  std::uint64_t leaves = 0;
  for (const VertexId v : scan.dropped) {
    VirtualRound due = 0;
    if (crashed(v)) {
      // Just crashed with recovery enabled (only those were drop()ed).
      due = round + fault_.recover_downtime(v, lo, hi);
    } else {
      ++leaves;
      const fault::LeaveDraw draw = fault_.live_leave(v, lo, hi);
      if (!draw.rejoins) continue;
      due = round + draw.downtime;
    }
    pending_returns_.push_back({due, v});
    std::push_heap(pending_returns_.begin(), pending_returns_.end(),
                   returns_later);
  }
  metrics_.live_leaves += leaves;
  // Phase 3 (serial): re-admit every down node whose downtime elapsed,
  // in (due round, node id) order. Re-entrants come back undecided; the
  // protocol resets its own per-node state in on_reenter.
  std::vector<VertexId> result = std::move(scan.kept);
  std::uint64_t reentries = 0;
  while (!pending_returns_.empty() && pending_returns_.front().at <= round) {
    std::pop_heap(pending_returns_.begin(), pending_returns_.end(),
                  returns_later);
    const VertexId v = pending_returns_.back().node;
    pending_returns_.pop_back();
    if (crashed(v)) {
      crashed_[v] = 0;
      if (options_.node_metrics) metrics_.node[v].crashed = false;
      ++metrics_.recovered_nodes;
    } else {
      departed_[v] = 0;
      ++metrics_.live_rejoins;
    }
    decided_[v] = 0;
    outputs_[v] = -1;
    if (on_reenter) on_reenter(v);
    result.push_back(v);
    ++reentries;
  }
  if (obs::enabled() && (leaves > 0 || reentries > 0)) {
    // Cumulative event gauges for the export timeline (write-only).
    if (metrics_.live_leaves > 0) {
      obs::counter("live_leaves", static_cast<double>(metrics_.live_leaves));
    }
    if (metrics_.live_rejoins > 0) {
      obs::counter("live_rejoins", static_cast<double>(metrics_.live_rejoins));
    }
    if (metrics_.recovered_nodes > 0) {
      obs::counter("recovered_nodes",
                   static_cast<double>(metrics_.recovered_nodes));
    }
  }
  // The coroutine scheduler counts a round whose wake bucket was
  // non-empty as active even when every woken node crashes; the
  // protocol's charge_round(empty set) would miss it.
  if (result.empty() && before > 0) ++metrics_.distinct_active_rounds;
  return result;
}

BulkResult BulkEngine::take_result() {
  if (options_.node_metrics) {
    metrics_.makespan = 0;
    for (const sim::NodeMetrics& m : metrics_.node) {
      metrics_.makespan = std::max(metrics_.makespan, m.finish_round);
    }
  } else {
    metrics_.makespan = saturate_round(virtual_makespan_);
  }
  BulkResult result;
  result.metrics = std::move(metrics_);
  result.outputs = std::move(outputs_);
  result.virtual_makespan = virtual_makespan_;
  result.crashed = std::move(crashed_);
  result.departed = std::move(departed_);
  return result;
}

BulkResult run_bulk(const Graph& g, std::uint64_t seed, BulkProtocol& protocol,
                    BulkOptions options) {
  BulkEngine engine(g, seed, options);
  protocol.run(engine);
  return engine.take_result();
}

}  // namespace slumber::bulk
