#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace slumber::sim {

std::uint32_t congest_bits_for(std::uint64_t n) {
  const auto log_n = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  // Tag byte + a generous O(log n) payload budget (4 log n), matching the
  // classical CONGEST(log n) convention of c*log n-bit messages. Floored
  // at 4 words-of-log so asymptotically-fine protocols are not rejected
  // on toy instances (O(log n) is meaningless at n = 2).
  return 8 + 4 * std::max<std::uint32_t>(log_n, 4);
}

std::uint64_t Context::round() const { return net_->current_round(); }

std::uint64_t Context::seed() const { return net_->seed_; }

void Context::decide(std::int64_t output) {
  if (decided_) return;
  decided_ = true;
  output_ = output;
  auto& m = net_->metrics_.node[id_];
  m.decided_round = net_->current_round();
  m.awake_at_decision = m.awake_rounds;
  if (net_->options_.trace != nullptr) {
    net_->options_.trace->on_event({TraceEventKind::kDecide,
                                    net_->current_round(), id_,
                                    kInvalidVertex, MsgKind::kCustom, output});
  }
}

Network::Network(const Graph& g, std::uint64_t seed, NetworkOptions options)
    : graph_(g),
      options_(options),
      seed_(seed),
      fault_(options.fault, seed, g.num_vertices()) {
  const VertexId n = g.num_vertices();
  metrics_.node.resize(n);
  finished_.assign(n, false);
  last_awake_.assign(n, 0);
  contexts_.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    contexts_.emplace_back(new Context(this, v, g.degree(v), n));
  }
}

Network::~Network() = default;

void Network::check_congest(const Message& m) {
  metrics_.max_message_bits_seen =
      std::max(metrics_.max_message_bits_seen, m.bits);
  if (options_.max_message_bits != 0 && m.bits > options_.max_message_bits) {
    ++metrics_.congest_violations;
    if (options_.throw_on_congest_violation) {
      throw CongestViolation(
          "message of " + std::to_string(m.bits) + " bits exceeds CONGEST " +
          "budget of " + std::to_string(options_.max_message_bits));
    }
  }
}

void Network::deliver_from(VertexId sender) {
  Context& ctx = *contexts_[sender];
  auto deliver = [&](std::uint32_t port, const Message& m) {
    check_congest(m);
    ++metrics_.node[sender].messages_sent;
    const VertexId receiver = graph_.neighbor(sender, port);
    if (!finished_[receiver] && last_awake_[receiver] == current_round_) {
      // Loss only hits otherwise-deliverable messages, and the draw is
      // keyed by (undirected link, round) — the identical decision the
      // bulk engine computes for this edge in this round.
      if (fault_.has_loss() &&
          fault_.link_down(sender, receiver, current_round_, 0)) {
        ++metrics_.injected_losses;
        if (options_.trace != nullptr) {
          options_.trace->on_event({TraceEventKind::kDropFault, current_round_,
                                    sender, receiver, m.kind, 0});
        }
        return;
      }
      Context& rctx = *contexts_[receiver];
      const auto back_port =
          static_cast<std::uint32_t>(graph_.port_to(receiver, sender));
      rctx.inbox_.push_back({sender, back_port, m});
      ++metrics_.node[receiver].messages_received;
      ++metrics_.total_messages;
      if (options_.trace != nullptr) {
        options_.trace->on_event({TraceEventKind::kDeliver, current_round_,
                                  sender, receiver, m.kind, 0});
      }
    } else {
      // Receiver is sleeping or terminated: the message is lost
      // (paper Section 1.2: "messages sent to it ... are lost").
      ++metrics_.dropped_messages;
      if (options_.trace != nullptr) {
        options_.trace->on_event({TraceEventKind::kDropSleep, current_round_,
                                  sender, receiver, m.kind, 0});
      }
    }
  };
  if (ctx.pending_out_.broadcast.has_value()) {
    for (std::uint32_t p = 0; p < ctx.degree_; ++p) {
      deliver(p, *ctx.pending_out_.broadcast);
    }
  }
  for (const auto& [port, msg] : ctx.pending_out_.per_port) {
    deliver(port, msg);
  }
}

const Metrics& Network::run(const Protocol& protocol) {
  if (ran_) throw std::logic_error("Network::run may be called only once");
  ran_ = true;
  const VertexId n = graph_.num_vertices();
  std::uint64_t resumes = 0;

  // Round 0: start every protocol; it runs its local initialization and
  // suspends at its first communication round (or finishes immediately).
  tasks_.reserve(n);
  current_round_ = 0;
  for (VertexId v = 0; v < n; ++v) {
    tasks_.push_back(protocol(*contexts_[v]));
    tasks_[v].resume_from_root();
    ++resumes;
    if (tasks_[v].done()) {
      tasks_[v].rethrow_if_failed();
      finished_[v] = true;
      // Trailing ctx.sleep() calls with no later exchange still advance
      // the node's local clock to its true return time.
      metrics_.node[v].finish_round = contexts_[v]->pending_sleep_;
    } else {
      const std::uint64_t next = 1 + contexts_[v]->requested_sleep_;
      wake_buckets_[next].push_back(v);
    }
  }

  std::vector<VertexId> awake;
  while (!wake_buckets_.empty()) {
    auto first = wake_buckets_.begin();
    current_round_ = first->first;
    awake = std::move(first->second);
    wake_buckets_.erase(first);
    if (current_round_ > options_.max_rounds) {
      throw std::runtime_error("Network: exceeded max_rounds safety valve");
    }
    ++metrics_.distinct_active_rounds;

    // Crash injection happens first: a node that fail-stops this round
    // sends nothing and receives nothing (it is simply absent).
    if (fault_.has_crashes()) {
      std::erase_if(awake, [&](VertexId v) {
        if (!fault_.crashes_now(v, current_round_, 0)) return false;
        finished_[v] = true;
        metrics_.node[v].crashed = true;
        metrics_.node[v].finish_round = current_round_;
        ++metrics_.crashed_nodes;
        if (options_.trace != nullptr) {
          options_.trace->on_event({TraceEventKind::kCrash, current_round_, v,
                                    kInvalidVertex, MsgKind::kCustom, 0});
        }
        return true;
      });
    }

    // Mark the awake set, then deliver, then resume: all sends in a round
    // complete before any node observes its inbox.
    for (VertexId v : awake) last_awake_[v] = current_round_;
    for (VertexId v : awake) deliver_from(v);
    for (VertexId v : awake) {
      ++metrics_.node[v].awake_rounds;
      ++metrics_.total_awake_node_rounds;
      Context& ctx = *contexts_[v];
      ctx.pending_out_ = OutBundle{};
      if (options_.trace != nullptr) {
        options_.trace->on_event({TraceEventKind::kWake, current_round_, v,
                                  kInvalidVertex, MsgKind::kCustom, 0});
      }
      ctx.resume_point_.resume();
      if (++resumes > options_.max_resumes) {
        throw std::runtime_error("Network: exceeded max_resumes safety valve");
      }
      if (tasks_[v].done()) {
        tasks_[v].rethrow_if_failed();
        finished_[v] = true;
        // Include trailing sleeps so "all nodes return in the same
        // round" (Lemma 1, Condition 1) is observable in the metrics.
        metrics_.node[v].finish_round =
            current_round_ + ctx.pending_sleep_;
        if (options_.trace != nullptr) {
          options_.trace->on_event({TraceEventKind::kTerminate,
                                    current_round_, v, kInvalidVertex,
                                    MsgKind::kCustom, 0});
        }
      } else {
        const std::uint64_t next =
            current_round_ + 1 + ctx.requested_sleep_;
        wake_buckets_[next].push_back(v);
      }
    }
  }

  metrics_.makespan = 0;
  for (const NodeMetrics& m : metrics_.node) {
    metrics_.makespan = std::max(metrics_.makespan, m.finish_round);
  }
  return metrics_;
}

std::vector<std::int64_t> Network::outputs() const {
  std::vector<std::int64_t> out(graph_.num_vertices(), -1);
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    out[v] = contexts_[v]->output();
  }
  return out;
}

RunResult run_protocol(const Graph& g, std::uint64_t seed,
                       const Protocol& protocol, NetworkOptions options) {
  Network net(g, seed, options);
  net.run(protocol);
  return {net.metrics(), net.outputs()};
}

}  // namespace slumber::sim
