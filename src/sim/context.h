// Per-node execution context: the API a protocol coroutine programs
// against.
//
// Model semantics (paper Section 1.2, "Sleeping Model"):
//   * `co_await ctx.broadcast(m)` / `exchange(...)` / `listen()` — the
//     node is AWAKE for exactly one round: it sends its messages,
//     receives whatever awake neighbors sent it that round, and is
//     charged one awake round.
//   * `ctx.sleep(d)` — the node SLEEPS for d rounds before its next
//     awake round. Sleeping costs nothing; messages sent to a sleeping
//     node are dropped (the network only delivers to nodes that are
//     awake in the same round).
//   * `ctx.decide(v)` — records the node's output and the round/awake
//     time at which its status was fixed (the Feuilloley/Barenboim-Tzur
//     "decided" instant).
// Returning from the root protocol coroutine terminates the node.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/message.h"
#include "util/stream_rng.h"

namespace slumber::sim {

class Network;

/// Everything a node receives in one awake round.
using Inbox = std::vector<Received>;

/// What a node emits in one awake round.
struct OutBundle {
  /// If set, the same message goes out on every port.
  std::optional<Message> broadcast;
  /// Otherwise/additionally, explicit (port, message) pairs.
  std::vector<std::pair<std::uint32_t, Message>> per_port;

  bool empty() const { return !broadcast.has_value() && per_port.empty(); }
};

class Context {
 public:
  VertexId id() const { return id_; }
  std::uint32_t degree() const { return degree_; }
  std::uint64_t n() const { return n_; }

  /// The current virtual round (1-based; 0 = before the first round).
  std::uint64_t round() const;

  /// The run's seed; keys every random draw (util/stream_rng.h).
  std::uint64_t seed() const;

  /// Sleep for `rounds` rounds before the next awake round. Accumulates;
  /// costs zero awake rounds.
  void sleep(std::uint64_t rounds) { pending_sleep_ += rounds; }

  /// Awaitable: one awake round sending `m` on every port.
  auto broadcast(Message m) {
    OutBundle out;
    out.broadcast = m;
    return ExchangeAwaiter{this, std::move(out)};
  }

  /// Awaitable: one awake round with explicit per-port messages.
  auto exchange(std::vector<std::pair<std::uint32_t, Message>> msgs) {
    OutBundle out;
    out.per_port = std::move(msgs);
    return ExchangeAwaiter{this, std::move(out)};
  }

  /// Awaitable: one awake round sending nothing (idle listening — the
  /// expensive state the paper's motivation is about).
  auto listen() { return ExchangeAwaiter{this, OutBundle{}}; }

  /// Records this node's output value and the decision instant.
  /// Idempotent: only the first call sticks.
  void decide(std::int64_t output);

  bool decided() const { return decided_; }
  std::int64_t output() const { return output_; }

 private:
  friend class Network;

  struct ExchangeAwaiter {
    Context* ctx;
    OutBundle out;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->resume_point_ = h;
      ctx->pending_out_ = std::move(out);
      ctx->requested_sleep_ = ctx->pending_sleep_;
      ctx->pending_sleep_ = 0;
      ctx->waiting_for_round_ = true;
    }
    Inbox await_resume() {
      ctx->waiting_for_round_ = false;
      return std::move(ctx->inbox_);
    }
  };

  Context(Network* net, VertexId id, std::uint32_t degree, std::uint64_t n)
      : net_(net), id_(id), degree_(degree), n_(n) {}

  Network* net_;
  VertexId id_;
  std::uint32_t degree_;
  std::uint64_t n_;

  // --- scheduler interface ---
  std::coroutine_handle<> resume_point_;  // innermost suspended coroutine
  OutBundle pending_out_;                 // what to send at next awake round
  Inbox inbox_;                           // filled by the network pre-resume
  std::uint64_t pending_sleep_ = 0;       // accumulated ctx.sleep() calls
  std::uint64_t requested_sleep_ = 0;     // sleep captured at suspension
  bool waiting_for_round_ = false;

  // --- outputs ---
  bool decided_ = false;
  std::int64_t output_ = -1;
};

}  // namespace slumber::sim
