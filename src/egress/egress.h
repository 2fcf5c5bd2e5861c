// Egress modules (paper §4.3): "push-based egress operators support
// interaction where clients are continually streamed query results, while
// pull-based egress operators may log data and support intermittent
// retrieval of results... and may encapsulate load shedding when the system
// is in danger of falling behind."

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "tuple/tuple.h"

namespace tcq {

/// One delivered result.
struct Delivery {
  uint64_t query_id = 0;
  Tuple tuple;
};

/// What to do when a push client's queue is full (QoS knob).
enum class ShedPolicy {
  kDropNewest,  ///< shed the arriving result
  kDropOldest,  ///< shed the stalest buffered result
  kBlock,       ///< apply back-pressure to the executor
};

const char* ShedPolicyName(ShedPolicy p);

/// Push egress: a bounded, thread-safe buffer the engine pushes into and a
/// streaming client drains. It has two sides, so a client's polls do not
/// contend with the shard EOs offering runs:
///   - the producer side (`in_` under `mu_`), where OfferBatch appends runs;
///   - the consumer side (`out_` under `out_mu_`), which Poll and Receive
///     pop from. When it runs dry the consumer takes `mu_` once and swaps
///     the producer side in, so one producer-lock acquisition moves a whole
///     backlog. Lock order: `out_mu_`, then `mu_`.
/// Everything on the consumer side is older than everything on the producer
/// side, so popping `out_` then `in_` is FIFO. Capacity, kDropOldest and
/// buffered() count both sides through the atomic `size_`, which also lets
/// an empty egress answer Poll without taking a lock.
class PushEgress {
 public:
  struct Options {
    size_t capacity = 1024;
    ShedPolicy shed = ShedPolicy::kDropOldest;
  };

  /// When `metrics` is null the egress observes itself in a private
  /// registry; `label` distinguishes clients sharing one registry. Shed
  /// counts are labeled by policy (tcq_egress_shed_total{policy="..."}).
  PushEgress() : PushEgress(Options()) {}
  explicit PushEgress(Options opts, MetricsRegistryRef metrics = nullptr,
                      std::string label = "");

  /// Engine side: offers a run of deliveries under one producer-lock hold,
  /// applying the shed policy to each in order exactly as that many Offer
  /// calls would. Accepted deliveries are moved out of `run`. Returns how
  /// many were accepted: a kDropNewest shed skips one delivery, and Close()
  /// ends the run (a kBlock producer waiting for room wakes and pushes
  /// nothing more). A run's deliveries stay contiguous unless a kBlock
  /// producer has to wait for room. One kEgressEmit span covers the run;
  /// the end-to-end sample is recorded per accepted delivery.
  size_t OfferBatch(std::span<Delivery> run);

  /// A run of one. Returns false if the delivery was shed.
  bool Offer(const Delivery& delivery);

  /// Client side: non-blocking poll. An empty egress answers without
  /// taking a lock.
  bool Poll(Delivery* out);

  /// Client side: blocking receive; false once closed and drained.
  bool Receive(Delivery* out);

  void Close();

  uint64_t delivered() const;
  uint64_t shed() const;
  size_t buffered() const;
  /// Control and revision tuples that passed through this client, counted
  /// by kind: a disconnect-and-diff client uses these to know whether its
  /// buffered answer set is still speculative.
  uint64_t punctuations_delivered() const;
  uint64_t retractions_delivered() const;
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  /// Pops the oldest delivery into `out` (caller holds out_mu_), refilling
  /// the consumer side from the producer side when it is empty. False when
  /// both sides are empty.
  bool PopLocked(Delivery* out);
  /// Drops the globally oldest delivery to make room (caller holds both
  /// locks).
  void DropOldestLocked();
  /// Wakes kBlock producers after a pop made room (caller holds out_mu_).
  void NotifyRoom();

  Options opts_;
  /// Producer side: `in_`, `closed_`, and the not_empty_ waiter count.
  mutable std::mutex mu_;
  /// Consumer side: `out_`. Taken before `mu_` when both are needed.
  mutable std::mutex out_mu_;
  /// not_full_ wakes kBlock producers as Poll/Receive make room, not_empty_
  /// wakes Receive; both wait under mu_. Each has a waiter count so the hot
  /// paths notify only when someone waits. full_waiters_ is atomic because
  /// consumers read it without mu_ (see NotifyRoom).
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::atomic<size_t> full_waiters_{0};
  size_t empty_waiters_ = 0;
  std::deque<Delivery> in_;
  std::deque<Delivery> out_;
  /// in_.size() + out_.size(). Only producers raise it (under mu_), so a
  /// producer's read under mu_ can only overstate the occupancy.
  std::atomic<size_t> size_{0};
  bool closed_ = false;
  MetricsRegistryRef metrics_;
  Counter* delivered_;
  Counter* shed_;
  Counter* punctuations_;
  Counter* retractions_;
  Gauge* buffered_gauge_;
};

/// Pull egress: logs results per query so intermittently connected clients
/// can fetch "what happened since I left" (PSoup-style delivery decoupling
/// at the egress boundary).
class PullEgress {
 public:
  struct Options {
    /// Retain at most this many results per query (0 = unbounded).
    size_t max_per_query = 0;
  };

  PullEgress() : PullEgress(Options()) {}
  explicit PullEgress(Options opts) : opts_(opts) {}

  /// Engine side.
  void Log(const Delivery& delivery);

  /// Client side: results of `query_id` with production ts > since.
  /// Returns the new cursor (max ts seen) to pass next time.
  Timestamp FetchSince(uint64_t query_id, Timestamp since,
                       std::vector<Tuple>* out) const;

  size_t LoggedCount(uint64_t query_id) const;

 private:
  Options opts_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::deque<Tuple>> log_;
};

}  // namespace tcq
