// Fjord: a typed connection between a producer and a consumer module, with a
// declared modality (paper §2.3). Modules written against Producer/Consumer
// endpoints are agnostic to whether the far side pushes or pulls.
//
// The transport unit is a whole TupleBatch (a "segment", see queue.h): a
// produced batch occupies one queue slot with its ColumnStore and control
// lane intact, and a consumer receives it as it was produced. Capacity is
// still counted in rows (plus one per lane entry). The per-tuple endpoints
// are batch-of-one wrappers over the same transport.
//
// A producer hands a segment over whole or not at all: nothing is ever cut
// on the way in, so a refused segment is the caller's to retry or count.
// The enqueue never blocks in push mode; instead the consumer binds a wake
// target (wake.h) that the fjord signals when it gains work or closes, so
// an idle consumer parks until then rather than sleeping on a timer.

#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "fjords/queue.h"

namespace tcq {

/// Connection modality between two modules.
enum class FjordMode {
  /// Blocking enqueue + blocking dequeue (classic iterator/pull pipeline).
  kPull,
  /// Non-blocking enqueue + non-blocking dequeue: neither side ever blocks;
  /// the consumer regains control when no data is available.
  kPush,
  /// Graefe Exchange semantics: non-blocking enqueue, blocking dequeue.
  kExchange,
};

const char* FjordModeName(FjordMode mode);

class Fjord;

/// Producer-side endpoint.
class FjordProducer {
 public:
  explicit FjordProducer(std::shared_ptr<Fjord> fjord)
      : fjord_(std::move(fjord)) {}

  /// Offers a tuple per the fjord's modality, as a batch of one (a control
  /// tuple travels on its lane). Returns kOk, kWouldBlock (push mode, queue
  /// full) or kClosed, in which case the tuple is destroyed and counted as
  /// dropped on close.
  QueueOp Produce(Tuple t);

  /// Offers the whole batch under ONE queue lock acquisition: it moves into
  /// one slot unchanged (columns and lane included) or not at all: kOk,
  /// kWouldBlock (push/exchange: no room; pull mode waits for room unless
  /// the batch is heavier than the capacity) or kClosed. A refused batch
  /// stays with the caller, untouched and not counted as dropped on close
  /// (that counts what the queue itself destroyed: a closed Produce).
  QueueOp ProduceBatch(TupleBatch* batch);

  /// ProduceBatch that waits on the queue's not-full condition, in any
  /// mode, until the whole batch fits or `deadline` passes: kOk, kClosed, or
  /// kWouldBlock on the deadline (at once for a batch heavier than the
  /// capacity).
  QueueOp ProduceBatchUntil(TupleBatch* batch,
                            std::chrono::steady_clock::time_point deadline);

  /// Whether a segment of `weight` (rows plus lane entries) fits now: kOk,
  /// kWouldBlock (counted as a blocked enqueue) or kClosed — step one of a
  /// caller that checks several fjords before producing into any.
  QueueOp CheckRoom(size_t weight);

  /// Waits until a segment of `weight` fits or the fjord closes (true), or
  /// `deadline` passes (false; at once when `weight` exceeds the capacity).
  bool AwaitRoom(size_t weight, std::chrono::steady_clock::time_point deadline);

  /// Signals end of stream.
  void Close();

 private:
  std::shared_ptr<Fjord> fjord_;
};

/// Consumer-side endpoint.
class FjordConsumer {
 public:
  explicit FjordConsumer(std::shared_ptr<Fjord> fjord)
      : fjord_(std::move(fjord)) {}

  /// Fetches one row per the fjord's modality — ConsumeBatch with max 1; a
  /// lane entry arrives as a punctuation tuple. kWouldBlock means "no data
  /// right now" (push mode only); kClosed means the stream ended.
  QueueOp Consume(Tuple* out);

  /// Fetches up to `max` queued rows (lane entries count as one each) in
  /// ONE lock acquisition into `*out`. A head segment that fits moves into
  /// an empty `*out` whole, columns untouched; further row-shaped segments
  /// are appended up to `max`, the last one cut to fit. Returns the count
  /// fetched; `*op` mirrors Consume's codes (kOk when anything arrived).
  /// When `first_enq_us` is non-null it receives the enqueue time of the
  /// oldest fetched segment (0 when the queue has no metrics attached), for
  /// queue-wait tracing.
  size_t ConsumeBatch(TupleBatch* out, size_t max, QueueOp* op,
                      int64_t* first_enq_us = nullptr);

  /// True once the stream has ended and all queued tuples were consumed.
  bool Exhausted() const;

  size_t Pending() const;

  /// Hangs up: closes the fjord from the consuming side, so a producer
  /// waiting for room wakes with kClosed.
  void Close();

  /// Binds (nullptr: unbinds) the wake target this fjord signals when it
  /// goes from empty to non-empty or closes — the consuming EO's, bound by
  /// ExecutionObject::AddDispatchUnit. Thread-safe.
  void SetWake(WakeTarget* wake);

 private:
  std::shared_ptr<Fjord> fjord_;
};

/// The shared connection state. Create via Fjord::Make, then hand the two
/// endpoints to the producing and consuming modules.
class Fjord : public std::enable_shared_from_this<Fjord> {
 public:
  struct Endpoints {
    FjordProducer producer;
    FjordConsumer consumer;
    std::shared_ptr<Fjord> fjord;
  };

  /// When `metrics` is non-null the fjord's queue exports depth and
  /// enqueued counts (in rows), blocked-op counters, dropped-on-close, and
  /// the enqueue->dequeue wait of each segment, named
  /// tcq_queue_*{queue="<name>"}.
  static Endpoints Make(FjordMode mode, size_t capacity,
                        std::string name = "fjord",
                        MetricsRegistry* metrics = nullptr);

  FjordMode mode() const { return mode_; }
  const std::string& name() const { return name_; }
  /// Queued rows (a control-lane entry counts as one).
  size_t size() const { return queue_.size(); }

  Fjord(FjordMode mode, size_t capacity, std::string name)
      : mode_(mode), name_(std::move(name)), queue_(capacity) {}

 private:
  friend class FjordProducer;
  friend class FjordConsumer;

  FjordMode mode_;
  std::string name_;
  SegmentQueue queue_;
};

}  // namespace tcq
