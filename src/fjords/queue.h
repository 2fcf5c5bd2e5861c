// Bounded queues with both blocking ("pull") and non-blocking ("push")
// endpoint semantics — the substrate of the Fjords inter-module API
// (paper §2.3). A pull-queue blocks the consumer when empty; a push-queue
// returns control so the consumer can do other work or yield; Exchange
// semantics combine a blocking dequeue with a non-blocking enqueue.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace tcq {

/// Result of a non-blocking queue operation.
enum class QueueOp {
  kOk,        ///< Element transferred.
  kWouldBlock,  ///< Queue full (enqueue) or empty (dequeue); try later.
  kClosed,    ///< Producer closed the queue and it has drained.
};

/// Registry instruments a BoundedQueue exports into (all optional). The
/// queue's own counters stay authoritative for per-instance accessors; these
/// mirror them into a shared registry for Introspect()/FormatText().
struct QueueMetrics {
  Gauge* depth = nullptr;
  Counter* enqueued = nullptr;
  Counter* enqueue_blocked = nullptr;
  Counter* dequeue_blocked = nullptr;
  Counter* dropped_on_close = nullptr;
  /// Enqueue->dequeue residence time, microseconds.
  Histogram* wait_us = nullptr;

  /// Instruments named tcq_queue_*{queue="<name>"}.
  static QueueMetrics For(MetricsRegistry* registry, const std::string& name) {
    QueueMetrics m;
    if (registry == nullptr) return m;
    m.depth = registry->GetGauge(MetricName("tcq_queue_depth", "queue", name));
    m.enqueued = registry->GetCounter(
        MetricName("tcq_queue_enqueued_total", "queue", name));
    m.enqueue_blocked = registry->GetCounter(
        MetricName("tcq_queue_enqueue_blocked_total", "queue", name));
    m.dequeue_blocked = registry->GetCounter(
        MetricName("tcq_queue_dequeue_blocked_total", "queue", name));
    m.dropped_on_close = registry->GetCounter(
        MetricName("tcq_queue_dropped_on_close_total", "queue", name));
    m.wait_us = registry->GetHistogram(
        MetricName("tcq_queue_wait_us", "queue", name));
    return m;
  }
};

/// A bounded MPMC queue. All operations are thread-safe.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Attaches registry instruments. Call before concurrent use.
  void SetMetrics(const QueueMetrics& metrics) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = metrics;
  }

  /// Non-blocking enqueue: fails with kWouldBlock when full, kClosed after
  /// Close(). On kClosed the item is destroyed; the loss is counted in
  /// dropped_on_close_count().
  QueueOp TryEnqueue(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      CountDroppedOnClose();
      return QueueOp::kClosed;
    }
    if (items_.size() >= capacity_) {
      ++enqueue_blocked_;
      if (metrics_.enqueue_blocked != nullptr) metrics_.enqueue_blocked->Inc();
      return QueueOp::kWouldBlock;
    }
    PushLocked(std::move(item));
    not_empty_.notify_one();
    return QueueOp::kOk;
  }

  /// Blocking enqueue; returns false if the queue was closed. A false
  /// return means the in-flight item was destroyed — the loss is counted in
  /// dropped_on_close_count() so callers (and the metrics layer) can see it.
  bool EnqueueBlocking(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      CountDroppedOnClose();
      return false;
    }
    PushLocked(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking dequeue.
  QueueOp TryDequeue(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      if (closed_) return QueueOp::kClosed;
      ++dequeue_blocked_;
      if (metrics_.dequeue_blocked != nullptr) metrics_.dequeue_blocked->Inc();
      return QueueOp::kWouldBlock;
    }
    PopLocked(out);
    not_full_.notify_one();
    return QueueOp::kOk;
  }

  /// Blocking dequeue; returns false once the queue is closed and drained.
  bool DequeueBlocking(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    PopLocked(out);
    not_full_.notify_one();
    return true;
  }

  // --- Batch operations (one lock acquisition per whole batch) --------------

  /// Non-blocking batch enqueue: moves as many of items[0..n) as fit under
  /// ONE lock acquisition. Returns the count moved; `*op` is kOk when
  /// everything fit, kWouldBlock on a partial/empty transfer (queue filled
  /// up), kClosed after Close() (remaining items are left with the caller,
  /// NOT destroyed — only the caller knows whether to drop or retry them).
  size_t TryPushN(T* items, size_t n, QueueOp* op) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      *op = QueueOp::kClosed;
      return 0;
    }
    size_t room = capacity_ > items_.size() ? capacity_ - items_.size() : 0;
    size_t take = std::min(room, n);
    for (size_t i = 0; i < take; ++i) PushLocked(std::move(items[i]));
    if (take > 0) {
      if (take == 1) {
        not_empty_.notify_one();
      } else {
        not_empty_.notify_all();
      }
    }
    if (take < n) {
      ++enqueue_blocked_;
      if (metrics_.enqueue_blocked != nullptr) metrics_.enqueue_blocked->Inc();
      *op = QueueOp::kWouldBlock;
    } else {
      *op = QueueOp::kOk;
    }
    return take;
  }

  /// Blocking batch enqueue: waits for space and moves chunks until all n
  /// items are enqueued or the queue closes. Returns the count enqueued
  /// (< n only on close). The un-pushed suffix items[pushed..n) is left
  /// with the caller, NOT destroyed and NOT counted in
  /// dropped_on_close_count() — matching TryPushN. Only the caller
  /// knows whether those items are lost or re-routable, so only the caller
  /// can account for them; counting them here too double-counted every
  /// batch drop a caller also tracked.
  size_t PushNBlocking(T* items, size_t n) {
    size_t pushed = 0;
    while (pushed < n) {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return pushed;
      while (pushed < n && items_.size() < capacity_) {
        PushLocked(std::move(items[pushed++]));
      }
      not_empty_.notify_all();
    }
    return pushed;
  }

  /// Non-blocking batch dequeue: appends up to `max` items to `*out` (any
  /// container with push_back) under ONE lock acquisition. Returns the count
  /// popped; `*op` is kOk when anything was popped, kClosed when the queue
  /// is closed and drained, kWouldBlock when it is just empty. When
  /// `first_enq_us` is non-null it receives the enqueue timestamp of the
  /// oldest popped item (0 when timestamps are off, i.e. no wait_us metric
  /// attached) — the tracing layer's queue-wait anchor.
  template <typename OutContainer>
  size_t TryPopBatch(OutContainer* out, size_t max, QueueOp* op,
                     int64_t* first_enq_us = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      if (closed_) {
        *op = QueueOp::kClosed;
      } else {
        ++dequeue_blocked_;
        if (metrics_.dequeue_blocked != nullptr) {
          metrics_.dequeue_blocked->Inc();
        }
        *op = QueueOp::kWouldBlock;
      }
      return 0;
    }
    if (first_enq_us != nullptr) *first_enq_us = items_.front().enq_us;
    size_t take = std::min(items_.size(), max);
    T item;
    for (size_t i = 0; i < take; ++i) {
      PopLocked(&item);
      out->push_back(std::move(item));
    }
    if (take == 1) {
      not_full_.notify_one();
    } else {
      not_full_.notify_all();
    }
    *op = QueueOp::kOk;
    return take;
  }

  /// Blocking batch dequeue: waits for at least one item (or close), then
  /// appends up to `max` to `*out` under the same lock. Returns the count
  /// (0 iff closed and drained). `first_enq_us` as in TryPopBatch.
  template <typename OutContainer>
  size_t PopBatchBlocking(OutContainer* out, size_t max,
                          int64_t* first_enq_us = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (first_enq_us != nullptr && !items_.empty()) {
      *first_enq_us = items_.front().enq_us;
    }
    size_t take = std::min(items_.size(), max);
    T item;
    for (size_t i = 0; i < take; ++i) {
      PopLocked(&item);
      out->push_back(std::move(item));
    }
    if (take > 0) not_full_.notify_all();
    return take;
  }

  /// Marks end-of-stream. Pending items remain dequeuable; blocked callers
  /// wake up.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Closed and fully drained: no element will ever be produced again.
  bool exhausted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ && items_.empty();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }

  /// Counters of failed non-blocking attempts, for the Fjords bench (E9).
  uint64_t enqueue_blocked_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return enqueue_blocked_;
  }
  uint64_t dequeue_blocked_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dequeue_blocked_;
  }
  /// Items destroyed because they were offered to a closed queue.
  uint64_t dropped_on_close_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_on_close_;
  }

 private:
  struct Slot {
    T item;
    int64_t enq_us;
  };

  void PushLocked(T item) {
    int64_t now = metrics_.wait_us != nullptr ? NowMicros() : 0;
    items_.push_back(Slot{std::move(item), now});
    if (metrics_.depth != nullptr) metrics_.depth->Add(1);
    if (metrics_.enqueued != nullptr) metrics_.enqueued->Inc();
  }

  void PopLocked(T* out) {
    Slot& front = items_.front();
    *out = std::move(front.item);
    if (metrics_.wait_us != nullptr) {
      int64_t waited = NowMicros() - front.enq_us;
      metrics_.wait_us->Observe(waited > 0 ? static_cast<uint64_t>(waited)
                                           : 0);
    }
    items_.pop_front();
    if (metrics_.depth != nullptr) metrics_.depth->Add(-1);
  }

  void CountDroppedOnClose() {
    ++dropped_on_close_;
    if (metrics_.dropped_on_close != nullptr) metrics_.dropped_on_close->Inc();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Slot> items_;
  bool closed_ = false;
  uint64_t enqueue_blocked_ = 0;
  uint64_t dequeue_blocked_ = 0;
  uint64_t dropped_on_close_ = 0;
  QueueMetrics metrics_;
};

using TupleQueue = BoundedQueue<Tuple>;

}  // namespace tcq
