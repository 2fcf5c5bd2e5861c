// Bounded queues with both blocking ("pull") and non-blocking ("push")
// endpoint semantics — the substrate of the Fjords inter-module API
// (paper §2.3). A pull-queue blocks the consumer when empty; a push-queue
// returns control so the consumer can do other work or yield; Exchange
// semantics combine a blocking dequeue with a non-blocking enqueue.
//
// Capacity is counted in weight units (QueueItemTraits): one per item by
// default. A fjord queues whole TupleBatch "segments" whose weight is their
// row count plus their control-lane entries, so one slot, one lock and one
// set of metric updates move a whole batch — columns included.
//
// A queue may carry its consumer's wake target (wake.h): it is signalled
// when the queue goes from empty to non-empty and when it closes, so a
// consumer that found every queue empty can park instead of sleeping.

#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "fjords/wake.h"
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

/// How a BoundedQueue weighs, cuts and merges its items. The default suits
/// any value type: an item weighs one capacity unit (so it never needs
/// cutting) and a batch pop appends items to a container with push_back.
template <typename T>
struct QueueItemTraits {
  static size_t Weight(const T&) { return 1; }
  /// Moves the leading `units` (0 < units < Weight(*item)) of *item into a
  /// new item; the rest stays in *item. Unreachable for unit weights.
  static T TakeFront(T* item, size_t /*units*/) {
    assert(false && "unit-weight items are never cut");
    return std::move(*item);
  }
  /// Whether `next` may follow what one batch pop already put in `out`.
  template <typename Out>
  static bool Joins(const Out& /*out*/, const T& /*next*/) {
    return true;
  }
  template <typename Out>
  static void Append(Out* out, T&& item) {
    out->push_back(std::move(item));
  }
};

/// A fjord segment: rows and control-lane entries weigh one unit each. A
/// segment larger than the free room is cut rows first, its lane travelling
/// with the last cut (the lane applies after the rows). A pop that has room
/// for the head segment hands it over whole — a columnar one keeps its
/// ColumnStore — and coalesces further row-shaped segments behind it.
template <>
struct QueueItemTraits<TupleBatch> {
  static size_t Weight(const TupleBatch& b) {
    return b.size() + b.punctuations().size();
  }
  static TupleBatch TakeFront(TupleBatch* b, size_t units) {
    return b->TakeFront(units);
  }
  static bool Joins(const TupleBatch& out, const TupleBatch& next) {
    // Appending to a columnar batch would materialize its rows, and rows
    // appended after a popped lane entry would be applied before it.
    return !out.columnar_only() && !next.columnar_only() &&
           (out.punctuations().empty() || next.empty());
  }
  static void Append(TupleBatch* out, TupleBatch&& b) {
    out->Append(std::move(b));
  }
};

/// A bounded MPMC queue; capacity and size() are in weight units. All
/// operations are thread-safe.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Attaches registry instruments. Call before concurrent use.
  void SetMetrics(const QueueMetrics& metrics) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = metrics;
  }

  /// Sets (nullptr: clears) the consumer's wake target, signalled on every
  /// empty -> non-empty transition and on Close. Thread-safe. Signals are
  /// raised just after the queue lock is released, so a push racing this
  /// call may still signal the previous target once — a harmless spurious
  /// wake, as long as every target outlives the pushes into queues it was
  /// bound to. A queue that already holds items signals the new target at
  /// once, so a consumer moved onto it never misses work queued before.
  void SetWake(WakeTarget* wake) {
    std::unique_lock<std::mutex> lock(mu_);
    wake_ = wake;
    if (closed_ || !items_.empty()) pending_wake_ = wake_;
    UnlockAndSignal(lock);
  }

  /// Non-blocking enqueue of a whole item: fails with kWouldBlock when it
  /// does not fit the free room, kClosed after Close(). On kClosed the item
  /// is destroyed; its weight is counted in dropped_on_close_count().
  QueueOp TryEnqueue(T item) {
    const size_t w = Traits::Weight(item);
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) {
      CountDroppedOnClose(w);
      return QueueOp::kClosed;
    }
    if (w > RoomLocked()) {
      CountEnqueueBlocked();
      return QueueOp::kWouldBlock;
    }
    PushLocked(std::move(item), w);
    not_empty_.notify_one();
    UnlockAndSignal(lock);
    return QueueOp::kOk;
  }

  /// Blocking enqueue of a whole item (which must fit the capacity);
  /// returns false if the queue was closed. A false return means the
  /// in-flight item was destroyed — the loss is counted in
  /// dropped_on_close_count() so callers (and the metrics layer) can see it.
  bool EnqueueBlocking(T item) {
    const size_t w = Traits::Weight(item);
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || w <= RoomLocked(); });
    if (closed_) {
      CountDroppedOnClose(w);
      return false;
    }
    PushLocked(std::move(item), w);
    not_empty_.notify_one();
    UnlockAndSignal(lock);
    return true;
  }

  /// Non-blocking dequeue of the whole head item.
  QueueOp TryDequeue(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return EmptyOpLocked();
    *out = PopLocked();
    not_full_.notify_one();
    return QueueOp::kOk;
  }

  /// Blocking dequeue; returns false once the queue is closed and drained.
  bool DequeueBlocking(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = PopLocked();
    not_full_.notify_one();
    return true;
  }

  // --- Batch operations (one lock acquisition per whole batch) --------------

  /// Non-blocking batch enqueue under ONE lock acquisition: moves
  /// items[0..n) in order while each fits whole; the first one that does
  /// not is cut, its leading part filling the free room and the rest
  /// staying in place. Returns the count of items moved whole; `*op` is kOk
  /// when everything fit, kWouldBlock on a partial/empty transfer (queue
  /// filled up), kClosed after Close() (remaining items are left with the
  /// caller, NOT destroyed — only the caller knows whether to drop or retry
  /// them).
  size_t TryPushN(T* items, size_t n, QueueOp* op) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) {
      *op = QueueOp::kClosed;
      return 0;
    }
    size_t pushed = PushSomeLocked(items, n);
    if (pushed < n) {
      CountEnqueueBlocked();
      *op = QueueOp::kWouldBlock;
    } else {
      *op = QueueOp::kOk;
    }
    UnlockAndSignal(lock);
    return pushed;
  }

  /// Blocking batch enqueue: waits for room and moves (cutting as
  /// TryPushN does) until all n items are enqueued or the queue closes.
  /// Returns the count enqueued whole (< n only on close). The un-pushed
  /// suffix items[pushed..n) is left with the caller, NOT destroyed and NOT
  /// counted in dropped_on_close_count() — matching TryPushN. Only the
  /// caller knows whether those items are lost or re-routable, so only the
  /// caller can account for them; counting them here too double-counted
  /// every batch drop a caller also tracked.
  size_t PushNBlocking(T* items, size_t n) {
    QueueOp op;
    return PushNUntil(items, n, std::nullopt, &op);
  }

  /// PushNBlocking that gives up at `deadline` (nullopt: never). `*op` is
  /// kOk when all n items went in, kClosed after Close(), kWouldBlock when
  /// the deadline passed first; the un-pushed suffix stays with the caller
  /// as in PushNBlocking.
  size_t PushNUntil(T* items, size_t n,
                    std::optional<std::chrono::steady_clock::time_point> deadline,
                    QueueOp* op) {
    size_t pushed = 0;
    *op = QueueOp::kOk;
    auto has_room = [&] { return closed_ || RoomLocked() > 0; };
    while (pushed < n) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!deadline.has_value()) {
        not_full_.wait(lock, has_room);
      } else if (!not_full_.wait_until(lock, *deadline, has_room)) {
        *op = QueueOp::kWouldBlock;
        return pushed;
      }
      if (closed_) {
        *op = QueueOp::kClosed;
        return pushed;
      }
      pushed += PushSomeLocked(items + pushed, n - pushed);
      UnlockAndSignal(lock);
    }
    return pushed;
  }

  /// Non-blocking batch dequeue under ONE lock acquisition: appends the
  /// head item to `*out`, then further items while Traits::Joins admits
  /// them, up to `max` units in all — the last item taken is cut to fit.
  /// Returns the units popped; `*op` is kOk when anything was
  /// popped, kClosed when the queue is closed and drained, kWouldBlock when
  /// it is just empty. When `first_enq_us` is non-null it receives the
  /// enqueue timestamp of the head item (0 when timestamps are off, i.e. no
  /// wait_us metric attached) — the tracing layer's queue-wait anchor.
  template <typename Out>
  size_t TryPopBatch(Out* out, size_t max, QueueOp* op,
                     int64_t* first_enq_us = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      *op = EmptyOpLocked();
      return 0;
    }
    if (first_enq_us != nullptr) *first_enq_us = items_.front().enq_us;
    *op = QueueOp::kOk;
    return PopSomeLocked(out, max);
  }

  /// Blocking batch dequeue: waits for at least one item (or close), then
  /// pops as TryPopBatch does under the same lock. Returns the units popped
  /// (0 iff closed and drained). `first_enq_us` as in TryPopBatch.
  template <typename Out>
  size_t PopBatchBlocking(Out* out, size_t max,
                          int64_t* first_enq_us = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return 0;
    if (first_enq_us != nullptr) *first_enq_us = items_.front().enq_us;
    return PopSomeLocked(out, max);
  }

  /// Marks end-of-stream. Pending items remain dequeuable; blocked callers
  /// wake up.
  void Close() {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
    pending_wake_ = wake_;
    UnlockAndSignal(lock);
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

  /// Queued weight units.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
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
  /// Units destroyed because they were offered to a closed queue.
  uint64_t dropped_on_close_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_on_close_;
  }

 private:
  using Traits = QueueItemTraits<T>;

  struct Slot {
    T item;
    size_t weight;
    int64_t enq_us;
  };

  size_t RoomLocked() const {
    return capacity_ > used_ ? capacity_ - used_ : 0;
  }

  /// One enqueue: one timestamp and one set of metric updates per item.
  /// The first item into an empty queue arms the consumer's wake signal.
  void PushLocked(T item, size_t w) {
    int64_t now = metrics_.wait_us != nullptr ? NowMicros() : 0;
    if (items_.empty()) pending_wake_ = wake_;
    items_.push_back(Slot{std::move(item), w, now});
    used_ += w;
    if (metrics_.depth != nullptr) {
      metrics_.depth->Add(static_cast<int64_t>(w));
    }
    if (metrics_.enqueued != nullptr) metrics_.enqueued->Inc(w);
  }

  /// TryPushN's transfer; wakes consumers when anything moved.
  size_t PushSomeLocked(T* items, size_t n) {
    const size_t before = used_;
    size_t i = 0;
    for (; i < n; ++i) {
      const size_t w = Traits::Weight(items[i]);
      const size_t room = RoomLocked();
      if (w > room) {
        if (room > 0) PushLocked(Traits::TakeFront(&items[i], room), room);
        break;
      }
      PushLocked(std::move(items[i]), w);
    }
    if (used_ != before) not_empty_.notify_all();
    return i;
  }

  /// Removes the head item; its wait is observed once, as it leaves.
  T PopLocked() {
    Slot& front = items_.front();
    T out = std::move(front.item);
    if (metrics_.wait_us != nullptr) {
      int64_t waited = NowMicros() - front.enq_us;
      metrics_.wait_us->Observe(waited > 0 ? static_cast<uint64_t>(waited)
                                           : 0);
    }
    ReleaseLocked(front.weight);
    items_.pop_front();
    return out;
  }

  /// TryPopBatch's transfer; wakes producers when anything moved.
  template <typename Out>
  size_t PopSomeLocked(Out* out, size_t max) {
    size_t got = 0;
    while (!items_.empty() && got < max) {
      Slot& head = items_.front();
      if (got > 0 && !Traits::Joins(*out, head.item)) break;
      if (head.weight > max - got) {
        // The last item is cut to fill the pop exactly.
        const size_t cut = max - got;
        Traits::Append(out, Traits::TakeFront(&head.item, cut));
        head.weight -= cut;
        ReleaseLocked(cut);
        got = max;
        break;
      }
      got += head.weight;
      Traits::Append(out, PopLocked());
    }
    if (got > 0) not_full_.notify_all();
    return got;
  }

  /// Releases the lock, then raises the wake signal armed under it —
  /// outside the lock, so the woken consumer does not queue up behind the
  /// producer on it.
  void UnlockAndSignal(std::unique_lock<std::mutex>& lock) {
    WakeTarget* wake = std::exchange(pending_wake_, nullptr);
    lock.unlock();
    if (wake != nullptr) wake->Notify();
  }

  void ReleaseLocked(size_t w) {
    used_ -= w;
    if (metrics_.depth != nullptr) {
      metrics_.depth->Add(-static_cast<int64_t>(w));
    }
  }

  QueueOp EmptyOpLocked() {
    if (closed_) return QueueOp::kClosed;
    ++dequeue_blocked_;
    if (metrics_.dequeue_blocked != nullptr) metrics_.dequeue_blocked->Inc();
    return QueueOp::kWouldBlock;
  }

  void CountEnqueueBlocked() {
    ++enqueue_blocked_;
    if (metrics_.enqueue_blocked != nullptr) metrics_.enqueue_blocked->Inc();
  }

  void CountDroppedOnClose(size_t w) {
    dropped_on_close_ += w;
    if (metrics_.dropped_on_close != nullptr) metrics_.dropped_on_close->Inc(w);
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Slot> items_;
  size_t used_ = 0;  ///< summed weight of items_
  bool closed_ = false;
  WakeTarget* wake_ = nullptr;  ///< consumer's wake target (may be null)
  /// The target to signal once the current push releases the lock.
  WakeTarget* pending_wake_ = nullptr;
  uint64_t enqueue_blocked_ = 0;
  uint64_t dequeue_blocked_ = 0;
  uint64_t dropped_on_close_ = 0;
  QueueMetrics metrics_;
};

/// The fjord transport: one slot per TupleBatch segment.
using SegmentQueue = BoundedQueue<TupleBatch>;

}  // namespace tcq
