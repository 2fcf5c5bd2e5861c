// Time abstractions. TelegraphCQ queries may use logical timestamps (tuple
// sequence numbers) or physical timestamps (wall clock); see paper §4.1.2.
// Benchmarks and tests run against a virtual clock for determinism.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stop_token>

namespace tcq {

/// Timestamps are int64. Logical time counts tuples; physical time counts
/// microseconds.
using Timestamp = int64_t;

constexpr Timestamp kMinTimestamp = INT64_MIN;
constexpr Timestamp kMaxTimestamp = INT64_MAX;

/// Clock interface so executors can run on wall-clock or simulated time.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in microseconds.
  virtual Timestamp Now() const = 0;
};

/// Real wall-clock time (microseconds since steady_clock epoch).
class WallClock : public Clock {
 public:
  Timestamp Now() const override;
};

/// A manually advanced clock for deterministic tests and simulations.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(Timestamp start = 0) : now_(start) {}
  Timestamp Now() const override {
    return now_.load(std::memory_order_acquire);
  }
  void Advance(Timestamp delta) {
    now_.fetch_add(delta, std::memory_order_acq_rel);
  }
  void Set(Timestamp t) { now_.store(t, std::memory_order_release); }

 private:
  std::atomic<Timestamp> now_;
};

/// Monotonic logical sequence numbers for a stream (thread-safe).
class SequenceCounter {
 public:
  explicit SequenceCounter(Timestamp start = 0) : next_(start) {}
  Timestamp Next() { return next_.fetch_add(1, std::memory_order_relaxed); }
  Timestamp Peek() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<Timestamp> next_;
};

/// Blocks until `deadline` or until `stop` is requested, whichever comes
/// first; true when stopped. The wait of a periodic background loop, so
/// that stopping it returns at once instead of after a polling slice.
bool WaitUntilOrStopped(std::stop_token stop,
                        std::chrono::steady_clock::time_point deadline);

}  // namespace tcq
