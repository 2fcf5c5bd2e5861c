// Wake target: the consumer half of the Fjords' non-blocking dequeue
// (paper §2.3). A push-mode consumer regains control when its queues are
// empty; instead of sleeping on a timer it parks on a wake target until a
// producer makes work visible. The target is an eventcount — a sequence
// number plus a condition variable:
//
//   consumer                           producer
//   epoch = Arm();                     <make work visible (queue lock)>
//   <look for work; if none:>          Notify();
//   Park(epoch);
//
// Arm registers the consumer before it looks, so a producer that makes work
// visible after the look sees the registration and moves the sequence, and
// Park returns at once. Notify costs one atomic load while nobody is armed,
// which keeps the enqueue path non-blocking and cheap for a busy consumer.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace tcq {

class WakeTarget {
 public:
  using Clock = std::chrono::steady_clock;

  /// Registers a waiter and returns the sequence Park waits against. Every
  /// Arm is paired with exactly one Park, ParkUntil or Disarm.
  uint64_t Arm() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return seq_.load(std::memory_order_seq_cst);
  }

  /// Withdraws an Arm that found work and will not park.
  void Disarm() { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

  /// Moves the sequence and wakes every parked waiter; one atomic load when
  /// nobody is armed.
  void Notify() {
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq_.fetch_add(1, std::memory_order_seq_cst);
    }
    cv_.notify_all();
  }

  /// Blocks until the sequence moves past `epoch` (no timeout), then
  /// disarms.
  void Park(uint64_t epoch) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return seq_.load() != epoch; });
    }
    Disarm();
  }

  /// Park with a deadline; false when it passed first. Disarms either way.
  bool ParkUntil(uint64_t epoch, Clock::time_point deadline) {
    bool moved;
    {
      std::unique_lock<std::mutex> lock(mu_);
      moved = cv_.wait_until(lock, deadline,
                             [&] { return seq_.load() != epoch; });
    }
    Disarm();
    return moved;
  }

  /// Blocks until `ready()` holds — checked after arming and again after
  /// every signal — or until `deadline` passes (then returns ready()).
  template <typename Pred>
  bool AwaitUntil(Pred ready, Clock::time_point deadline) {
    for (;;) {
      const uint64_t epoch = Arm();
      if (ready()) {
        Disarm();
        return true;
      }
      if (!ParkUntil(epoch, deadline)) return ready();
    }
  }

  /// The current sequence (moves on every Notify that found a waiter).
  uint64_t seq() const { return seq_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint32_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace tcq
