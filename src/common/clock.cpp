#include "common/clock.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace tcq {

Timestamp WallClock::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool WaitUntilOrStopped(std::stop_token stop,
                        std::chrono::steady_clock::time_point deadline) {
  std::mutex mu;
  std::condition_variable_any cv;
  std::unique_lock<std::mutex> lock(mu);
  // The stop request is the only way to end the wait before the deadline.
  cv.wait_until(lock, stop, deadline, [] { return false; });
  return stop.stop_requested();
}

}  // namespace tcq
