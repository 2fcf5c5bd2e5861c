// Test barrier helper: suites wait for the engine through the executor's
// quiescence barrier and then assert exact counts — never by sleeping.

#pragma once

#include <chrono>

#include "exec/executor.h"

namespace tcq::testref {

/// Executor::WaitQuiescent with a 10s deadline: OK once every tuple
/// ingested so far has been processed and delivered to its sink.
inline Status Drain(Executor* exec) {
  return exec->WaitQuiescent(std::chrono::steady_clock::now() +
                             std::chrono::seconds(10));
}

}  // namespace tcq::testref
