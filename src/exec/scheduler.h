// Scheduling policies for Dispatch Units inside one Execution Object
// (paper §4.2.2: "an EO consists of a scheduler, one or more event queues,
// and a set of non-preemptive Dispatch Units that can be executed based on
// some scheduling policy").

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace tcq {

/// Per-DU view the scheduler decides on.
struct DuSchedInfo {
  bool done = false;
  /// Progress quanta out of the last few steps (EWMA in [0,1]).
  double recent_progress = 1.0;
  /// The EO's idle round in which this DU last reported idle; the EO parks
  /// once every DU's equals the current round.
  uint64_t idle_round = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual const char* name() const = 0;
  /// Index of the next DU to run; only !done entries may be returned.
  /// Returns SIZE_MAX when every DU is done.
  virtual size_t PickNext(const std::vector<DuSchedInfo>& dus) = 0;
};

/// Fair cycling over live DUs.
class RoundRobinScheduler : public Scheduler {
 public:
  const char* name() const override { return "round-robin"; }
  size_t PickNext(const std::vector<DuSchedInfo>& dus) override;

 private:
  size_t next_ = 0;
};

/// Lottery over live DUs weighted by recent progress, so busy query classes
/// get more quanta while idle ones still poll occasionally.
class TicketScheduler : public Scheduler {
 public:
  explicit TicketScheduler(uint64_t seed = 42) : rng_(seed) {}
  const char* name() const override { return "ticket"; }
  size_t PickNext(const std::vector<DuSchedInfo>& dus) override;

 private:
  Rng rng_;
  std::vector<double> weights_;
};

std::unique_ptr<Scheduler> MakeRoundRobinScheduler();
std::unique_ptr<Scheduler> MakeTicketScheduler(uint64_t seed = 42);

}  // namespace tcq
