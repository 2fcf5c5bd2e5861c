// Routing policies: how an eddy decides, tuple by tuple, which module a
// tuple visits next (paper §2.2, §4.3). The Lottery policy is the
// ticket-based scheme of Avnur & Hellerstein [AH00]; FixedOrder is the
// static-plan baseline the adaptivity experiments compare against. Policies
// see modules only through RoutableStats.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eddy/module.h"

namespace tcq {

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual const char* name() const = 0;

  /// Orders the ready module slots by routing preference into `out`
  /// (best first). `out` is pre-cleared by the eddy, which routes the tuple
  /// to the first slot of the order.
  virtual void Rank(const std::vector<size_t>& ready,
                    const std::vector<const RoutableStats*>& modules,
                    std::vector<size_t>* out) = 0;

  /// Feedback after a module processed a tuple this policy routed.
  virtual void OnResult(size_t slot, ModuleAction action, size_t num_out) {
    (void)slot;
    (void)action;
    (void)num_out;
  }

  /// Called when the eddy grows its module set (CACQ adds modules on the
  /// fly as queries arrive).
  virtual void OnModuleCountChanged(size_t num_modules) { (void)num_modules; }
};

/// Routes by a fixed priority order — equivalent to a static plan. Modules
/// not in the priority list fall to the back in slot order.
class FixedOrderPolicy : public RoutingPolicy {
 public:
  explicit FixedOrderPolicy(std::vector<size_t> priority)
      : priority_(std::move(priority)) {}

  const char* name() const override { return "fixed"; }
  void Rank(const std::vector<size_t>& ready,
            const std::vector<const RoutableStats*>& modules,
            std::vector<size_t>* out) override;

 private:
  std::vector<size_t> priority_;
};

/// Cycles through ready modules — a naive adaptive baseline.
class RoundRobinPolicy : public RoutingPolicy {
 public:
  const char* name() const override { return "round-robin"; }
  void Rank(const std::vector<size_t>& ready,
            const std::vector<const RoutableStats*>& modules,
            std::vector<size_t>* out) override;

 private:
  size_t next_ = 0;
};

/// Ticket-based lottery scheduling [AH00]: a module is credited a ticket
/// when it consumes a tuple and debited when it produces one, so selective,
/// fast modules accumulate tickets and win more lotteries. Tickets decay so
/// the policy re-explores when the environment drifts.
class LotteryPolicy : public RoutingPolicy {
 public:
  struct Options {
    uint64_t seed = 42;
    /// Multiplicative decay applied every `decay_interval` decisions.
    double decay = 0.95;
    uint64_t decay_interval = 200;
    /// Additive smoothing so losing modules keep being explored.
    double floor = 1.0;
  };

  LotteryPolicy() : LotteryPolicy(Options()) {}
  explicit LotteryPolicy(Options opts) : opts_(opts), rng_(opts.seed) {}

  const char* name() const override { return "lottery"; }
  void Rank(const std::vector<size_t>& ready,
            const std::vector<const RoutableStats*>& modules,
            std::vector<size_t>* out) override;
  void OnResult(size_t slot, ModuleAction action, size_t num_out) override;
  void OnModuleCountChanged(size_t num_modules) override;

  double tickets(size_t slot) const { return tickets_[slot]; }

 private:
  Options opts_;
  Rng rng_;
  std::vector<double> tickets_;
  uint64_t decisions_ = 0;
  std::vector<double> weights_scratch_;
};

/// Greedy on observed drop rate with epsilon exploration: routes to the
/// module most likely to eliminate the tuple cheaply.
class GreedyPolicy : public RoutingPolicy {
 public:
  explicit GreedyPolicy(double epsilon = 0.05, uint64_t seed = 42)
      : epsilon_(epsilon), rng_(seed) {}

  const char* name() const override { return "greedy"; }
  void Rank(const std::vector<size_t>& ready,
            const std::vector<const RoutableStats*>& modules,
            std::vector<size_t>* out) override;

 private:
  double epsilon_;
  Rng rng_;
};

std::unique_ptr<RoutingPolicy> MakeLotteryPolicy(uint64_t seed = 42);
std::unique_ptr<RoutingPolicy> MakeRoundRobinPolicy();
std::unique_ptr<RoutingPolicy> MakeFixedOrderPolicy(
    std::vector<size_t> priority);
std::unique_ptr<RoutingPolicy> MakeGreedyPolicy(double epsilon = 0.05,
                                                uint64_t seed = 42);

}  // namespace tcq
