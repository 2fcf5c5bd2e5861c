// Execution Object (paper §4.2.2): "we use the term Execution Object to
// describe the threads of control in the TelegraphCQ executor. Each EO is
// mapped to a single system thread." An EO repeatedly asks its scheduler
// for the next Dispatch Unit and runs one non-preemptive quantum. When its
// DUs idle it parks on its wake target (fjords/wake.h) — never on a timer:
// the first idle step arms the target, and once every hosted DU has
// reported idle since then the EO blocks until something signals it. Its
// DUs' input fjords signal on an empty -> non-empty transition and on
// close; AddDispatchUnit, a DU's plan queue and Stop() signal too. A DU
// that reports kDone retires from the EO; an EO with no DU parks until
// Stop(), so it can receive DUs added or migrated in later.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/dispatch_unit.h"
#include "exec/scheduler.h"
#include "fjords/wake.h"

namespace tcq {

class ExecutionObject {
 public:
  /// When `metrics` is null the EO observes itself in a private registry;
  /// instruments are labeled with the EO's name (and per-DU counters with
  /// each DU's name). `on_park` (may be null) is signalled whenever the EO
  /// parks or stops — the executor's quiescence barrier waits on it.
  ExecutionObject(std::string name, std::unique_ptr<Scheduler> scheduler,
                  MetricsRegistryRef metrics = nullptr,
                  WakeTarget* on_park = nullptr);
  ~ExecutionObject();

  const std::string& name() const { return name_; }

  /// Thread-safe: adds a DU (picked up on the next scheduling round) and
  /// binds the EO's wake target onto its inputs, so a DU migrated here is
  /// woken by this EO from now on.
  void AddDispatchUnit(std::shared_ptr<DispatchUnit> du);

  /// Thread-safe quiesce point: removes a DU, BLOCKING until any in-flight
  /// quantum of it finishes (DU quanta are non-preemptive; this waits out
  /// the current one rather than interrupting it), and unbinds the EO's
  /// wake target from its inputs. After a true return the caller owns the
  /// DU exclusively — no EO thread will step it again — so it can be
  /// mutated, migrated to another EO, or dropped. Returns false if the DU is
  /// not hosted here (never added, or retired after kDone).
  bool RemoveDispatchUnit(const std::shared_ptr<DispatchUnit>& du);

  void Start();
  void Stop();

  /// True while the EO thread is parked and nothing has signalled it since;
  /// `*seq` receives its wake sequence, so two observations with equal
  /// sequences bracket an interval in which the EO stayed parked.
  bool Parked(uint64_t* seq) const;

  /// For an EO whose thread is not running: steps the hosted DUs on the
  /// calling thread until every one has reported idle since the last
  /// progress (a DU blocked inside its quantum blocks the caller too).
  void StepUntilIdle();

  bool running() const { return running_.load(); }
  uint64_t quanta_run() const { return quanta_->Value(); }
  size_t num_dus() const;

 private:
  void Run();
  /// Runs one quantum of the scheduler's pick and books it; nullopt when no
  /// DU is hosted.
  std::optional<DispatchUnit::StepResult> StepOnce();
  /// Starts an idle round: DUs count as idle only once they report idle
  /// after this call.
  void StartIdleRound();
  /// Every hosted DU reported idle in the current round (vacuously true
  /// with none hosted).
  bool AllIdleThisRound() const;
  /// Blocks until the wake sequence moves past `epoch`.
  void Park(uint64_t epoch);
  /// Drops the DU at `idx` and its parallel bookkeeping (caller holds mu_).
  void EraseLocked(size_t idx);

  std::string name_;
  std::unique_ptr<Scheduler> scheduler_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<DispatchUnit>> dus_;
  std::vector<DuSchedInfo> infos_;
  uint64_t round_ = 0;  ///< current idle round (guarded by mu_)
  /// The DU whose quantum is running right now (set under mu_ before the
  /// step, cleared after). RemoveDispatchUnit waits on step_done_ until its
  /// target is not this.
  DispatchUnit* stepping_ = nullptr;
  std::condition_variable step_done_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  /// What the hosted DUs' inputs signal.
  WakeTarget wake_;
  WakeTarget* on_park_;
  /// 1 + the wake sequence the EO parked at; 0 while it is not parked.
  std::atomic<uint64_t> parked_at_{0};

  MetricsRegistryRef metrics_;
  Counter* quanta_;
  Counter* idle_backoffs_;  ///< parks (the name predates parking)
  Histogram* park_us_;
  Gauge* num_dus_gauge_;
  // Parallel to dus_: per-DU quanta/progress counters (scheduler picks).
  std::vector<Counter*> du_quanta_;
  std::vector<Counter*> du_progress_;
};

}  // namespace tcq
