// Execution Object (paper §4.2.2): "we use the term Execution Object to
// describe the threads of control in the TelegraphCQ executor. Each EO is
// mapped to a single system thread." An EO repeatedly asks its scheduler
// for the next Dispatch Unit and runs one non-preemptive quantum; when all
// DUs idle it backs off briefly instead of spinning. A DU that reports kDone
// retires from the EO; an EO with no runnable DU idles until Stop(), so it
// can receive DUs added or migrated in later.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/dispatch_unit.h"
#include "exec/scheduler.h"

namespace tcq {

class ExecutionObject {
 public:
  /// When `metrics` is null the EO observes itself in a private registry;
  /// instruments are labeled with the EO's name (and per-DU counters with
  /// each DU's name).
  ExecutionObject(std::string name, std::unique_ptr<Scheduler> scheduler,
                  MetricsRegistryRef metrics = nullptr);
  ~ExecutionObject();

  const std::string& name() const { return name_; }

  /// Thread-safe: adds a DU (picked up on the next scheduling round).
  void AddDispatchUnit(std::shared_ptr<DispatchUnit> du);

  /// Thread-safe quiesce point: removes a DU, BLOCKING until any in-flight
  /// quantum of it finishes (DU quanta are non-preemptive; this waits out
  /// the current one rather than interrupting it). After a true return the
  /// caller owns the DU exclusively — no EO thread will step it again — so
  /// it can be mutated, migrated to another EO, or dropped. Returns false if
  /// the DU is not hosted here (never added, or retired after kDone).
  bool RemoveDispatchUnit(const std::shared_ptr<DispatchUnit>& du);

  void Start();
  void Stop();

  bool running() const { return running_.load(); }
  uint64_t quanta_run() const { return quanta_->Value(); }
  size_t num_dus() const;

 private:
  void Run();
  /// Drops the DU at `idx` and its parallel bookkeeping (caller holds mu_).
  void EraseLocked(size_t idx);

  std::string name_;
  std::unique_ptr<Scheduler> scheduler_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<DispatchUnit>> dus_;
  std::vector<DuSchedInfo> infos_;
  /// The DU whose quantum is running right now (set under mu_ before the
  /// step, cleared after). RemoveDispatchUnit waits on step_done_ until its
  /// target is not this.
  DispatchUnit* stepping_ = nullptr;
  std::condition_variable step_done_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  MetricsRegistryRef metrics_;
  Counter* quanta_;
  Counter* idle_backoffs_;
  Gauge* num_dus_gauge_;
  // Parallel to dus_: per-DU quanta/progress counters (scheduler picks).
  std::vector<Counter*> du_quanta_;
  std::vector<Counter*> du_progress_;
};

}  // namespace tcq
