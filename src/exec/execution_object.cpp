#include "exec/execution_object.h"

#include <chrono>

namespace tcq {

ExecutionObject::ExecutionObject(std::string name,
                                 std::unique_ptr<Scheduler> scheduler,
                                 MetricsRegistryRef metrics)
    : name_(std::move(name)),
      scheduler_(std::move(scheduler)),
      metrics_(OrPrivateRegistry(std::move(metrics))) {
  quanta_ = metrics_->GetCounter(MetricName("tcq_eo_quanta_total", "eo",
                                            name_));
  idle_backoffs_ = metrics_->GetCounter(
      MetricName("tcq_eo_idle_backoffs_total", "eo", name_));
  num_dus_gauge_ = metrics_->GetGauge(MetricName("tcq_eo_dus", "eo", name_));
}

ExecutionObject::~ExecutionObject() { Stop(); }

void ExecutionObject::AddDispatchUnit(std::shared_ptr<DispatchUnit> du) {
  std::lock_guard<std::mutex> lock(mu_);
  du_quanta_.push_back(metrics_->GetCounter(
      MetricName("tcq_du_quanta_total", "du", du->name())));
  du_progress_.push_back(metrics_->GetCounter(
      MetricName("tcq_du_progress_total", "du", du->name())));
  dus_.push_back(std::move(du));
  infos_.push_back(DuSchedInfo{});
  num_dus_gauge_->Set(static_cast<int64_t>(dus_.size()));
}

bool ExecutionObject::RemoveDispatchUnit(const std::shared_ptr<DispatchUnit>& du) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = std::find(dus_.begin(), dus_.end(), du);
  if (it == dus_.end()) return false;
  // Wait out the in-flight quantum (if any): DUs are non-preemptive, so the
  // only safe detach point is a quantum boundary.
  step_done_.wait(lock, [&] { return stepping_ != du.get(); });
  // Re-find: the vector may have shifted while we waited.
  it = std::find(dus_.begin(), dus_.end(), du);
  if (it == dus_.end()) return false;
  EraseLocked(static_cast<size_t>(it - dus_.begin()));
  return true;
}

void ExecutionObject::EraseLocked(size_t idx) {
  dus_.erase(dus_.begin() + idx);
  infos_.erase(infos_.begin() + idx);
  du_quanta_.erase(du_quanta_.begin() + idx);
  du_progress_.erase(du_progress_.begin() + idx);
  num_dus_gauge_->Set(static_cast<int64_t>(dus_.size()));
}

size_t ExecutionObject::num_dus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dus_.size();
}

void ExecutionObject::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false);
  thread_ = std::thread([this] { Run(); });
}

void ExecutionObject::Run() {
  int idle_streak = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    std::shared_ptr<DispatchUnit> du;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t pick = scheduler_->PickNext(infos_);
      if (pick != SIZE_MAX) {
        du = dus_[pick];
        stepping_ = du.get();
      }
    }
    if (du == nullptr) {
      // No runnable DU right now: wait for work to be added or migrated in.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    DispatchUnit::StepResult result = du->Step();
    quanta_->Inc();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stepping_ = nullptr;
      // Re-find by pointer: RemoveDispatchUnit may have erased OTHER DUs
      // while this quantum ran, shifting indices.
      auto it = std::find(dus_.begin(), dus_.end(), du);
      if (it != dus_.end()) {
        size_t idx = static_cast<size_t>(it - dus_.begin());
        DuSchedInfo& info = infos_[idx];
        double progressed =
            result == DispatchUnit::StepResult::kProgress ? 1.0 : 0.0;
        info.recent_progress = 0.8 * info.recent_progress + 0.2 * progressed;
        du_quanta_[idx]->Inc();
        if (result == DispatchUnit::StepResult::kProgress) {
          du_progress_[idx]->Inc();
        }
        // Retire a finished DU: it is never stepped again, and keeping it
        // would inflate the idle-round threshold below.
        if (result == DispatchUnit::StepResult::kDone) EraseLocked(idx);
      }
    }
    step_done_.notify_all();
    if (result == DispatchUnit::StepResult::kProgress) {
      idle_streak = 0;
    } else if (++idle_streak > static_cast<int>(num_dus())) {
      // Everything idled this round: yield rather than burn the core
      // (non-blocking dequeues let us do this — the Fjords design point).
      idle_backoffs_->Inc();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      idle_streak = 0;
    }
  }
  running_.store(false);
}

void ExecutionObject::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

}  // namespace tcq
