#include "exec/execution_object.h"

#include <algorithm>

namespace tcq {

ExecutionObject::ExecutionObject(std::string name,
                                 std::unique_ptr<Scheduler> scheduler,
                                 MetricsRegistryRef metrics,
                                 WakeTarget* on_park)
    : name_(std::move(name)),
      scheduler_(std::move(scheduler)),
      on_park_(on_park),
      metrics_(OrPrivateRegistry(std::move(metrics))) {
  quanta_ = metrics_->GetCounter(MetricName("tcq_eo_quanta_total", "eo",
                                            name_));
  idle_backoffs_ = metrics_->GetCounter(
      MetricName("tcq_eo_idle_backoffs_total", "eo", name_));
  park_us_ = metrics_->GetHistogram(MetricName("tcq_eo_park_us", "eo", name_));
  num_dus_gauge_ = metrics_->GetGauge(MetricName("tcq_eo_dus", "eo", name_));
}

ExecutionObject::~ExecutionObject() {
  Stop();
  // Fjords may outlive the EO: leave none pointing at its wake target.
  for (auto& du : dus_) du->BindWake(nullptr);
}

void ExecutionObject::AddDispatchUnit(std::shared_ptr<DispatchUnit> du) {
  du->BindWake(&wake_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    du_quanta_.push_back(metrics_->GetCounter(
        MetricName("tcq_du_quanta_total", "du", du->name())));
    du_progress_.push_back(metrics_->GetCounter(
        MetricName("tcq_du_progress_total", "du", du->name())));
    dus_.push_back(std::move(du));
    infos_.push_back(DuSchedInfo{});
    num_dus_gauge_->Set(static_cast<int64_t>(dus_.size()));
  }
  wake_.Notify();
}

bool ExecutionObject::RemoveDispatchUnit(const std::shared_ptr<DispatchUnit>& du) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = std::find(dus_.begin(), dus_.end(), du);
    if (it == dus_.end()) return false;
    // Wait out the in-flight quantum (if any): DUs are non-preemptive, so
    // the only safe detach point is a quantum boundary.
    step_done_.wait(lock, [&] { return stepping_ != du.get(); });
    // Re-find: the vector may have shifted while we waited.
    it = std::find(dus_.begin(), dus_.end(), du);
    if (it == dus_.end()) return false;
    EraseLocked(static_cast<size_t>(it - dus_.begin()));
  }
  du->BindWake(nullptr);
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

std::optional<DispatchUnit::StepResult> ExecutionObject::StepOnce() {
  std::shared_ptr<DispatchUnit> du;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t pick = scheduler_->PickNext(infos_);
    if (pick == SIZE_MAX) return std::nullopt;
    du = dus_[pick];
    stepping_ = du.get();
  }
  DispatchUnit::StepResult result = du->Step();
  quanta_->Inc();
  bool retired = false;
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
      if (result == DispatchUnit::StepResult::kIdle) info.idle_round = round_;
      // Retire a finished DU: it is never stepped again.
      if (result == DispatchUnit::StepResult::kDone) {
        EraseLocked(idx);
        retired = true;
      }
    }
  }
  step_done_.notify_all();
  if (retired) du->BindWake(nullptr);
  return result;
}

void ExecutionObject::StartIdleRound() {
  std::lock_guard<std::mutex> lock(mu_);
  ++round_;
}

bool ExecutionObject::AllIdleThisRound() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::all_of(infos_.begin(), infos_.end(), [&](const DuSchedInfo& i) {
    return i.idle_round == round_;
  });
}

void ExecutionObject::Run() {
  // The idle protocol (fjords/wake.h): an idle step arms the wake target
  // and starts a round; any other step disarms it; once every hosted DU
  // reported idle in the round, the EO parks. A signal raised after the arm
  // moves the sequence, so the park returns at once instead of losing it.
  bool armed = false;
  uint64_t epoch = 0;
  while (!stop_.load()) {
    std::optional<DispatchUnit::StepResult> r = StepOnce();
    if (r.has_value() && *r != DispatchUnit::StepResult::kIdle) {
      if (armed) wake_.Disarm();
      armed = false;
      continue;
    }
    if (!armed) {
      epoch = wake_.Arm();
      armed = true;
      StartIdleRound();
      continue;  // re-check stop_ after arming: Stop() signals after setting it
    }
    if (!AllIdleThisRound()) continue;
    Park(epoch);
    armed = false;
  }
  if (armed) wake_.Disarm();
}

void ExecutionObject::Park(uint64_t epoch) {
  idle_backoffs_->Inc();
  const int64_t t0 = NowMicros();
  parked_at_.store(epoch + 1);
  if (on_park_ != nullptr) on_park_->Notify();
  wake_.Park(epoch);
  parked_at_.store(0);
  const int64_t parked = NowMicros() - t0;
  park_us_->Observe(parked > 0 ? static_cast<uint64_t>(parked) : 0);
}

bool ExecutionObject::Parked(uint64_t* seq) const {
  const uint64_t at = parked_at_.load();
  *seq = wake_.seq();
  return at != 0 && *seq == at - 1;
}

void ExecutionObject::StepUntilIdle() {
  StartIdleRound();
  while (!AllIdleThisRound()) {
    std::optional<DispatchUnit::StepResult> r = StepOnce();
    if (!r.has_value()) return;
    if (*r != DispatchUnit::StepResult::kIdle) StartIdleRound();
  }
}

void ExecutionObject::Stop() {
  stop_.store(true);
  wake_.Notify();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
  if (on_park_ != nullptr) on_park_->Notify();
}

}  // namespace tcq
