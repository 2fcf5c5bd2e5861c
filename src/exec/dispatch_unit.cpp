#include "exec/dispatch_unit.h"

#include <cassert>
#include <utility>

namespace tcq {

namespace {

/// Pulls about `quantum` tuples round-robin from push-mode inputs, draining
/// each visited input in whole batches (one queue lock per pop) and invoking
/// `deliver(source, batch, first_enq_us)`, where first_enq_us is the enqueue
/// time of the batch's oldest segment (0 when the queue keeps no
/// timestamps). Every pop may take a full quantum, so a queued batch of up
/// to `quantum` rows arrives whole, columns intact, however the step's
/// earlier pops went; the step ends once a quantum has been consumed.
/// Returns (consumed, all_exhausted).
template <typename InputVec, typename Fn>
std::pair<size_t, bool> PumpInputs(InputVec& inputs, size_t* next_input,
                                   size_t quantum, Fn&& deliver) {
  if (inputs.empty()) return {0, false};
  size_t consumed = 0;
  size_t attempts = 0;
  TupleBatch batch;
  while (consumed < quantum && attempts < inputs.size()) {
    auto& input = inputs[*next_input % inputs.size()];
    ++*next_input;
    if (input.exhausted) {
      ++attempts;
      continue;
    }
    batch.clear();
    batch.set_source(input.source);
    QueueOp op;
    int64_t enq_us = 0;
    size_t got = input.consumer.ConsumeBatch(&batch, quantum, &op, &enq_us);
    if (op == QueueOp::kClosed) input.exhausted = true;
    if (got > 0) {
      deliver(input.source, batch, enq_us);
      consumed += got;
      attempts = 0;
    } else {
      ++attempts;
    }
  }
  // Recompute exhaustion after the pump: inputs may have closed mid-loop.
  bool all_exhausted = true;
  for (const auto& input : inputs) {
    if (!input.exhausted) {
      all_exhausted = false;
      break;
    }
  }
  return {consumed, all_exhausted};
}

}  // namespace

// --- SharedCQDispatchUnit ----------------------------------------------------

SharedCQDispatchUnit::SharedCQDispatchUnit(std::string name,
                                           std::unique_ptr<SharedEddy> eddy,
                                           Options opts)
    : DispatchUnit(std::move(name)), opts_(opts), eddy_(std::move(eddy)) {
  eddy_->SetOutput([this](QueryId q, const Tuple& t) {
    if (q >= slots_.size() || !slots_[q].sink) return;
    Slot& slot = slots_[q];
    if (slot.run.empty()) dirty_.push_back(q);
    slot.run.push_back(t);
  });
}

void SharedCQDispatchUnit::set_control_sink(
    std::function<void(const Punctuation&)> sink) {
  // Flush first: a client must never see a watermark ahead of the results
  // of rows that preceded it.
  eddy_->SetControlOutput(
      [this, sink = std::move(sink)](const Punctuation& p) {
        FlushRuns();
        sink(p);
      });
}

void SharedCQDispatchUnit::FlushRuns() {
  for (QueryId q : dirty_) {
    Slot& slot = slots_[q];
    slot.sink(slot.global_id, slot.run);
    slot.run.clear();
  }
  dirty_.clear();
}

void SharedCQDispatchUnit::BindSink(QueryId local, uint64_t global_id,
                                    GlobalSink sink) {
  if (local >= slots_.size()) slots_.resize(local + 1);
  slots_[local].global_id = global_id;
  slots_[local].sink = std::move(sink);
}

void SharedCQDispatchUnit::UnbindSink(QueryId local) {
  FlushRuns();  // dirty_ must never name an unbound slot
  if (local < slots_.size()) slots_[local] = Slot{};
}

void SharedCQDispatchUnit::AddInput(SourceId source, FjordConsumer consumer) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  consumer.SetWake(wake_);
  pending_inputs_.push_back(Input{source, std::move(consumer), false});
  if (wake_ != nullptr) wake_->Notify();
}

void SharedCQDispatchUnit::SubmitTask(std::function<void(SharedEddy*)> task) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  pending_tasks_.push_back(std::move(task));
  if (wake_ != nullptr) wake_->Notify();
}

void SharedCQDispatchUnit::BindWake(WakeTarget* wake) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  wake_ = wake;
  // No EO steps the DU now, so the DU-thread-only inputs_ are ours too.
  for (Input& input : inputs_) input.consumer.SetWake(wake);
  for (Input& input : pending_inputs_) input.consumer.SetWake(wake);
}

void SharedCQDispatchUnit::Quiesce() { DrainPlanQueue(); }

std::vector<std::pair<SourceId, FjordConsumer>>
SharedCQDispatchUnit::DetachInputs() {
  DrainPlanQueue();  // fold pending inputs in before moving them out
  assert(dirty_.empty() && "results buffered across a detach");
  std::vector<std::pair<SourceId, FjordConsumer>> out;
  out.reserve(inputs_.size());
  for (Input& input : inputs_) {
    if (input.exhausted) continue;
    out.emplace_back(input.source, std::move(input.consumer));
  }
  inputs_.clear();
  next_input_ = 0;
  return out;
}

std::map<QueryId, std::pair<uint64_t, SharedCQDispatchUnit::GlobalSink>>
SharedCQDispatchUnit::TakeSinks() {
  assert(dirty_.empty() && "results buffered across TakeSinks");
  std::map<QueryId, std::pair<uint64_t, GlobalSink>> out;
  for (size_t q = 0; q < slots_.size(); ++q) {
    Slot& slot = slots_[q];
    if (slot.sink) {
      out.emplace(static_cast<QueryId>(q),
                  std::make_pair(slot.global_id, std::move(slot.sink)));
    }
  }
  slots_.clear();
  return out;
}

void SharedCQDispatchUnit::DrainPlanQueue() {
  std::deque<std::function<void(SharedEddy*)>> tasks;
  std::vector<Input> inputs;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    tasks.swap(pending_tasks_);
    inputs.swap(pending_inputs_);
  }
  for (auto& task : tasks) {
    task(eddy_.get());
    FlushRuns();
  }
  for (Input& input : inputs) inputs_.push_back(std::move(input));
}

DispatchUnit::StepResult SharedCQDispatchUnit::Step() {
  DrainPlanQueue();
  auto [consumed, exhausted] = PumpInputs(
      inputs_, &next_input_, opts_.quantum,
      [&](SourceId source, const TupleBatch& b, int64_t enq_us) {
        // The sampled-batch boundary: arms the thread-local context for the
        // whole synchronous dataflow below (eddy hops, SteM ops, egress).
        obs::TraceBatchScope scope(tracer_.get(), enq_us);
        if (scope.sampled()) obs::CurrentTrace().shard = shard_;
        if (scope.sampled() && enq_us > 0) {
          tracer_->Record(obs::SpanKind::kQueueWait, source, 0, enq_us,
                          NowMicros() - enq_us);
        }
        eddy_->IngestBatch(b);
        FlushRuns();  // inside the scope: the egress spans join the trace
      });
  assert(dirty_.empty() && "results buffered past the end of a Step");
  StepResult r = consumed > 0 ? StepResult::kProgress
                 : exhausted  ? StepResult::kDone
                              : StepResult::kIdle;
  CountStep(r);
  return r;
}

// --- WindowedQueryDispatchUnit -----------------------------------------------

WindowedQueryDispatchUnit::WindowedQueryDispatchUnit(
    std::string name, WindowedQuery query, WindowSink sink, size_t quantum,
    OnlineWindowRunner::Options runner_opts)
    : DispatchUnit(std::move(name)),
      runner_(std::move(query), runner_opts),
      sink_(std::move(sink)),
      quantum_(quantum) {}

void WindowedQueryDispatchUnit::AddInput(SourceId source,
                                         FjordConsumer consumer) {
  inputs_.push_back(Input{source, std::move(consumer), false});
}

void WindowedQueryDispatchUnit::BindWake(WakeTarget* wake) {
  for (Input& input : inputs_) input.consumer.SetWake(wake);
}

DispatchUnit::StepResult WindowedQueryDispatchUnit::Step() {
  // A step with a sampled batch records one kWindowFire span, from that
  // batch's ingest through the step's Poll (only sampled batches read the
  // clock).
  int64_t t0 = 0;
  bool sampled = false;
  auto [consumed, exhausted] = PumpInputs(
      inputs_, &next_input_, quantum_,
      [&](SourceId s, const TupleBatch& b, int64_t) {
        if (!sampled && tracer_ != nullptr && tracer_->ShouldSample()) {
          sampled = true;
          t0 = NowMicros();
        }
        runner_.IngestBatch(s, b);
      });
  if (exhausted) {
    // End of streams: everything that will ever arrive has arrived.
    for (auto& input : inputs_) {
      runner_.AdvanceWatermark(input.source, kMaxTimestamp);
    }
  }
  runner_.Poll([&](const WindowResult& r) { sink_(r); });
  if (sampled) {
    tracer_->Record(obs::SpanKind::kWindowFire, 0, 0, t0, NowMicros() - t0);
  }
  // A finished loop is done at once: nothing it could still consume would
  // ever be read again.
  StepResult r = runner_.Done()  ? StepResult::kDone
                 : consumed > 0 ? StepResult::kProgress
                 : exhausted    ? StepResult::kDone
                                : StepResult::kIdle;
  CountStep(r);
  if (r == StepResult::kDone) {
    // Hang up: a producer waiting for room in an input must not wait on a
    // DU that reads nothing more.
    for (Input& input : inputs_) input.consumer.Close();
    if (on_done_) std::exchange(on_done_, nullptr)();
  }
  return r;
}

}  // namespace tcq
