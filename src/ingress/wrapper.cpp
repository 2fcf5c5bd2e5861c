#include "ingress/wrapper.h"

#include <algorithm>
#include <chrono>

namespace tcq {

Wrapper::Wrapper(Options opts, MetricsRegistryRef metrics,
                 obs::TracerRef tracer)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)) {
  // A batch goes into its streamer whole, so it must fit one.
  opts_.batch_max_size = std::min(std::max<size_t>(opts_.batch_max_size, 1),
                                  std::max<size_t>(opts_.queue_capacity, 1));
  forwarded_ = metrics_->GetCounter("tcq_wrapper_tuples_forwarded_total");
  dropped_ = metrics_->GetCounter("tcq_wrapper_tuples_dropped_total");
  lost_on_close_ =
      metrics_->GetCounter("tcq_wrapper_tuples_lost_on_close_total");
  batch_size_ = metrics_->GetHistogram("tcq_wrapper_batch_size");
  flush_size_ = metrics_->GetCounter(
      MetricName("tcq_wrapper_batch_flush_total", "reason", "size"));
  flush_delay_ = metrics_->GetCounter(
      MetricName("tcq_wrapper_batch_flush_total", "reason", "delay"));
  flush_close_ = metrics_->GetCounter(
      MetricName("tcq_wrapper_batch_flush_total", "reason", "close"));
}

Wrapper::~Wrapper() { Stop(); }

FjordConsumer Wrapper::HostPullSource(
    std::unique_ptr<StreamSource> source,
    std::unique_ptr<ArrivalProcess> arrivals) {
  auto endpoints = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                               "streamer:" + source->name(), metrics_.get());
  auto task = std::make_unique<PullTask>();
  task->source = std::move(source);
  task->arrivals = std::move(arrivals);
  task->producer = std::make_unique<FjordProducer>(endpoints.producer);
  tasks_.push_back(std::move(task));
  return endpoints.consumer;
}

std::pair<FjordProducer, FjordConsumer> Wrapper::HostPushSource(
    const std::string& name) {
  auto endpoints = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                               "streamer:" + name, metrics_.get());
  return {endpoints.producer, endpoints.consumer};
}

void Wrapper::Start() {
  if (started_.exchange(true)) return;
  stop_.store(false);
  for (auto& task : tasks_) {
    threads_.emplace_back([this, t = task.get()] { RunPullTask(t); });
  }
}

void Wrapper::RunPullTask(PullTask* task) {
  TupleBatch batch;
  int64_t oldest_us = 0;  // arrival of the oldest accumulated tuple

  // Hands the whole accumulated batch downstream under one queue lock: with
  // drop_on_full a full streamer drops it (counted); otherwise the task
  // waits on the streamer's not-full condition until it fits, or until
  // Stop() closes the streamer. Returns false when the streamer was closed
  // under us (the task is over).
  auto flush = [&](Counter* reason) -> bool {
    if (batch.empty() && batch.punctuations().empty()) return true;
    reason->Inc();
    const size_t rows = batch.size();
    batch_size_->Observe(rows);
    // Flush span: timed across the wait for room, so blocked streamers show
    // up as long kWrapperFlush durations.
    bool sampled = tracer_ != nullptr && tracer_->ShouldSample();
    int64_t t0 = sampled ? NowMicros() : 0;
    const SourceId source = batch.source();
    QueueOp op = opts_.drop_on_full
                     ? task->producer->ProduceBatch(&batch)
                     : task->producer->ProduceBatchUntil(
                           &batch, std::chrono::steady_clock::time_point::max());
    if (op == QueueOp::kOk) {
      forwarded_->Inc(rows);
      if (sampled) {
        tracer_->Record(obs::SpanKind::kWrapperFlush, source, 0, t0,
                        NowMicros() - t0);
      }
      return true;
    }
    batch.clear();
    if (op == QueueOp::kClosed) {
      // The streamer was closed under us: the tuples in hand are lost.
      // Count them — silent data loss is a bug magnet.
      lost_on_close_->Inc(rows);
      return false;
    }
    dropped_->Inc(rows);  // a full streamer under drop_on_full
    return true;
  };

  Tuple tuple;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!task->source->Next(&tuple)) break;  // end of stream
    if (task->arrivals != nullptr) {
      Timestamp gap_us = task->arrivals->NextGap();
      if (gap_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
      }
    }
    if (batch.empty()) oldest_us = NowMicros();
    batch.push_back(std::move(tuple));
    bool size_trip = batch.size() >= opts_.batch_max_size;
    bool delay_trip =
        !size_trip && opts_.batch_max_delay_us > 0 &&
        NowMicros() - oldest_us >=
            static_cast<int64_t>(opts_.batch_max_delay_us);
    if (size_trip || delay_trip) {
      if (!flush(size_trip ? flush_size_ : flush_delay_)) return;
    }
  }
  flush(flush_close_);
  task->producer->Close();
}

void Wrapper::Stop() {
  stop_.store(true);
  // Closing first wakes a task waiting for room in its streamer.
  for (auto& task : tasks_) task->producer->Close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  started_.store(false);
}

}  // namespace tcq
