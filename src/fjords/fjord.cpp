#include "fjords/fjord.h"

namespace tcq {

const char* FjordModeName(FjordMode mode) {
  switch (mode) {
    case FjordMode::kPull:
      return "pull";
    case FjordMode::kPush:
      return "push";
    case FjordMode::kExchange:
      return "exchange";
  }
  return "unknown";
}

Fjord::Endpoints Fjord::Make(FjordMode mode, size_t capacity,
                             std::string name, MetricsRegistry* metrics) {
  auto fjord = std::make_shared<Fjord>(mode, capacity, std::move(name));
  if (metrics != nullptr) {
    fjord->queue_.SetMetrics(QueueMetrics::For(metrics, fjord->name()));
  }
  return Endpoints{FjordProducer(fjord), FjordConsumer(fjord), fjord};
}

QueueOp FjordProducer::Produce(Tuple t) {
  TupleBatch one;
  one.push_back(std::move(t));  // a control tuple diverts onto the lane
  switch (fjord_->mode()) {
    case FjordMode::kPull:
      return fjord_->queue_.EnqueueBlocking(std::move(one)) ? QueueOp::kOk
                                                            : QueueOp::kClosed;
    case FjordMode::kPush:
    case FjordMode::kExchange:
      return fjord_->queue_.TryEnqueue(std::move(one));
  }
  return QueueOp::kClosed;
}

QueueOp FjordProducer::ProduceBatch(TupleBatch* batch) {
  if (batch->empty() && batch->punctuations().empty()) return QueueOp::kOk;
  return fjord_->mode() == FjordMode::kPull
             ? fjord_->queue_.PushUntil(batch, std::nullopt)
             : fjord_->queue_.TryPush(batch);
}

QueueOp FjordProducer::ProduceBatchUntil(
    TupleBatch* batch, std::chrono::steady_clock::time_point deadline) {
  if (batch->empty() && batch->punctuations().empty()) return QueueOp::kOk;
  return fjord_->queue_.PushUntil(batch, deadline);
}

QueueOp FjordProducer::CheckRoom(size_t weight) {
  return fjord_->queue_.CheckRoom(weight);
}

bool FjordProducer::AwaitRoom(size_t weight,
                              std::chrono::steady_clock::time_point deadline) {
  return fjord_->queue_.AwaitRoom(weight, deadline);
}

void FjordProducer::Close() { fjord_->queue_.Close(); }

QueueOp FjordConsumer::Consume(Tuple* out) {
  TupleBatch one;
  QueueOp op;
  if (ConsumeBatch(&one, 1, &op) == 0) return op;
  if (one.empty()) {
    const Punctuation& p = one.punctuations().front();
    *out = Tuple::MakePunctuation(p.source, p.low_watermark);
  } else {
    *out = one.RowAt(0);
  }
  return QueueOp::kOk;
}

size_t FjordConsumer::ConsumeBatch(TupleBatch* out, size_t max, QueueOp* op,
                                   int64_t* first_enq_us) {
  switch (fjord_->mode()) {
    case FjordMode::kPull:
    case FjordMode::kExchange: {
      size_t got = fjord_->queue_.PopBatchBlocking(out, max, first_enq_us);
      *op = got > 0 ? QueueOp::kOk : QueueOp::kClosed;
      return got;
    }
    case FjordMode::kPush:
      return fjord_->queue_.TryPopBatch(out, max, op, first_enq_us);
  }
  *op = QueueOp::kClosed;
  return 0;
}

bool FjordConsumer::Exhausted() const { return fjord_->queue_.exhausted(); }

void FjordConsumer::Close() { fjord_->queue_.Close(); }

size_t FjordConsumer::Pending() const { return fjord_->queue_.size(); }

void FjordConsumer::SetWake(WakeTarget* wake) { fjord_->queue_.SetWake(wake); }

}  // namespace tcq
