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
    fjord->queue().SetMetrics(QueueMetrics::For(metrics, fjord->name()));
  }
  return Endpoints{FjordProducer(fjord), FjordConsumer(fjord), fjord};
}

QueueOp FjordProducer::Produce(Tuple t) {
  switch (fjord_->mode()) {
    case FjordMode::kPull:
      return fjord_->queue().EnqueueBlocking(std::move(t)) ? QueueOp::kOk
                                                           : QueueOp::kClosed;
    case FjordMode::kPush:
    case FjordMode::kExchange:
      return fjord_->queue().TryEnqueue(std::move(t));
  }
  return QueueOp::kClosed;
}

QueueOp FjordProducer::ProduceBatch(TupleBatch* batch) {
  if (batch->empty() && batch->punctuations().empty()) return QueueOp::kOk;
  QueueOp op = QueueOp::kOk;
  switch (fjord_->mode()) {
    case FjordMode::kPull: {
      size_t pushed = fjord_->queue().PushNBlocking(batch->data(),
                                                    batch->size());
      // Uniform batch contract across modes: the unconsumed suffix stays in
      // the batch for the caller to account. (Clearing it here made
      // "before - batch.size()" callers count close-dropped tuples as
      // forwarded.)
      batch->DropFront(pushed);
      op = batch->empty() ? QueueOp::kOk : QueueOp::kClosed;
      break;
    }
    case FjordMode::kPush:
    case FjordMode::kExchange: {
      size_t pushed =
          fjord_->queue().TryPushN(batch->data(), batch->size(), &op);
      batch->DropFront(pushed);
      break;
    }
  }
  // The control lane travels in-band BEHIND the rows (the lane's contract is
  // "applies after this batch's rows"): only once every row is enqueued do
  // the punctuations go through, as ordinary control tuples the consumer's
  // pop-into-batch diverts back onto its lane. On backpressure the remainder
  // stays on the lane for the caller's retry.
  if (!batch->empty()) return op;
  size_t sent = 0;
  for (const Punctuation& p : batch->punctuations()) {
    QueueOp pop = Produce(Tuple::MakePunctuation(p.source, p.low_watermark));
    if (pop != QueueOp::kOk) {
      batch->DropFrontPunctuations(sent);
      return pop;
    }
    ++sent;
  }
  batch->ClearPunctuations();
  return QueueOp::kOk;
}

void FjordProducer::Close() { fjord_->queue().Close(); }

QueueOp FjordConsumer::Consume(Tuple* out) {
  switch (fjord_->mode()) {
    case FjordMode::kPull:
    case FjordMode::kExchange:
      return fjord_->queue().DequeueBlocking(out) ? QueueOp::kOk
                                                  : QueueOp::kClosed;
    case FjordMode::kPush:
      return fjord_->queue().TryDequeue(out);
  }
  return QueueOp::kClosed;
}

size_t FjordConsumer::ConsumeBatch(TupleBatch* out, size_t max, QueueOp* op,
                                   int64_t* first_enq_us) {
  switch (fjord_->mode()) {
    case FjordMode::kPull:
    case FjordMode::kExchange: {
      size_t got = fjord_->queue().PopBatchBlocking(out, max, first_enq_us);
      *op = got > 0 ? QueueOp::kOk : QueueOp::kClosed;
      return got;
    }
    case FjordMode::kPush:
      return fjord_->queue().TryPopBatch(out, max, op, first_enq_us);
  }
  *op = QueueOp::kClosed;
  return 0;
}

bool FjordConsumer::Exhausted() const { return fjord_->queue().exhausted(); }

size_t FjordConsumer::Pending() const { return fjord_->queue().size(); }

}  // namespace tcq
