// Tests for the Fjords inter-module communication layer: queue semantics
// (push vs pull vs exchange), close/drain behaviour, and non-blocking
// guarantees under concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "fjords/fjord.h"
#include "fjords/queue.h"
#include "tuple/tuple.h"

namespace tcq {
namespace {

SchemaRef OneIntSchema() {
  return Schema::Make({{"v", ValueType::kInt64, 0}});
}

Tuple IntTuple(int64_t v) {
  return Tuple::Make(OneIntSchema(), {Value::Int64(v)}, v);
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  EXPECT_EQ(q.TryEnqueue(2), QueueOp::kOk);
  int out = 0;
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kOk);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kOk);
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, TryEnqueueFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  EXPECT_EQ(q.TryEnqueue(2), QueueOp::kOk);
  EXPECT_EQ(q.TryEnqueue(3), QueueOp::kWouldBlock);
  EXPECT_EQ(q.enqueue_blocked_count(), 1u);
}

TEST(BoundedQueueTest, TryDequeueFailsWhenEmpty) {
  BoundedQueue<int> q(2);
  int out = 0;
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kWouldBlock);
  EXPECT_EQ(q.dequeue_blocked_count(), 1u);
}

TEST(BoundedQueueTest, CloseDrainsThenReportsClosed) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  q.Close();
  EXPECT_EQ(q.TryEnqueue(2), QueueOp::kClosed);
  int out = 0;
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kOk);  // pending item still there
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kClosed);
  EXPECT_TRUE(q.exhausted());
}

TEST(BoundedQueueTest, BlockingHandoffAcrossThreads) {
  BoundedQueue<int> q(1);
  std::atomic<int> sum{0};
  std::thread consumer([&] {
    int v;
    while (q.DequeueBlocking(&v)) sum += v;
  });
  for (int i = 1; i <= 100; ++i) ASSERT_TRUE(q.EnqueueBlocking(i));
  q.Close();
  consumer.join();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] {
    int v;
    EXPECT_FALSE(q.DequeueBlocking(&v));
  });
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  std::thread producer([&] { EXPECT_FALSE(q.EnqueueBlocking(2)); });
  q.Close();
  producer.join();
}

TEST(BoundedQueueTest, CountsItemsDroppedOnClose) {
  // Regression: enqueueing into a closed queue silently destroyed the item
  // with no trace. The loss is now counted.
  BoundedQueue<int> q(2);
  ASSERT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  q.Close();
  EXPECT_EQ(q.dropped_on_close_count(), 0u);
  EXPECT_EQ(q.TryEnqueue(2), QueueOp::kClosed);
  EXPECT_EQ(q.dropped_on_close_count(), 1u);
  EXPECT_FALSE(q.EnqueueBlocking(3));
  EXPECT_EQ(q.dropped_on_close_count(), 2u);
  // Pending items remain dequeuable — only the offered ones were lost.
  int out = 0;
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kOk);
  EXPECT_EQ(out, 1);
}

TEST(BoundedQueueTest, MirrorsIntoRegistryInstruments) {
  auto registry = std::make_shared<MetricsRegistry>();
  BoundedQueue<int> q(1);
  q.SetMetrics(QueueMetrics::For(registry.get(), "test"));

  ASSERT_EQ(q.TryEnqueue(1), QueueOp::kOk);
  EXPECT_EQ(q.TryEnqueue(2), QueueOp::kWouldBlock);
  int out = 0;
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kOk);
  EXPECT_EQ(q.TryDequeue(&out), QueueOp::kWouldBlock);
  q.Close();
  EXPECT_EQ(q.TryEnqueue(3), QueueOp::kClosed);

  MetricsSnapshot snap = registry->Snapshot();
  EXPECT_EQ(snap.CounterValue("tcq_queue_enqueued_total{queue=\"test\"}"), 1);
  EXPECT_EQ(
      snap.CounterValue("tcq_queue_enqueue_blocked_total{queue=\"test\"}"), 1);
  EXPECT_EQ(
      snap.CounterValue("tcq_queue_dequeue_blocked_total{queue=\"test\"}"), 1);
  EXPECT_EQ(
      snap.CounterValue("tcq_queue_dropped_on_close_total{queue=\"test\"}"), 1);
  EXPECT_EQ(snap.GaugeValue("tcq_queue_depth{queue=\"test\"}"), 0);
  const MetricsSnapshot::HistogramData* wait =
      snap.FindHistogram("tcq_queue_wait_us{queue=\"test\"}");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 1u);  // one enqueue->dequeue residence observed
}

TEST(BoundedQueueTest, PushNBlockingLeavesSuffixWithCallerOnClose) {
  // Regression: the un-pushed suffix of a batch interrupted by Close() must
  // stay with the caller — NOT destroyed and NOT counted in
  // dropped_on_close_count(). Counting it here double-counted every batch
  // drop the caller also tracked.
  BoundedQueue<int> q(4);
  ASSERT_EQ(q.TryEnqueue(100), QueueOp::kOk);
  ASSERT_EQ(q.TryEnqueue(101), QueueOp::kOk);
  std::thread closer([&] {
    // Paces the close: the producer below should be blocked on the full
    // queue by then (if not, it sees the close first — same outcome).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Close();
  });
  int items[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  // Room for 2, then the producer blocks until the close wakes it.
  size_t pushed = q.PushNBlocking(items, 8);
  closer.join();
  EXPECT_EQ(pushed, 2u);
  EXPECT_EQ(q.dropped_on_close_count(), 0u);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(items[i], i);  // suffix intact
  // The items that DID make it in remain dequeuable after close.
  int out = 0;
  ASSERT_TRUE(q.DequeueBlocking(&out));
  EXPECT_EQ(out, 100);
  ASSERT_TRUE(q.DequeueBlocking(&out));
  ASSERT_TRUE(q.DequeueBlocking(&out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(q.DequeueBlocking(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.DequeueBlocking(&out));
  EXPECT_TRUE(q.exhausted());
}

TEST(BoundedQueueTest, MpmcMixedBatchAndSingleConservesItems) {
  // 4 producers x 4 consumers mixing single and batch endpoints, with a
  // Close() racing mid-stream. Conservation invariants:
  //   * every accepted item is consumed exactly once (counts AND value sums);
  //   * dropped_on_close_count() equals exactly the single-item offers that
  //     hit the closed queue (batch suffixes are retained, never destroyed).
  constexpr int kPerProducer = 8000;
  BoundedQueue<int> q(64);
  std::atomic<uint64_t> accepted{0}, destroyed{0}, retained{0}, consumed{0};
  std::atomic<uint64_t> sum_in{0}, sum_out{0};

  auto single_producer = [&](int id, bool blocking) {
    for (int i = 0; i < kPerProducer; ++i) {
      const int v = id * kPerProducer + i;
      QueueOp op = QueueOp::kWouldBlock;
      if (blocking) {
        op = q.EnqueueBlocking(v) ? QueueOp::kOk : QueueOp::kClosed;
      } else {
        while ((op = q.TryEnqueue(v)) == QueueOp::kWouldBlock) {
          std::this_thread::yield();
        }
      }
      if (op == QueueOp::kOk) {
        accepted.fetch_add(1);
        sum_in.fetch_add(static_cast<uint64_t>(v));
      } else {
        destroyed.fetch_add(1);  // closed-queue single offers ARE destroyed
      }
    }
  };
  auto batch_producer = [&](int id, bool blocking) {
    constexpr int kChunk = 37;
    int sent = 0;
    while (sent < kPerProducer) {
      const int n = std::min(kChunk, kPerProducer - sent);
      std::vector<int> buf(static_cast<size_t>(n));
      for (int j = 0; j < n; ++j) buf[static_cast<size_t>(j)] =
          id * kPerProducer + sent + j;
      size_t off = 0;
      QueueOp op = QueueOp::kOk;
      while (off < static_cast<size_t>(n)) {
        size_t pushed;
        if (blocking) {
          pushed = q.PushNBlocking(buf.data() + off,
                                   static_cast<size_t>(n) - off);
          op = pushed + off < static_cast<size_t>(n) ? QueueOp::kClosed
                                                     : QueueOp::kOk;
        } else {
          pushed = q.TryPushN(buf.data() + off,
                              static_cast<size_t>(n) - off, &op);
        }
        accepted.fetch_add(pushed);
        for (size_t j = off; j < off + pushed; ++j) {
          sum_in.fetch_add(static_cast<uint64_t>(buf[j]));
        }
        off += pushed;
        if (op == QueueOp::kClosed) {
          retained.fetch_add(static_cast<size_t>(n) - off);
          return;  // suffix stays ours; nothing destroyed, nothing counted
        }
        if (op == QueueOp::kWouldBlock) std::this_thread::yield();
      }
      sent += n;
    }
  };
  auto single_consumer = [&](bool blocking) {
    int v;
    for (;;) {
      QueueOp op;
      if (blocking) {
        if (!q.DequeueBlocking(&v)) return;
        op = QueueOp::kOk;
      } else {
        op = q.TryDequeue(&v);
        if (op == QueueOp::kClosed) return;
        if (op == QueueOp::kWouldBlock) {
          std::this_thread::yield();
          continue;
        }
      }
      consumed.fetch_add(1);
      sum_out.fetch_add(static_cast<uint64_t>(v));
    }
  };
  auto batch_consumer = [&](bool blocking) {
    std::vector<int> out;
    for (;;) {
      out.clear();
      size_t got;
      QueueOp op = QueueOp::kOk;
      if (blocking) {
        got = q.PopBatchBlocking(&out, 29);
        if (got == 0) return;  // closed and drained
      } else {
        got = q.TryPopBatch(&out, 29, &op);
        if (op == QueueOp::kClosed) return;
        if (op == QueueOp::kWouldBlock) {
          std::this_thread::yield();
          continue;
        }
      }
      consumed.fetch_add(got);
      for (int v : out) sum_out.fetch_add(static_cast<uint64_t>(v));
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(single_producer, 0, true);
  threads.emplace_back(single_producer, 1, false);
  threads.emplace_back(batch_producer, 2, true);
  threads.emplace_back(batch_producer, 3, false);
  threads.emplace_back(single_consumer, true);
  threads.emplace_back(single_consumer, false);
  threads.emplace_back(batch_consumer, true);
  threads.emplace_back(batch_consumer, false);
  // Paces the close: let the producers and consumers race for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  q.Close();
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(q.exhausted());  // consumers drained everything accepted
  EXPECT_EQ(consumed.load(), accepted.load());
  EXPECT_EQ(sum_out.load(), sum_in.load());
  EXPECT_EQ(q.dropped_on_close_count(), destroyed.load());
  // Every offer either landed, was destroyed (and counted), or stayed with
  // its producer; batch producers stop at the first kClosed so the total
  // can fall short of 4*kPerProducer, but never exceed it.
  EXPECT_LE(accepted.load() + destroyed.load() + retained.load(),
            4u * kPerProducer);
}

TEST(FjordTest, PushModeNeverBlocksConsumer) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 2);
  Tuple t;
  // Empty queue: control returns immediately with kWouldBlock.
  EXPECT_EQ(consumer.Consume(&t), QueueOp::kWouldBlock);
  EXPECT_EQ(producer.Produce(IntTuple(1)), QueueOp::kOk);
  EXPECT_EQ(consumer.Consume(&t), QueueOp::kOk);
  EXPECT_EQ(t.at(0).AsInt64(), 1);
}

TEST(FjordTest, PushModeProducerSeesBackpressure) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 1);
  EXPECT_EQ(producer.Produce(IntTuple(1)), QueueOp::kOk);
  EXPECT_EQ(producer.Produce(IntTuple(2)), QueueOp::kWouldBlock);
}

TEST(FjordTest, PullModeDeliversInOrderAcrossThreads) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPull, 4);
  std::thread t([p = producer]() mutable {
    for (int i = 0; i < 50; ++i) ASSERT_EQ(p.Produce(IntTuple(i)), QueueOp::kOk);
    p.Close();
  });
  int expected = 0;
  Tuple tuple;
  while (consumer.Consume(&tuple) == QueueOp::kOk) {
    EXPECT_EQ(tuple.at(0).AsInt64(), expected++);
  }
  EXPECT_EQ(expected, 50);
  EXPECT_TRUE(consumer.Exhausted());
  t.join();
}

TEST(FjordTest, ExchangeModeBlocksConsumerOnly) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kExchange, 1);
  EXPECT_EQ(producer.Produce(IntTuple(1)), QueueOp::kOk);
  // Producer side is non-blocking when full.
  EXPECT_EQ(producer.Produce(IntTuple(2)), QueueOp::kWouldBlock);
  Tuple t;
  EXPECT_EQ(consumer.Consume(&t), QueueOp::kOk);
}

TEST(FjordTest, CloseEndsStreamForConsumer) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 4);
  producer.Close();
  Tuple t;
  EXPECT_EQ(consumer.Consume(&t), QueueOp::kClosed);
}

TEST(FjordTest, ConsumerCloseHangsUpAWaitingProducer) {
  // A consumer that will read nothing more closes its end: a producer
  // waiting for room returns kClosed at once instead of at its deadline,
  // keeping the suffix that did not fit.
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 2);
  TupleBatch batch(0);
  for (int64_t v = 1; v <= 3; ++v) batch.push_back(IntTuple(v));
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kWouldBlock);
  consumer.Close();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(producer.ProduceBatchUntil(&batch, t0 + std::chrono::seconds(10)),
            QueueOp::kClosed);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(FjordTest, PullModeProduceBatchRetainsSuffixOnClose) {
  // Regression: pull-mode ProduceBatch used to clear the whole batch on
  // close, so "before - batch.size()" callers counted close-dropped tuples
  // as forwarded. The unconsumed suffix must survive in the batch.
  MetricsRegistry registry;
  auto [producer, consumer, fjord] =
      Fjord::Make(FjordMode::kPull, 2, "pull", &registry);
  auto closer_producer = producer;
  std::thread closer([p = std::move(closer_producer)]() mutable {
    // Paces the close: the pull-mode produce below should be blocked by then.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    p.Close();
  });
  TupleBatch batch;
  for (int i = 0; i < 5; ++i) batch.push_back(IntTuple(i));
  // Two fit; the blocking push then parks until the close releases it.
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kClosed);
  closer.join();
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.data()[i].at(0).AsInt64(), static_cast<int64_t>(i) + 2);
  }
  // Two rows queued, three retained: nothing destroyed or counted as lost.
  EXPECT_EQ(fjord->size(), 2u);
  EXPECT_EQ(registry.Snapshot().CounterValue(
                "tcq_queue_dropped_on_close_total{queue=\"pull\"}"),
            0u);
  // Re-offering the suffix after close keeps it with the caller too.
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kClosed);
  EXPECT_EQ(batch.size(), 3u);
}

TEST(FjordTest, ControlLaneTravelsBehindRowsAndDivertsOnConsume) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 8);
  TupleBatch batch;
  batch.push_back(IntTuple(1));
  batch.push_back(IntTuple(2));
  batch.AddPunctuation(Punctuation{0, 2});
  // push_back of a control tuple diverts onto the lane, not the rows.
  batch.push_back(Tuple::MakePunctuation(0, 5));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_EQ(batch.punctuations().size(), 2u);

  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kOk);
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.punctuations().empty());

  TupleBatch out;
  QueueOp op = QueueOp::kOk;
  // Rows and control tuples count toward the popped total; the consumer's
  // push_back diverts control tuples back onto the output lane.
  EXPECT_EQ(consumer.ConsumeBatch(&out, 16, &op), 4u);
  EXPECT_EQ(op, QueueOp::kOk);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out.punctuations().size(), 2u);
  EXPECT_EQ(out.punctuations()[0].low_watermark, 2);
  EXPECT_EQ(out.punctuations()[1].low_watermark, 5);
}

TEST(FjordTest, BackpressureRetainsLaneSuffixForRetry) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 3);
  TupleBatch batch;
  batch.push_back(IntTuple(1));
  batch.push_back(IntTuple(2));
  batch.AddPunctuation(Punctuation{0, 2});
  batch.AddPunctuation(Punctuation{0, 7});
  // Capacity 3: both rows and the first punctuation land, the second stays
  // on the lane for the caller's retry.
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kWouldBlock);
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(batch.punctuations().size(), 1u);
  EXPECT_EQ(batch.punctuations()[0].low_watermark, 7);

  Tuple t;
  ASSERT_EQ(consumer.Consume(&t), QueueOp::kOk);  // free one slot
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kOk);
  EXPECT_TRUE(batch.punctuations().empty());

  TupleBatch out;
  QueueOp op = QueueOp::kOk;
  EXPECT_EQ(consumer.ConsumeBatch(&out, 16, &op), 3u);
  ASSERT_EQ(out.punctuations().size(), 2u);
  EXPECT_EQ(out.punctuations()[0].low_watermark, 2);
  EXPECT_EQ(out.punctuations()[1].low_watermark, 7);
}

TEST(FjordTest, LaneHeldBackWhileRowsRemain) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 1);
  TupleBatch batch;
  batch.push_back(IntTuple(1));
  batch.push_back(IntTuple(2));
  batch.AddPunctuation(Punctuation{0, 9});
  // Only one row fits; the lane must NOT jump ahead of the stuck row
  // (its contract is "applies after this batch's rows").
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kWouldBlock);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.punctuations().size(), 1u);
}

TEST(FjordTest, LaneOnlyBatchCountsAsDelivery) {
  auto [producer, consumer, fjord] = Fjord::Make(FjordMode::kPush, 4);
  TupleBatch batch;
  batch.AddPunctuation(Punctuation{3, 11});
  EXPECT_EQ(producer.ProduceBatch(&batch), QueueOp::kOk);

  TupleBatch out;
  QueueOp op = QueueOp::kOk;
  // got > 0 even though no data rows arrived — pump loops treat a lane-only
  // pop as work to deliver.
  EXPECT_EQ(consumer.ConsumeBatch(&out, 16, &op), 1u);
  EXPECT_TRUE(out.empty());
  ASSERT_EQ(out.punctuations().size(), 1u);
  EXPECT_EQ(out.punctuations()[0].source, 3u);
  EXPECT_EQ(out.punctuations()[0].low_watermark, 11);
}

TEST(FjordTest, ModeNames) {
  EXPECT_STREQ(FjordModeName(FjordMode::kPull), "pull");
  EXPECT_STREQ(FjordModeName(FjordMode::kPush), "push");
  EXPECT_STREQ(FjordModeName(FjordMode::kExchange), "exchange");
}

}  // namespace
}  // namespace tcq
