// Egress tests: push egress shedding policies, blocking semantics, batched
// offers (one OfferBatch == that many Offers), the two-sided egress under
// concurrent producers and consumers (exactly once, runs whole, per-producer
// FIFO; shedding, blocking and buffered() across both sides), and the pull
// egress "what happened since I left" cursor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "egress/egress.h"

namespace tcq {
namespace {

SchemaRef Sch() {
  return Schema::Make({{"v", ValueType::kInt64, 0}});
}

Delivery D(uint64_t qid, int64_t v, Timestamp ts) {
  return Delivery{qid, Tuple::Make(Sch(), {Value::Int64(v)}, ts)};
}

TEST(PushEgressTest, DeliversInOrder) {
  PushEgress egress;
  egress.Offer(D(1, 10, 1));
  egress.Offer(D(1, 20, 2));
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 10);
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 20);
  EXPECT_FALSE(egress.Poll(&d));
}

TEST(PushEgressTest, DropNewestSheds) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kDropNewest});
  EXPECT_TRUE(egress.Offer(D(1, 1, 1)));
  EXPECT_TRUE(egress.Offer(D(1, 2, 2)));
  EXPECT_FALSE(egress.Offer(D(1, 3, 3)));  // shed
  EXPECT_EQ(egress.shed(), 1u);
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 1);  // oldest kept
}

TEST(PushEgressTest, DropOldestKeepsFreshest) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kDropOldest});
  egress.Offer(D(1, 1, 1));
  egress.Offer(D(1, 2, 2));
  egress.Offer(D(1, 3, 3));
  EXPECT_EQ(egress.shed(), 1u);
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 2);
}

TEST(PushEgressTest, BlockAppliesBackpressure) {
  PushEgress egress({.capacity = 1, .shed = ShedPolicy::kBlock});
  ASSERT_TRUE(egress.Offer(D(1, 1, 1)));
  std::thread producer([&] { EXPECT_TRUE(egress.Offer(D(1, 2, 2))); });
  // Paces the consumer: the producer should be blocked in Offer by then.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Delivery d;
  ASSERT_TRUE(egress.Receive(&d));
  producer.join();
  ASSERT_TRUE(egress.Receive(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 2);
  EXPECT_EQ(egress.shed(), 0u);
}

TEST(PushEgressTest, CloseWakesReceivers) {
  PushEgress egress;
  std::thread client([&] {
    Delivery d;
    EXPECT_FALSE(egress.Receive(&d));
  });
  // Paces the close: the client should be blocked in Receive by then.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  egress.Close();
  client.join();
  EXPECT_FALSE(egress.Offer(D(1, 1, 1)));
}

// --- OfferBatch: a run behaves exactly like that many Offers --------------

std::vector<Delivery> MakeRun(size_t n, int64_t first_v) {
  std::vector<Delivery> run;
  for (size_t i = 0; i < n; ++i) {
    int64_t v = first_v + static_cast<int64_t>(i);
    run.push_back(D(1 + i % 3, v, v));
  }
  return run;
}

/// Polls everything buffered as (query id, v) pairs.
std::vector<std::pair<uint64_t, int64_t>> PollAll(PushEgress* egress) {
  std::vector<std::pair<uint64_t, int64_t>> out;
  Delivery d;
  while (egress->Poll(&d)) {
    out.emplace_back(d.query_id, d.tuple.Get("v").AsInt64());
  }
  return out;
}

class OfferBatchPolicyTest : public ::testing::TestWithParam<ShedPolicy> {};

TEST_P(OfferBatchPolicyTest, MatchesSequentialOffers) {
  // kBlock cannot overfill without a consumer, so its runs stay within the
  // capacity; the shedding policies get runs 2.5x longer than it.
  const size_t capacity = 4;
  const bool block = GetParam() == ShedPolicy::kBlock;
  const size_t prefill = block ? 1 : 2;
  const size_t n = block ? capacity - prefill : 10;
  PushEgress::Options opts{.capacity = capacity, .shed = GetParam()};
  PushEgress batched(opts);
  PushEgress sequential(opts);
  for (PushEgress* e : {&batched, &sequential}) {
    for (const Delivery& d : MakeRun(prefill, 100)) ASSERT_TRUE(e->Offer(d));
  }

  std::vector<Delivery> run = MakeRun(n, 1);
  size_t accepted_seq = 0;
  for (const Delivery& d : run) accepted_seq += sequential.Offer(d) ? 1 : 0;
  size_t accepted_batch = batched.OfferBatch(run);

  EXPECT_EQ(accepted_batch, accepted_seq);
  EXPECT_EQ(batched.delivered(), sequential.delivered());
  EXPECT_EQ(batched.shed(), sequential.shed());
  EXPECT_EQ(batched.buffered(), sequential.buffered());
  EXPECT_EQ(PollAll(&batched), PollAll(&sequential));
  if (!block) {
    EXPECT_GT(batched.shed(), 0u);  // the run overflowed
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, OfferBatchPolicyTest,
                         ::testing::Values(ShedPolicy::kDropNewest,
                                           ShedPolicy::kDropOldest,
                                           ShedPolicy::kBlock),
                         [](const auto& info) {
                           std::string name = ShedPolicyName(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

/// Spins until `egress` buffers `n` deliveries (the producer thread has
/// filled it and must now block for room).
void AwaitBuffered(const PushEgress& egress, size_t n) {
  while (egress.buffered() < n) std::this_thread::yield();
}

TEST(OfferBatchTest, BlockedRunResumesAsPollDrains) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kBlock});
  std::vector<Delivery> run = MakeRun(7, 1);
  size_t accepted = 0;
  std::thread producer([&] { accepted = egress.OfferBatch(run); });
  AwaitBuffered(egress, 2);
  // Poll must wake the producer every time it makes room (it counts as a
  // waiter); a missed wakeup leaves this loop spinning forever.
  std::vector<int64_t> got;
  Delivery d;
  while (got.size() < 7) {
    if (egress.Poll(&d)) {
      got.push_back(d.tuple.Get("v").AsInt64());
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(accepted, 7u);
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(egress.delivered(), 7u);
  EXPECT_EQ(egress.shed(), 0u);
}

TEST(OfferBatchTest, CloseWakesABlockedRun) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kBlock});
  std::vector<Delivery> run = MakeRun(5, 1);
  size_t accepted = 0;
  std::thread producer([&] { accepted = egress.OfferBatch(run); });
  AwaitBuffered(egress, 2);
  egress.Close();
  producer.join();
  // The first two went in before the close; nothing after it.
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(egress.buffered(), 2u);
  EXPECT_EQ(egress.delivered(), 2u);
  EXPECT_EQ(egress.OfferBatch(run), 0u);
}

TEST(OfferBatchTest, RunWakesABlockedReceiver) {
  PushEgress egress;
  std::vector<int64_t> got;
  std::thread client([&] {
    Delivery d;
    while (got.size() < 3 && egress.Receive(&d)) {
      got.push_back(d.tuple.Get("v").AsInt64());
    }
  });
  std::vector<Delivery> run = MakeRun(3, 1);
  EXPECT_EQ(egress.OfferBatch(run), 3u);
  client.join();
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3}));
}

// --- Two sides: producers append to one, consumers pop from the other -----

/// Delivery `seq` (< 10^4) of producer `p`, in run `run` (< 10^4): v packs
/// all three, increasing with the producer's offer order.
Delivery Tagged(int p, int run, int seq) {
  int64_t v = int64_t{p} * 100'000'000 + int64_t{run} * 10'000 + seq;
  return D(static_cast<uint64_t>(p), v, seq);
}
int ProducerOf(int64_t v) { return static_cast<int>(v / 100'000'000); }
int RunOf(int64_t v) { return static_cast<int>(v / 10'000 % 10'000); }

TEST(TwoSidedEgressTest, ConcurrentProducersAndConsumersDeliverRunsWhole) {
  constexpr int kProducers = 4;
  constexpr int kRuns = 300;
  // Run r of every producer holds 1 + r % 7 deliveries.
  int total = 0;
  for (int r = 0; r < kRuns; ++r) total += kProducers * (1 + r % 7);
  // `serialized`: the consumers take turns under a test mutex and log one
  // global pop order, which shows each run contiguous. Free consumers race
  // each other on the consumer side; each still sees every producer's
  // deliveries in order.
  for (bool serialized : {true, false}) {
    SCOPED_TRACE(serialized ? "serialized consumers" : "free consumers");
    // A kBlock wait splits a run, so the serialized pass never fills up;
    // the free pass fills up, and blocked producers wait on consumer pops.
    PushEgress egress({.capacity = serialized ? static_cast<size_t>(total) : 16,
                       .shed = ShedPolicy::kBlock});
    std::mutex order_mu;
    std::vector<int64_t> order;  // serialized: the global pop order
    std::vector<int64_t> got[2];
    std::atomic<int> consumed{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        int seq = 0;
        for (int r = 0; r < kRuns; ++r) {
          std::vector<Delivery> run;
          for (int i = 0; i <= r % 7; ++i) run.push_back(Tagged(p, r, seq++));
          EXPECT_EQ(egress.OfferBatch(run), run.size());
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        Delivery d;
        for (int i = 0; consumed.load() < total; ++i) {
          std::unique_lock<std::mutex> lock(order_mu, std::defer_lock);
          if (serialized) lock.lock();
          // Receive only when a delivery is sure to come: consumed counts
          // pops, so fewer than `total` means one is buffered or on its way.
          bool ok = i % 3 == 0 ? egress.Receive(&d) : egress.Poll(&d);
          if (!ok) continue;
          int64_t v = d.tuple.Get("v").AsInt64();
          got[c].push_back(v);
          if (serialized) order.push_back(v);
          ++consumed;
        }
      });
    }
    // The last pops may leave the other consumer in Receive: once every
    // delivery is out, Close wakes it.
    while (consumed.load() < total) std::this_thread::yield();
    egress.Close();
    for (std::thread& t : threads) t.join();

    // Exactly once.
    std::vector<int64_t> all = got[0];
    all.insert(all.end(), got[1].begin(), got[1].end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), static_cast<size_t>(total));
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
    // Each consumer sees each producer's deliveries in offer order.
    for (const std::vector<int64_t>& seen : got) {
      std::map<int, int64_t> last;
      for (int64_t v : seen) {
        auto [it, fresh] = last.try_emplace(ProducerOf(v), v);
        if (!fresh) {
          EXPECT_LT(it->second, v);
          it->second = v;
        }
      }
    }
    // A run is contiguous in the global order.
    if (serialized) {
      std::map<std::pair<int, int>, int> runs_seen;
      for (size_t i = 0; i < order.size();) {
        int p = ProducerOf(order[i]), r = RunOf(order[i]);
        size_t len = 0;
        while (i < order.size() && ProducerOf(order[i]) == p &&
               RunOf(order[i]) == r) {
          ++i;
          ++len;
        }
        EXPECT_EQ(len, static_cast<size_t>(1 + r % 7)) << p << "/" << r;
        int& seen = runs_seen[std::make_pair(p, r)];
        EXPECT_EQ(++seen, 1) << "run " << p << "/" << r << " was split";
      }
    }
    EXPECT_EQ(egress.delivered(), static_cast<uint64_t>(total));
    EXPECT_EQ(egress.buffered(), 0u);
  }
}

TEST(TwoSidedEgressTest, DropOldestShedsFromTheConsumerSide) {
  PushEgress egress({.capacity = 3, .shed = ShedPolicy::kDropOldest});
  for (int64_t v : {1, 2, 3}) ASSERT_TRUE(egress.Offer(D(1, v, v)));
  Delivery d;
  // The poll refills the consumer side with 2 and 3.
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 1);
  ASSERT_TRUE(egress.Offer(D(1, 4, 4)));  // producer side: 4
  ASSERT_TRUE(egress.Offer(D(1, 5, 5)));  // full: sheds 2, the stalest
  EXPECT_EQ(egress.shed(), 1u);
  std::vector<int64_t> got;
  while (egress.Poll(&d)) got.push_back(d.tuple.Get("v").AsInt64());
  EXPECT_EQ(got, (std::vector<int64_t>{3, 4, 5}));
}

TEST(TwoSidedEgressTest, ConsumerSidePollWakesABlockedRun) {
  PushEgress egress({.capacity = 3, .shed = ShedPolicy::kBlock});
  for (int64_t v : {1, 2, 3}) ASSERT_TRUE(egress.Offer(D(1, v, v)));
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));  // consumer side now holds 2 and 3
  ASSERT_TRUE(egress.Offer(D(1, 4, 4)));
  std::vector<Delivery> run = MakeRun(1, 5);
  size_t accepted = 0;
  std::thread producer([&] { accepted = egress.OfferBatch(run); });
  // Paces the poll: the producer should be blocked for room by then.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Pops 2 off the consumer side without touching the producer side; the
  // room it makes must still wake the run (a lost wakeup hangs the join).
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 2);
  producer.join();
  EXPECT_EQ(accepted, 1u);
  std::vector<int64_t> got;
  while (egress.Poll(&d)) got.push_back(d.tuple.Get("v").AsInt64());
  EXPECT_EQ(got, (std::vector<int64_t>{3, 4, 5}));
}

TEST(TwoSidedEgressTest, BufferedCountsBothSides) {
  PushEgress egress;
  for (int64_t v : {1, 2, 3}) ASSERT_TRUE(egress.Offer(D(1, v, v)));
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));  // consumer side: 2, 3
  for (int64_t v : {4, 5}) ASSERT_TRUE(egress.Offer(D(1, v, v)));
  EXPECT_EQ(egress.buffered(), 4u);
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(egress.buffered(), 3u);
  while (egress.Poll(&d)) {
  }
  EXPECT_EQ(egress.buffered(), 0u);
}

TEST(PullEgressTest, FetchSinceCursor) {
  PullEgress egress;
  for (Timestamp t = 1; t <= 10; ++t) egress.Log(D(7, t, t));
  std::vector<Tuple> out;
  Timestamp cursor = egress.FetchSince(7, 0, &out);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(cursor, 10);
  // Client disconnects; more results arrive; reconnect with cursor.
  for (Timestamp t = 11; t <= 15; ++t) egress.Log(D(7, t, t));
  out.clear();
  cursor = egress.FetchSince(7, cursor, &out);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(cursor, 15);
  out.clear();
  EXPECT_EQ(egress.FetchSince(99, 0, &out), 0);
  EXPECT_TRUE(out.empty());
}

TEST(PullEgressTest, RetentionCap) {
  PullEgress egress({.max_per_query = 3});
  for (Timestamp t = 1; t <= 10; ++t) egress.Log(D(7, t, t));
  EXPECT_EQ(egress.LoggedCount(7), 3u);
  std::vector<Tuple> out;
  egress.FetchSince(7, 0, &out);
  EXPECT_EQ(out.front().timestamp(), 8);
}

}  // namespace
}  // namespace tcq
