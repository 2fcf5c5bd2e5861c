// Egress tests: push egress shedding policies, blocking semantics, batched
// offers (one OfferBatch == that many Offers), and the pull egress "what
// happened since I left" cursor.

#include <gtest/gtest.h>

#include <algorithm>
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
