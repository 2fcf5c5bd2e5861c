// Egress tests: push egress shedding policies, blocking semantics, and the
// pull egress "what happened since I left" cursor.

#include <gtest/gtest.h>

#include <thread>

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
