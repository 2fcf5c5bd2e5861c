// Ingress tests: generators (determinism, schemas, loss/jitter knobs),
// arrival processes, the wrapper's threaded push/pull hosting, CSV sources,
// and the simulated remote index with its lookup cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "ingress/generators.h"
#include "ingress/rate.h"
#include "ingress/remote_index.h"
#include "ingress/source.h"
#include "ingress/wrapper.h"

namespace tcq {
namespace {

TEST(GeneratorTest, StockTicksFollowSchemaAndDays) {
  StockTickGenerator gen("stocks", 0,
                         {.symbols = {"MSFT", "AAPL"}, .seed = 1, .days = 3});
  std::vector<Tuple> all;
  Tuple t;
  while (gen.Next(&t)) all.push_back(t);
  ASSERT_EQ(all.size(), 6u);  // 3 days x 2 symbols
  EXPECT_EQ(all[0].Get("stockSymbol").AsString(), "MSFT");
  EXPECT_EQ(all[1].Get("stockSymbol").AsString(), "AAPL");
  EXPECT_EQ(all[0].timestamp(), 1);
  EXPECT_EQ(all[5].timestamp(), 3);
  for (const Tuple& tick : all) {
    EXPECT_GT(tick.Get("closingPrice").AsDouble(), 0.0);
  }
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  StockTickGenerator a("a", 0, {.seed = 9, .days = 5});
  StockTickGenerator b("b", 0, {.seed = 9, .days = 5});
  Tuple ta, tb;
  while (a.Next(&ta)) {
    ASSERT_TRUE(b.Next(&tb));
    EXPECT_EQ(ta, tb);
  }
}

TEST(GeneratorTest, PacketsAreSkewed) {
  PacketGenerator gen("pkts", 0,
                      {.num_hosts = 100, .host_skew = 0.99, .seed = 3,
                       .count = 5000});
  std::map<int64_t, int> src_counts;
  Tuple t;
  while (gen.Next(&t)) ++src_counts[t.Get("srcHost").AsInt64()];
  // Hot host dominates under zipf.
  EXPECT_GT(src_counts[0], 500);
}

TEST(GeneratorTest, SensorLossAndJitter) {
  SensorGenerator gen("sensors", 0,
                      {.num_sensors = 4, .loss_rate = 0.5, .max_jitter = 3,
                       .seed = 7, .count = 1000});
  size_t produced = 0;
  Tuple t;
  while (gen.Next(&t)) ++produced;
  EXPECT_GT(gen.dropped(), 300u);
  EXPECT_EQ(produced + gen.dropped(), 1000u);
}

TEST(ArrivalTest, SteadyGapMatchesRate) {
  SteadyArrivals a(1000.0);  // 1k/s => 1000us gaps
  EXPECT_EQ(a.NextGap(), 1000);
}

TEST(ArrivalTest, PoissonMeanIsClose) {
  PoissonArrivals a(1000.0, 5);
  double total = 0;
  for (int i = 0; i < 20000; ++i) total += double(a.NextGap());
  EXPECT_NEAR(total / 20000.0, 1000.0, 100.0);
}

TEST(ArrivalTest, BurstyAlternates) {
  BurstyArrivals a({.burst_per_second = 100000,
                    .burst_us = 100,
                    .silence_us = 5000});
  // Gaps are 10us during the burst, then one long gap spanning the silence.
  std::vector<Timestamp> gaps;
  for (int i = 0; i < 30; ++i) gaps.push_back(a.NextGap());
  EXPECT_EQ(gaps[0], 10);
  bool saw_silence = false;
  for (Timestamp g : gaps) saw_silence = saw_silence || g > 5000 - 100;
  EXPECT_TRUE(saw_silence);
}

TEST(CsvSourceTest, ParsesTypedRows) {
  std::string path = testing::TempDir() + "/tcq_csv_test.csv";
  {
    std::ofstream out(path);
    out << "# day,symbol,price\n";
    out << "1,MSFT,50.5\n";
    out << "2,AAPL,20.25\n";
  }
  SchemaRef schema = StockTickGenerator::MakeSchema(0);
  auto src = CsvSource::Open(path, "csv", 0, schema, "timestamp");
  ASSERT_TRUE(src.ok()) << src.status();
  Tuple t;
  ASSERT_TRUE((*src)->Next(&t));
  EXPECT_EQ(t.timestamp(), 1);
  EXPECT_EQ(t.Get("stockSymbol").AsString(), "MSFT");
  EXPECT_DOUBLE_EQ(t.Get("closingPrice").AsDouble(), 50.5);
  ASSERT_TRUE((*src)->Next(&t));
  EXPECT_FALSE((*src)->Next(&t));
  std::remove(path.c_str());
}

TEST(CsvSourceTest, MissingFileIsIOError) {
  auto src = CsvSource::Open("/nonexistent/file.csv", "csv", 0,
                             StockTickGenerator::MakeSchema(0), "timestamp");
  EXPECT_FALSE(src.ok());
  EXPECT_EQ(src.status().code(), StatusCode::kIOError);
}

TEST(CsvSourceTest, BadCellIsInvalidArgument) {
  std::string path = testing::TempDir() + "/tcq_csv_bad.csv";
  {
    std::ofstream out(path);
    out << "notanumber,MSFT,50.5\n";
  }
  auto src = CsvSource::Open(path, "csv", 0,
                             StockTickGenerator::MakeSchema(0), "timestamp");
  EXPECT_TRUE(src.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(WrapperTest, PullSourceFlowsThroughStreamer) {
  Wrapper wrapper({.queue_capacity = 128});
  auto gen = std::make_unique<StockTickGenerator>(
      "stocks", SourceId{0},
      StockTickGenerator::Options{.seed = 1, .days = 50});
  FjordConsumer feed = wrapper.HostPullSource(std::move(gen), nullptr);
  wrapper.Start();

  size_t received = 0;
  Tuple t;
  while (true) {
    QueueOp op = feed.Consume(&t);
    if (op == QueueOp::kOk) {
      ++received;
    } else if (op == QueueOp::kClosed) {
      break;
    }
  }
  wrapper.Stop();
  EXPECT_EQ(received, 200u);  // 50 days x 4 default symbols
  EXPECT_EQ(wrapper.tuples_forwarded(), 200u);
}

TEST(WrapperTest, PushSourceDelivery) {
  Wrapper wrapper;
  auto [producer, consumer] = wrapper.HostPushSource("external");
  SchemaRef schema = StockTickGenerator::MakeSchema(0);
  EXPECT_EQ(producer.Produce(Tuple::Make(
                schema,
                {Value::TimestampVal(1), Value::String("MSFT"),
                 Value::Double(50.0)},
                1)),
            QueueOp::kOk);
  producer.Close();
  Tuple t;
  EXPECT_EQ(consumer.Consume(&t), QueueOp::kOk);
  EXPECT_EQ(consumer.Consume(&t), QueueOp::kClosed);
}

TEST(WrapperTest, DropOnFullCountsDrops) {
  Wrapper wrapper({.queue_capacity = 4, .drop_on_full = true});
  auto gen = std::make_unique<StockTickGenerator>(
      "stocks", SourceId{0},
      StockTickGenerator::Options{.seed = 1, .days = 100});
  FjordConsumer feed = wrapper.HostPullSource(std::move(gen), nullptr);
  wrapper.Start();
  // Do not consume; the tiny queue overflows and the wrapper drops.
  while (wrapper.tuples_forwarded() + wrapper.tuples_dropped() < 400) {
    // A bare wrapper has no barrier: wait out its source's 400 ticks.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wrapper.Stop();
  EXPECT_GT(wrapper.tuples_dropped(), 0u);
  (void)feed;
}

// --- Simulated remote index ----------------------------------------------------

SchemaRef KV(SourceId s) {
  return Schema::Make({{"k", ValueType::kInt64, s},
                       {"v", ValueType::kInt64, s}});
}

Tuple KVRow(SourceId s, int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make(KV(s), {Value::Int64(k), Value::Int64(v)}, ts);
}

TEST(RemoteIndexTest, LookupChargesSimulatedCost) {
  SimulatedRemoteIndex index(1, KV(1), "k", {.lookup_cost_us = 500});
  index.Insert(KVRow(1, 7, 70, 0));
  index.Insert(KVRow(1, 7, 71, 0));
  std::vector<Tuple> out;
  index.Lookup(Value::Int64(7), &out);
  EXPECT_EQ(out.size(), 2u);
  index.Lookup(Value::Int64(9), &out);
  EXPECT_EQ(index.lookups(), 2u);
  EXPECT_EQ(index.simulated_cost_us(), 1000);
}

TEST(RemoteIndexTest, ProbeModuleEmitsJoins) {
  SimulatedRemoteIndex index(1, KV(1), "k", {});
  index.Insert(KVRow(1, 7, 70, 0));
  RemoteIndexProbe probe(&index, {0, "k"});

  std::vector<Tuple> out;
  EXPECT_EQ(probe.Probe(KVRow(0, 7, 1, 5), &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sources(), SourceBit(0) | SourceBit(1));
  EXPECT_EQ(probe.Probe(KVRow(0, 9, 1, 6), &out), 0u);  // no match: dropped
  EXPECT_EQ(out.size(), 1u);
}

TEST(RemoteIndexTest, CacheAvoidsRepeatLookups) {
  SimulatedRemoteIndex index(1, KV(1), "k", {.lookup_cost_us = 1000});
  for (int64_t k = 0; k < 5; ++k) index.Insert(KVRow(1, k, k * 10, 0));
  SteM cache("cacheT", 1, KV(1), {.key_attr = "k"});
  RemoteIndexProbe probe(&index, {0, "k"}, &cache);

  std::vector<Tuple> out;
  // Probe key 3 twice: the second is served from the cache.
  probe.Probe(KVRow(0, 3, 1, 5), &out);
  probe.Probe(KVRow(0, 3, 2, 6), &out);
  EXPECT_EQ(index.lookups(), 1u);
  EXPECT_EQ(probe.cache_hits(), 1u);
  ASSERT_EQ(out.size(), 2u);
  // The joined tuple has a "v" from each side; read the index side's.
  const Value* v = ResolveAttr(out[1], {1, "v"});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->AsInt64(), 30);
}

TEST(RemoteIndexTest, EndToEndIndexJoinWithCache) {
  // The §2.2 scenario: stream S joins a remote index on T, with a SteM on T
  // caching earlier lookups.
  SimulatedRemoteIndex index(1, KV(1), "k", {.lookup_cost_us = 100});
  for (int64_t k = 0; k < 10; ++k) index.Insert(KVRow(1, k, k * 10, 0));
  SteM cache("cacheT", 1, KV(1), {.key_attr = "k"});
  RemoteIndexProbe probe(&index, AttrRef{0, "k"}, &cache);

  std::vector<Tuple> out;
  for (int64_t i = 0; i < 30; ++i) probe.Probe(KVRow(0, i % 10, i, i), &out);
  EXPECT_EQ(out.size(), 30u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(ResolveAttr(out[i], {1, "v"})->AsInt64(),
              static_cast<int64_t>(i % 10) * 10);
  }
  EXPECT_EQ(index.lookups(), 10u);  // each key fetched once, then cached
  EXPECT_EQ(probe.cache_hits(), 20u);
}

}  // namespace
}  // namespace tcq
