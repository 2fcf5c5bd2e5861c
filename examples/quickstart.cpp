// Quickstart: define a stream, submit one continuous query in SQL, push a
// few tuples, and read the results from the push egress.
//
//   $ ./quickstart

#include <cstdio>

#include "server/telegraphcq.h"

using namespace tcq;

int main() {
  TelegraphCQ server;

  // 1. Define a stream (the paper's ClosingStockPrices schema, §4.1).
  auto source = server.DefineStream(
      "ClosingStockPrices", {{"timestamp", ValueType::kTimestamp, 0},
                             {"stockSymbol", ValueType::kString, 0},
                             {"closingPrice", ValueType::kDouble, 0}});
  if (!source.ok()) {
    std::fprintf(stderr, "DefineStream: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }

  // 2. Submit a continuous query. It stays standing; results stream out as
  //    data arrives.
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 50.0");
  if (!handle.ok()) {
    std::fprintf(stderr, "Submit: %s\n", handle.status().ToString().c_str());
    return 1;
  }
  std::printf("query %llu registered\n",
              static_cast<unsigned long long>(handle->id));

  server.Start();

  // 3. Push data (a push-server ingress; generators and CSV files work
  //    too — see the other examples). The batch builder is the primary
  //    entry point: rows are appended column-wise and the whole batch
  //    travels the dataflow in columnar form, so filters sweep contiguous
  //    lanes instead of probing tuple by tuple.
  struct Tick {
    Timestamp day;
    const char* symbol;
    double price;
  };
  const Tick ticks[] = {
      {1, "MSFT", 49.5}, {1, "AAPL", 61.0}, {2, "MSFT", 51.25},
      {2, "AAPL", 59.0}, {3, "MSFT", 52.0}, {3, "AAPL", 58.5},
  };
  auto batch = server.NewBatch("ClosingStockPrices");
  if (!batch.ok()) {
    std::fprintf(stderr, "NewBatch: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  for (const Tick& t : ticks) {
    Status s = batch->Append(t.day, {Value::TimestampVal(t.day),
                                     Value::String(t.symbol),
                                     Value::Double(t.price)});
    if (!s.ok()) std::fprintf(stderr, "Append: %s\n", s.ToString().c_str());
  }
  Status s = server.PushBuilt(std::move(*batch));
  if (!s.ok()) std::fprintf(stderr, "PushBuilt: %s\n", s.ToString().c_str());

  // 4. Consume results. Two MSFT days exceed $50. Ingest is asynchronous;
  //    Drain() returns once everything pushed so far has been delivered.
  if (Status d = server.Drain(); !d.ok()) {
    std::fprintf(stderr, "Drain: %s\n", d.ToString().c_str());
    return 1;
  }
  std::printf("results:\n");
  Delivery d;
  while (handle->results->Poll(&d)) {
    std::printf("  %s\n", d.tuple.ToString().c_str());
  }

  server.Stop();
  std::printf("done\n");
  return 0;
}
