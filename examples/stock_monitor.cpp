// Stock monitor: runs the paper's §4.1 window-semantics examples verbatim
// over a generated ClosingStockPrices stream — snapshot, landmark, sliding,
// and the sliding self-join "stocks that closed higher than MSFT".
//
//   $ ./stock_monitor

#include <cstdio>

#include "ingress/generators.h"
#include "server/telegraphcq.h"

using namespace tcq;

namespace {

void Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

// Prints up to `max_windows` of a windowed query's fired windows (call
// after Drain(): the buffer then holds every window the stream fired).
void PrintWindows(const char* title, TelegraphCQ::ClientHandle* handle,
                  size_t max_windows) {
  std::printf("\n== %s ==\n", title);
  size_t shown = 0;
  WindowResult wr;
  while (shown < max_windows && handle->windows->Poll(&wr)) {
    std::printf("  t=%lld: %zu rows\n", static_cast<long long>(wr.t),
                wr.tuples.size());
    for (size_t i = 0; i < wr.tuples.size() && i < 3; ++i) {
      std::printf("    %s\n", wr.tuples[i].ToString().c_str());
    }
    if (wr.tuples.size() > 3) std::printf("    ...\n");
    ++shown;
  }
}

}  // namespace

int main() {
  TelegraphCQ server;
  auto sid = server.DefineStream(
      "ClosingStockPrices", {{"timestamp", ValueType::kTimestamp, 0},
                             {"stockSymbol", ValueType::kString, 0},
                             {"closingPrice", ValueType::kDouble, 0}});
  if (!sid.ok()) Fail("DefineStream", sid.status());

  // A wrapper-hosted generator: 4 symbols, 60 trading days.
  auto gen = std::make_unique<StockTickGenerator>(
      "nyse", *sid,
      StockTickGenerator::Options{
          .symbols = {"MSFT", "AAPL", "IBM", "ORCL"},
          .initial_price = 50.0,
          .volatility = 1.5,
          .seed = 2026,
          .days = 60});
  if (Status s = server.AttachSource("ClosingStockPrices", std::move(gen));
      !s.ok()) {
    Fail("AttachSource", s);
  }

  // Example 1 (snapshot): closing prices for MSFT on the first 5 days.
  auto snapshot = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  if (!snapshot.ok()) Fail("snapshot", snapshot.status());

  // Example 2 (landmark): days after day 20 where MSFT closed over $50,
  // standing for 20 days. The result sets grow as the window expands.
  auto landmark = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 50.00 "
      "for (t = 21; t <= 40; t++) { WindowIs(ClosingStockPrices, 21, t); }");
  if (!landmark.ok()) Fail("landmark", landmark.status());

  // Example 3 (sliding): MSFT highs over the five most recent days.
  auto sliding = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 52.0 "
      "for (t = 5; t <= 20; t++) { WindowIs(ClosingStockPrices, t - 4, t); }");
  if (!sliding.ok()) Fail("sliding", sliding.status());

  // Example 5 (sliding self-join): stocks that closed higher than MSFT on
  // the same day, over 5-day windows.
  auto beat_msft = server.Submit(
      "SELECT c2.stockSymbol, c2.closingPrice "
      "FROM ClosingStockPrices c1, ClosingStockPrices c2 "
      "WHERE c1.stockSymbol = 'MSFT' "
      "AND c2.closingPrice > c1.closingPrice "
      "AND c2.timestamp = c1.timestamp "
      "for (t = 5; t <= 15; t++) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }");
  if (!beat_msft.ok()) Fail("beat_msft", beat_msft.status());

  // Plus an ordinary continuous query streaming alongside the windows.
  auto cq = server.Submit(
      "SELECT stockSymbol, closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 55.0");
  if (!cq.ok()) Fail("cq", cq.status());

  server.Start();
  // The generator is finite: Drain() waits for it to end and for every
  // result it caused to reach the buffers below.
  if (Status s = server.Drain(); !s.ok()) Fail("Drain", s);

  PrintWindows("Example 1: snapshot, MSFT days 1-5", &*snapshot, 1);
  PrintWindows("Example 2: landmark, MSFT > $50 from day 21", &*landmark, 5);
  PrintWindows("Example 3: sliding 5-day, MSFT > $52", &*sliding, 5);
  PrintWindows("Example 5: stocks beating MSFT (5-day windows)", &*beat_msft,
               5);

  std::printf("\n== continuous query: ticks over $55 ==\n");
  size_t shown = 0;
  Delivery d;
  while (shown < 8 && cq->results->Poll(&d)) {
    std::printf("  %s\n", d.tuple.ToString().c_str());
    ++shown;
  }

  server.Stop();
  std::printf("\ndone; %llu tuples ingested\n",
              static_cast<unsigned long long>(server.tuples_ingested()));
  return 0;
}
