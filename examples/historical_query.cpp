// Historical-query walkthrough (DESIGN.md §13): a spooled stream archives
// everything in the background; a checkpoint snapshots the engine; a
// "crashed" server is rebuilt with Restore(); and a late-arriving windowed
// query is admitted with history_reach so its first windows fire over
// archive it never saw live.
//
//   $ ./historical_query

#include <cstdio>
#include <filesystem>

#include "server/telegraphcq.h"

using namespace tcq;

namespace {

TelegraphCQ::Options DurableOptions() {
  const auto base = std::filesystem::temp_directory_path() / "tcq_example_hq";
  std::filesystem::create_directories(base / "spool");
  std::filesystem::create_directories(base / "ckpt");
  TelegraphCQ::Options opts;
  opts.spool_dir = (base / "spool").string();
  opts.checkpoint_dir = (base / "ckpt").string();
  return opts;
}

bool PushDay(TelegraphCQ* server, Timestamp day, double price) {
  Result<TelegraphCQ::BatchBuilder> batch =
      server->NewBatch("ClosingStockPrices");
  Status s = batch.status();
  if (s.ok()) {
    s = batch->Append(day, {Value::TimestampVal(day), Value::String("MSFT"),
                            Value::Double(price)});
  }
  if (s.ok()) s = server->PushBuilt(std::move(*batch));
  if (!s.ok()) std::fprintf(stderr, "Push: %s\n", s.ToString().c_str());
  return s.ok();
}

}  // namespace

int main() {
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "tcq_example_hq");
  const TelegraphCQ::Options opts = DurableOptions();

  // ---- Act 1: live traffic builds an archive, then a checkpoint. --------
  {
    TelegraphCQ server(opts);
    // A punctuating stream: its watermark promise is what later lets the
    // historical windows seal without waiting for fresh live rows.
    auto source = server.DefineStream(
        "ClosingStockPrices",
        {{"timestamp", ValueType::kTimestamp, 0},
         {"stockSymbol", ValueType::kString, 0},
         {"closingPrice", ValueType::kDouble, 0}},
        {.punctuate = true, .disorder_bound = 0});
    if (!source.ok()) {
      std::fprintf(stderr, "DefineStream: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    auto live = server.Submit(
        "SELECT closingPrice FROM ClosingStockPrices "
        "WHERE closingPrice > 50.0");
    if (!live.ok()) {
      std::fprintf(stderr, "Submit: %s\n",
                   live.status().ToString().c_str());
      return 1;
    }
    server.Start();
    for (Timestamp day = 1; day <= 30; ++day) {
      if (!PushDay(&server, day, 50.0 + day % 7)) return 1;
    }
    if (Status s = server.Drain(); !s.ok()) {
      std::fprintf(stderr, "Drain: %s\n", s.ToString().c_str());
      return 1;
    }
    Delivery d;
    size_t live_results = 0;  // 26: the 4 days with day % 7 == 0 fail
    while (live->results->Poll(&d)) {
      if (!d.tuple.IsPunctuation()) ++live_results;
    }
    std::printf("live query saw %zu results over 30 archived days\n",
                live_results);

    auto epoch = server.Checkpoint();
    if (!epoch.ok()) {
      std::fprintf(stderr, "Checkpoint: %s\n",
                   epoch.status().ToString().c_str());
      return 1;
    }
    std::printf("checkpoint epoch %llu written\n",
                static_cast<unsigned long long>(*epoch));

    // Traffic after the snapshot still reaches the archive...
    for (Timestamp day = 31; day <= 35; ++day) {
      if (!PushDay(&server, day, 55.0)) return 1;
    }
    Status flushed = server.FlushSpools();
    if (!flushed.ok()) {
      std::fprintf(stderr, "FlushSpools: %s\n", flushed.ToString().c_str());
      return 1;
    }
    server.Stop();
    std::printf("server \"crashed\" with 5 post-checkpoint days archived\n");
  }

  // ---- Act 2: restore = snapshot + spool replay. ------------------------
  TelegraphCQ server(opts);
  auto epoch = server.Restore();
  if (!epoch.ok()) {
    std::fprintf(stderr, "Restore: %s\n", epoch.status().ToString().c_str());
    return 1;
  }
  server.Start();
  auto view = server.Introspect();
  std::printf("restored epoch %llu, replayed %llu archived tuples; "
              "%zu queries reconnected via Handles()\n",
              static_cast<unsigned long long>(*epoch),
              static_cast<unsigned long long>(view.restore_replay_tuples),
              server.Handles().size());

  // ---- Act 3: a continuous-plus-historical query. -----------------------
  // Submitted NOW, but its first windows fire over the archive: weekly
  // windows ending on days 28..34, all in the past. history_reach primes
  // the query's input fjords with the archived suffix before live routing
  // resumes, and the splice is exact — no tuple arrives twice.
  auto weekly = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "for (t = 28; t <= 34; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 6, t); }",
      {.history_reach = kMaxTimestamp});
  if (!weekly.ok()) {
    std::fprintf(stderr, "Submit(history_reach): %s\n",
                 weekly.status().ToString().c_str());
    return 1;
  }
  if (Status s = server.Drain(); !s.ok()) {
    std::fprintf(stderr, "Drain: %s\n", s.ToString().c_str());
    return 1;
  }
  size_t fired = 0;
  WindowResult wr;
  while (weekly->windows->Poll(&wr)) {
    std::printf("  window [%lld, %lld]: %zu tuples (from the archive)\n",
                static_cast<long long>(wr.t - 6),
                static_cast<long long>(wr.t), wr.tuples.size());
    ++fired;
  }
  server.Stop();
  if (fired < 7) {
    std::fprintf(stderr, "only %zu of 7 historical windows fired\n", fired);
    return 1;
  }
  std::printf("all %zu historical windows fired without live traffic\n",
              fired);
  return 0;
}
