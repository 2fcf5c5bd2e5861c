// Introspection streams: the engine's own state published as ordinary
// stream tuples (DESIGN.md §9). A SystemStreamSource periodically snapshots
// the metrics registry and the trace aggregates and pushes rows into three
// reserved streams — tcq$metrics (every counter/gauge), tcq$queues (fjord
// depth/throughput/drops/wait), tcq$latency (trace histogram quantiles) —
// so a continuous window query can run over the engine itself, closing the
// paper's monitoring loop.
//
// The source knows nothing about the server: it renders snapshots to rows
// and hands them to an injected push callback, which the server binds to
// its normal ingest path (so introspection tuples flow through the same
// fjords, eddies, and window machinery as user data).

#pragma once

#include <atomic>
#include <functional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "obs/trace.h"
#include "tuple/schema.h"
#include "tuple/value.h"

namespace tcq::obs {

struct SystemStreamOptions {
  /// Off by default: the reserved streams are only registered (and the
  /// publisher thread only started) when the server opts in.
  bool enabled = false;
  /// Snapshot publication period.
  int publish_interval_ms = 50;
};

class SystemStreamSource {
 public:
  /// One published row of a reserved stream.
  struct Row {
    std::vector<Value> values;
  };

  /// Receives the rows of one stream for one publication round. `tick` is
  /// the round's logical timestamp (monotone from 1), shared by all three
  /// streams so windows over them align.
  using PushFn = std::function<void(const std::string& stream,
                                    std::vector<Row> rows, Timestamp tick)>;

  static constexpr const char* kMetricsStream = "tcq$metrics";
  static constexpr const char* kQueuesStream = "tcq$queues";
  static constexpr const char* kLatencyStream = "tcq$latency";

  /// {metric, kind ("counter"|"gauge"), value}.
  static std::vector<Field> MetricsSchema();
  /// {queue, depth, enqueued, dropped, wait_p95_us} — one row per fjord.
  static std::vector<Field> QueuesSchema();
  /// {metric, count, p50_us, p95_us, p99_us} — one row per histogram.
  static std::vector<Field> LatencySchema();

  SystemStreamSource(SystemStreamOptions opts, MetricsRegistryRef metrics,
                     TracerRef tracer, PushFn push);
  ~SystemStreamSource();

  SystemStreamSource(const SystemStreamSource&) = delete;
  SystemStreamSource& operator=(const SystemStreamSource&) = delete;

  /// Starts / stops the periodic publisher thread. Idempotent.
  void Start();
  void Stop();

  /// Takes one snapshot and pushes one round of rows synchronously (the
  /// publisher thread's body; exposed for deterministic tests).
  void PublishOnce();

  /// Publication rounds completed so far (== the last tick pushed).
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// Fast-forwards the tick counter to at least `t` (monotone), so a server
  /// restored from a checkpoint keeps publishing on a continuing timeline
  /// rather than restarting its logical clock.
  void AdvanceTicksTo(uint64_t t) {
    uint64_t cur = ticks_.load(std::memory_order_relaxed);
    while (cur < t && !ticks_.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

 private:
  void Run(std::stop_token stop);

  SystemStreamOptions opts_;
  MetricsRegistryRef metrics_;
  TracerRef tracer_;
  PushFn push_;
  std::atomic<uint64_t> ticks_{0};
  std::atomic<bool> running_{false};
  std::jthread publisher_;
};

}  // namespace tcq::obs
