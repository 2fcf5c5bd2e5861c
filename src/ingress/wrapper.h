// The Wrapper host (paper §4.2.3): "wrappers in TelegraphCQ are placed in a
// separate process, where they can be accessed in a non-blocking manner (a
// la Fjords)... the responsibility of fetching data from the network
// devolves to the Wrapper process, which uses a pool of threads to implement
// non-blocking I/O." Here the wrapper is a thread pool hosting pull sources
// (the wrapper drives them, paced by an arrival process) and push sources
// (the source's own thread pushes); both deliver to the executor through
// push-mode Fjords ("streamers").

#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "fjords/fjord.h"
#include "ingress/rate.h"
#include "ingress/source.h"
#include "obs/trace.h"

namespace tcq {

class Wrapper {
 public:
  struct Options {
    /// Capacity of each streamer queue (back-pressure bound).
    size_t queue_capacity = 4096;
    /// When a streamer queue is full: true = drop the batch (count it),
    /// false = wait for room (throttling the source).
    bool drop_on_full = false;
    /// Flush policy: a pull task accumulates tuples into a batch and pushes
    /// the whole batch downstream under one queue lock when either bound
    /// trips. batch_max_size = 1 degenerates to per-tuple forwarding; it is
    /// capped at queue_capacity, since a batch goes into a streamer whole.
    size_t batch_max_size = 64;
    /// Max time the oldest accumulated tuple may wait before the batch is
    /// flushed regardless of size (0 = no delay bound; flush on size or
    /// end-of-stream only). Checked between source pulls, so a source that
    /// stalls inside Next() can exceed this bound until it yields.
    uint64_t batch_max_delay_us = 1000;
  };

  /// When `metrics` is null the wrapper observes itself (and its streamer
  /// queues) in a private registry. A non-null `tracer` samples pull-task
  /// batch flushes (kWrapperFlush spans).
  Wrapper() : Wrapper(Options()) {}
  explicit Wrapper(Options opts, MetricsRegistryRef metrics = nullptr,
                   obs::TracerRef tracer = nullptr);
  ~Wrapper();

  /// Hosts a pull source: a wrapper thread drives `source->Next()` paced by
  /// `arrivals` (nullptr = as fast as possible) and pushes into the
  /// returned consumer endpoint. Watermarks are not the wrapper's job: the
  /// server derives them per stream (StreamOptions::punctuate).
  FjordConsumer HostPullSource(std::unique_ptr<StreamSource> source,
                               std::unique_ptr<ArrivalProcess> arrivals);

  /// A push source: the caller (playing the remote data source that
  /// "connects to a well-known port served by the Wrapper") pushes tuples
  /// itself through the returned producer; the executor consumes from the
  /// returned consumer.
  std::pair<FjordProducer, FjordConsumer> HostPushSource(
      const std::string& name);

  /// Starts the pull threads.
  void Start();

  /// Closes all streamers, waking a task that waits for room, and stops all
  /// threads; the batch a task still holds counts in tuples_lost_on_close.
  void Stop();

  uint64_t tuples_forwarded() const { return forwarded_->Value(); }
  uint64_t tuples_dropped() const { return dropped_->Value(); }
  /// Tuples a source produced after its streamer was closed downstream
  /// (e.g. Stop() raced an in-flight Produce). Lost, but accounted for.
  uint64_t tuples_lost_on_close() const { return lost_on_close_->Value(); }
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  struct PullTask {
    std::unique_ptr<StreamSource> source;
    std::unique_ptr<ArrivalProcess> arrivals;
    std::unique_ptr<FjordProducer> producer;
  };

  void RunPullTask(PullTask* task);

  Options opts_;
  std::vector<std::unique_ptr<PullTask>> tasks_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  MetricsRegistryRef metrics_;
  obs::TracerRef tracer_;
  Counter* forwarded_;
  Counter* dropped_;
  Counter* lost_on_close_;
  /// Distribution of flushed batch sizes: tcq_wrapper_batch_size.
  Histogram* batch_size_;
  /// Flush cause: tcq_wrapper_batch_flush_total{reason=size|delay|close}.
  Counter* flush_size_;
  Counter* flush_delay_;
  Counter* flush_close_;
};

}  // namespace tcq
