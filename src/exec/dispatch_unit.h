// Dispatch Units (paper §4.2.2): "non-preemptive Dispatch Units that can be
// executed based on some scheduling policy... DUs are merely abstractions
// that represent entities that perform work in the system. DUs are
// responsible for maintaining their own state." A DU runs as a state
// machine: each Step() performs a bounded quantum of work and reports
// whether it progressed, idled, or finished. A DU that idles is stepped
// again only after something it consumes signals its EO's wake target
// (BindWake), so all of a DU's work must arrive through bound inputs.

#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cacq/shared_eddy.h"
#include "fjords/fjord.h"
#include "obs/trace.h"
#include "window/window_exec.h"

namespace tcq {

class DispatchUnit {
 public:
  enum class StepResult {
    kProgress,  ///< did work; schedule again soon
    kIdle,      ///< nothing to do right now (inputs empty)
    kDone,      ///< inputs exhausted and all work finished
  };

  explicit DispatchUnit(std::string name) : name_(std::move(name)) {}
  virtual ~DispatchUnit() = default;

  const std::string& name() const { return name_; }

  /// Performs one bounded, non-preemptive quantum of work.
  virtual StepResult Step() = 0;

  /// Binds (nullptr: unbinds) the wake target the DU's inputs signal when
  /// they gain work — the hosting EO's. Called by ExecutionObject's
  /// Add/RemoveDispatchUnit only while no EO steps the DU. The default suits
  /// a DU with no inputs, which never idles waiting for one.
  virtual void BindWake(WakeTarget* /*wake*/) {}

  /// Step counters are atomics: the owning EO updates them from its thread
  /// while the executor's rebalance pass reads them to estimate per-DU load.
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  uint64_t progress_steps() const {
    return progress_steps_.load(std::memory_order_relaxed);
  }
  /// True once a Step() reported kDone (the EO retires the DU then).
  /// Safe to read from any thread.
  bool done() const { return done_.load(); }

 protected:
  void CountStep(StepResult r) {
    steps_.fetch_add(1, std::memory_order_relaxed);
    if (r == StepResult::kProgress) {
      progress_steps_.fetch_add(1, std::memory_order_relaxed);
    }
    if (r == StepResult::kDone) done_.store(true);
  }

 private:
  std::string name_;
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> progress_steps_{0};
  std::atomic<bool> done_{false};
};

/// The shared "continuous query" mode DU (paper §4.2.2 mode 3): one CACQ
/// shared eddy serving every query of one query class, fed by the class's
/// stream inputs. New queries arrive through a thread-safe plan queue (the
/// QPQueue analog) and are folded in between quanta.
class SharedCQDispatchUnit : public DispatchUnit {
 public:
  struct Options {
    /// Max tuples ingested per Step.
    size_t quantum = 64;
  };

  SharedCQDispatchUnit(std::string name, std::unique_ptr<SharedEddy> eddy,
                       Options opts);

  /// Thread-safe: attaches a stream input (consumed round-robin from the
  /// next quantum on) and binds it to the DU's wake target.
  void AddInput(SourceId source, FjordConsumer consumer);

  /// Thread-safe: enqueues an admission task executed against the eddy at
  /// the next quantum boundary (the QPQueue analog). Used for query
  /// add/remove and for registering streams a new query introduces. Both
  /// calls signal the wake target, so a parked EO runs the quantum.
  void SubmitTask(std::function<void(SharedEddy*)> task);

  void BindWake(WakeTarget* wake) override;

  /// Routes a local query id's deliveries to a client sink under a global
  /// id. Must be called from a submitted task (DU thread). Results reach
  /// the sink as runs: the DU buffers the eddy's outputs per query and
  /// hands each query its run, in emission order, after every ingested
  /// batch, before forwarding a punctuation, and after every plan-queue
  /// task — so nothing is buffered between Steps.
  using GlobalSink =
      std::function<void(uint64_t, const std::vector<Tuple>&)>;
  void BindSink(QueryId local, uint64_t global_id, GlobalSink sink);
  void UnbindSink(QueryId local);

  StepResult Step() override;

  SharedEddy* eddy() { return eddy_.get(); }

  /// Attaches the dataflow tracer: each ingest quantum becomes a potential
  /// trace batch (sampling decided per batch). Call before the DU runs.
  void set_tracer(obs::TracerRef tracer) { tracer_ = std::move(tracer); }

  /// Routes punctuations the eddy applies to a per-shard observer (the
  /// sharded class's min-combine). Call before the DU runs; invoked from
  /// the DU thread during IngestBatch, after the results of every row that
  /// preceded the punctuation have been flushed to their sinks.
  void set_control_sink(std::function<void(const Punctuation&)> sink);

  /// Shard replica id this DU pumps (stamped on every sampled span). Call
  /// before the DU runs; defaults to 0 for unsharded classes.
  void set_shard(uint32_t shard) { shard_ = shard; }
  uint32_t shard() const { return shard_; }

  // --- Quiesce protocol (class merge / GC / migration) ------------------------
  // The methods below are safe ONLY while the DU is detached from every EO
  // (ExecutionObject::RemoveDispatchUnit blocks until the current quantum
  // finishes, so after it returns the caller owns the DU exclusively).

  /// Runs every pending plan-queue task and folds pending inputs in — the
  /// work a Step() would do at its next quantum boundary, without ingesting.
  void Quiesce();

  /// Moves every stream input (active and pending) out of the DU, preserving
  /// per-stream order: the FjordConsumer endpoints carry their queued tuples
  /// with them, so re-attaching them to another DU loses nothing. Inputs
  /// whose fjords already closed and drained are dropped (nothing left to
  /// consume).
  std::vector<std::pair<SourceId, FjordConsumer>> DetachInputs();

  /// Moves the delivery table (local id -> (global id, sink)) out of the DU,
  /// for rebinding under remapped local ids in a merge target.
  std::map<QueryId, std::pair<uint64_t, GlobalSink>> TakeSinks();

 private:
  void DrainPlanQueue();
  /// Hands every buffered run to its query's sink (DU thread).
  void FlushRuns();

  Options opts_;
  std::unique_ptr<SharedEddy> eddy_;
  obs::TracerRef tracer_;
  uint32_t shard_ = 0;
  struct Input {
    SourceId source;
    FjordConsumer consumer;
    bool exhausted = false;
  };
  std::vector<Input> inputs_;
  size_t next_input_ = 0;

  std::mutex plan_mu_;
  WakeTarget* wake_ = nullptr;  // guarded by plan_mu_
  std::deque<std::function<void(SharedEddy*)>> pending_tasks_;
  std::vector<Input> pending_inputs_;
  // DU-thread-only delivery table, indexed by local query id (ids are
  // dense). `dirty_` lists the slots whose run holds results, so a flush
  // visits only those.
  struct Slot {
    uint64_t global_id = 0;
    GlobalSink sink;  ///< empty: unbound, outputs are dropped
    std::vector<Tuple> run;
  };
  std::vector<Slot> slots_;
  std::vector<QueryId> dirty_;
};

/// A windowed-query DU: drives an OnlineWindowRunner from stream inputs and
/// delivers fired windows to a sink.
class WindowedQueryDispatchUnit : public DispatchUnit {
 public:
  using WindowSink = std::function<void(const WindowResult&)>;

  WindowedQueryDispatchUnit(
      std::string name, WindowedQuery query, WindowSink sink,
      size_t quantum = 64,
      OnlineWindowRunner::Options runner_opts = OnlineWindowRunner::Options());

  /// Not thread-safe: call before the DU is hosted.
  void AddInput(SourceId source, FjordConsumer consumer);

  void BindWake(WakeTarget* wake) override;

  /// Invoked once, from the step that reports kDone (the loop finished or
  /// every input closed), after that step's windows reached the sink and
  /// its inputs were closed. Call before the DU runs.
  void set_on_done(std::function<void()> on_done) {
    on_done_ = std::move(on_done);
  }

  StepResult Step() override;

  /// Attaches the dataflow tracer: a step with a sampled batch records one
  /// kWindowFire span over its ingest and Poll. Call before the DU runs.
  void set_tracer(obs::TracerRef tracer) { tracer_ = std::move(tracer); }

  /// Durable state (DESIGN.md §13): checkpoint export/restore reads the
  /// runner. Only safe while no EO steps the DU (detached, or pre-Start).
  const OnlineWindowRunner& runner() const { return runner_; }
  OnlineWindowRunner* mutable_runner() { return &runner_; }

 private:
  OnlineWindowRunner runner_;
  WindowSink sink_;
  std::function<void()> on_done_;
  obs::TracerRef tracer_;
  size_t quantum_;
  struct Input {
    SourceId source;
    FjordConsumer consumer;
    bool exhausted = false;
  };
  std::vector<Input> inputs_;
  size_t next_input_ = 0;
};

}  // namespace tcq
