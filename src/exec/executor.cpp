#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>

namespace tcq {

namespace {

/// How long a push waits for room before it is refused; a client that
/// keeps pushes in flight sizes its cap so the queues never fill this long.
constexpr auto kAdmitWait = std::chrono::milliseconds(20);

}  // namespace

Executor::Executor(Options opts, MetricsRegistryRef metrics,
                   obs::TracerRef tracer)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)) {
  if (opts_.shards == 0) opts_.shards = 1;
  dropped_unrouted_ =
      metrics_->GetCounter("tcq_executor_tuples_dropped_unrouted_total");
  dropped_backpressure_ =
      metrics_->GetCounter("tcq_executor_tuples_dropped_backpressure_total");
  merges_ = metrics_->GetCounter("tcq_executor_class_merges_total");
  migrations_ = metrics_->GetCounter("tcq_executor_class_migrations_total");
  gcs_ = metrics_->GetCounter("tcq_executor_class_gcs_total");
  classes_gauge_ = metrics_->GetGauge("tcq_executor_classes");
  for (size_t i = 0; i < opts_.num_eos; ++i) {
    auto sched = opts_.ticket_scheduler
                     ? MakeTicketScheduler(opts_.seed + i)
                     : MakeRoundRobinScheduler();
    eos_.push_back(std::make_unique<ExecutionObject>(
        "eo" + std::to_string(i), std::move(sched), metrics_, &parked_));
  }
}

Executor::~Executor() { Stop(); }

Status Executor::RegisterStream(SourceId source, SchemaRef schema,
                                StemOptions stem_opts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (streams_.contains(source)) {
    return Status::AlreadyExists("stream s" + std::to_string(source) +
                                 " already registered");
  }
  StreamInfo info;
  info.schema = std::move(schema);
  info.stem_opts = std::move(stem_opts);
  info.dropped = metrics_->GetCounter(MetricName(
      "tcq_executor_stream_dropped_total", "stream",
      "s" + std::to_string(source)));
  info.dropped_base = info.dropped->Value();
  streams_.emplace(source, std::move(info));
  return Status::OK();
}

Result<uint64_t> Executor::UnregisterStream(SourceId source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(source);
  if (it == streams_.end()) {
    return Status::NotFound("stream s" + std::to_string(source) +
                            " is not registered");
  }
  StreamInfo& info = it->second;
  if (!info.inputs.empty()) {
    return Status::FailedPrecondition("a hosted query reads stream s" +
                                      std::to_string(source));
  }
  if (info.owner != nullptr) {
    TCQ_RETURN_IF_ERROR(info.owner->DropStream(
        source, [&](const ShardedClass::RemapMap& m) { ApplyRemap(m); }));
    classes_[info.owner_class].streams &= ~SourceBit(source);
  }
  const uint64_t dropped = info.dropped->Value() - info.dropped_base;
  streams_.erase(it);
  return dropped;
}

size_t Executor::CountLiveClasses() const {
  return std::count_if(classes_.begin(), classes_.end(),
                       [](const QueryClass& qc) { return qc.live; });
}

size_t Executor::QueriesIn(size_t cls) const {
  return std::count_if(queries_.begin(), queries_.end(), [cls](const auto& q) {
    return q.second.query_class == cls;
  });
}

void Executor::ApplyRemap(const ShardedClass::RemapMap& remap) {
  for (const auto& [gid, local] : remap) {
    auto it = queries_.find(gid);
    assert(it != queries_.end() && "re-partition remapped an unknown query");
    if (it != queries_.end()) it->second.local_id = local;
  }
}

void Executor::MergeClassesInto(size_t dst, const std::vector<size_t>& srcs,
                                const CQSpec& bridging) {
  QueryClass& d = classes_[dst];
  std::vector<ShardedClass*> absorbed;
  for (size_t src : srcs) {
    assert(classes_[src].live && src != dst);
    absorbed.push_back(classes_[src].sc.get());
  }
  d.sc->Absorb(absorbed, bridging,
               [&](const ShardedClass::RemapMap& m) { ApplyRemap(m); });
  for (auto& [gid, qi] : queries_) {
    if (std::find(srcs.begin(), srcs.end(), qi.query_class) != srcs.end()) {
      qi.query_class = dst;
    }
  }
  for (size_t src : srcs) {
    QueryClass& s = classes_[src];
    ForEachSource(s.streams, [&](SourceId stream) {
      auto it = streams_.find(stream);
      assert(it != streams_.end());
      it->second.owner_class = dst;
      it->second.owner = d.sc;
    });
    d.streams |= s.streams;
    s.sc.reset();
    s.live = false;
    s.streams = 0;
    merges_->Inc();
  }
  classes_gauge_->Set(static_cast<int64_t>(CountLiveClasses()));
}

void Executor::GcClass(size_t cls) {
  QueryClass& qc = classes_[cls];
  assert(qc.live);
  // Shutdown detaches every shard DU, closes all stream producers, and
  // drops the replicas.
  qc.sc->Shutdown();
  ForEachSource(qc.streams, [&](SourceId stream) {
    auto it = streams_.find(stream);
    if (it == streams_.end()) return;
    it->second.owner.reset();
    it->second.owner_class = SIZE_MAX;
  });
  qc.sc.reset();
  qc.live = false;
  qc.streams = 0;
  gcs_->Inc();
  classes_gauge_->Set(static_cast<int64_t>(CountLiveClasses()));
}

size_t Executor::LeastLoadedEo() const {
  size_t best = 0;
  for (size_t e = 1; e < eos_.size(); ++e) {
    if (eos_[e]->num_dus() < eos_[best]->num_dus()) best = e;
  }
  return best;
}

size_t Executor::ClassFor(const CQSpec& spec) {
  // Which live classes does the footprint touch?
  SourceSet footprint = spec.Footprint();
  std::vector<size_t> touching;
  SourceSet owned = 0;
  for (size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].live && (classes_[c].streams & footprint)) {
      touching.push_back(c);
      owned |= classes_[c].streams;
    }
  }

  size_t class_idx;
  if (touching.empty()) {
    // New class, placed on the least-loaded EO (the rebalance pass revisits
    // this later).
    size_t label = next_class_label_++;
    ShardedClass::Options sc_opts;
    sc_opts.shards = opts_.shards;
    sc_opts.quantum = opts_.quantum;
    sc_opts.queue_capacity = opts_.queue_capacity;
    sc_opts.skew_threshold = opts_.shard_skew_threshold;
    sc_opts.min_skew_volume = opts_.shard_min_skew_volume;
    sc_opts.replication = opts_.shard_replication;
    sc_opts.seed = opts_.seed + label;
    std::vector<ExecutionObject*> eo_ptrs;
    eo_ptrs.reserve(eos_.size());
    for (auto& eo : eos_) eo_ptrs.push_back(eo.get());
    QueryClass qc;
    qc.sc = std::make_shared<ShardedClass>(
        "class" + std::to_string(label), sc_opts, std::move(eo_ptrs),
        metrics_, tracer_);
    qc.live = true;
    size_t eo = LeastLoadedEo();
    qc.sc->set_shard_eo(0, eo);
    classes_.push_back(std::move(qc));
    class_idx = classes_.size() - 1;
    eos_[eo]->AddDispatchUnit(classes_[class_idx].sc->shard_du(0));
    classes_gauge_->Set(static_cast<int64_t>(CountLiveClasses()));
  } else {
    class_idx = touching.front();
  }

  // Claim any footprint streams no touched class consumes — before a merge,
  // so its one re-partition keys them too.
  QueryClass& qc = classes_[class_idx];
  ForEachSource(footprint & ~owned, [&](SourceId s) {
    auto it = streams_.find(s);
    assert(it != streams_.end());
    StreamInfo& info = it->second;
    // Any class owning a footprint stream is in `touching`, so unclaimed is
    // the only possibility left.
    assert(info.owner_class == SIZE_MAX && "stream owned by a merged class");
    qc.sc->ClaimStream(s, info.schema, info.stem_opts);
    info.owner = qc.sc;
    info.owner_class = class_idx;
    qc.streams |= SourceBit(s);
  });
  // The paper's §4.2.2 open issue, closed: a bridging footprint MERGES
  // every touched class into the first one.
  if (touching.size() > 1) {
    MergeClassesInto(class_idx, {touching.begin() + 1, touching.end()}, spec);
  }
  return class_idx;
}

Status Executor::Claim(SourceSet sources, GlobalQueryId* id) {
  Status unknown = Status::OK();
  ForEachSource(sources, [&](SourceId s) {
    if (unknown.ok() && !streams_.contains(s)) {
      unknown = Status::NotFound("stream s" + std::to_string(s) +
                                 " is not registered");
    }
  });
  if (!unknown.ok()) return unknown;
  if (*id == 0) *id = next_query_id_;
  if (queries_.contains(*id)) {
    return Status::AlreadyExists("query id " + std::to_string(*id) +
                                 " is taken");
  }
  next_query_id_ = std::max(next_query_id_, *id + 1);
  return Status::OK();
}

Result<GlobalQueryId> Executor::SubmitQuery(const CQSpec& spec, Sink sink,
                                            GlobalQueryId gid) {
  SourceSet footprint = spec.Footprint();
  if (footprint == 0) {
    return Status::InvalidArgument("query has an empty footprint");
  }
  // mu_ is held across admission: the wait inside AdmitQuery is serviced by
  // EO threads (or the inline Step pre-start), and EO threads never take
  // mu_ — so a concurrent merge/GC cannot remap the class between the eddy
  // admitting the query and queries_ recording its (class, local id).
  std::lock_guard<std::mutex> lock(mu_);
  TCQ_RETURN_IF_ERROR(Claim(footprint, &gid));
  size_t class_idx = ClassFor(spec);

  Result<QueryId> local = classes_[class_idx].sc->AdmitQuery(
      spec, gid, std::move(sink), started_,
      [&](const ShardedClass::RemapMap& m) { ApplyRemap(m); });
  if (!local.ok()) {
    // If admission left the class without any query (e.g. a class freshly
    // created for this footprint), reclaim it right away.
    if (QueriesIn(class_idx) == 0 && classes_[class_idx].live) {
      GcClass(class_idx);
    }
    return local.status();
  }
  queries_[gid] = QueryInfo{class_idx, *local, nullptr};
  return gid;
}

Result<GlobalQueryId> Executor::HostQuery(const DuFactory& build,
                                          const std::vector<SourceId>& inputs,
                                          GlobalQueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  SourceSet sources = 0;
  for (SourceId s : inputs) sources |= SourceBit(s);
  TCQ_RETURN_IF_ERROR(Claim(sources, &id));
  std::shared_ptr<WindowedQueryDispatchUnit> du = build(id);
  du->set_tracer(tracer_);
  Counter* dropped = metrics_->GetCounter(MetricName(
      "tcq_window_input_dropped_total", "query", "q" + std::to_string(id)));
  for (SourceId s : inputs) {
    auto endpoints = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                                 "win:s" + std::to_string(s), metrics_.get());
    du->AddInput(s, endpoints.consumer);
    streams_[s].inputs.push_back(
        HostedInput{id, du, endpoints.producer, dropped});
  }
  eos_[LeastLoadedEo()]->AddDispatchUnit(du);
  queries_[id] = QueryInfo{SIZE_MAX, 0, std::move(du)};
  return id;
}

Status Executor::BackfillQuery(GlobalQueryId id, TupleBatch batch) {
  std::vector<TupleBatch> push;
  push.push_back(std::move(batch));
  return Admit(std::move(push), id,
               std::chrono::steady_clock::now() + std::chrono::seconds(10));
}

Status Executor::RemoveQuery(GlobalQueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  if (std::shared_ptr<DispatchUnit> du = std::move(it->second.du)) {
    queries_.erase(it);
    // The quiesce point: once detached no EO steps the DU again. A DU that
    // already retired (kDone) is hosted nowhere, so every EO says no.
    for (auto& eo : eos_) {
      if (eo->RemoveDispatchUnit(du)) break;
    }
    // Only then close its inputs: a DU still stepped would read the close
    // as end-of-stream and fire every window it holds open.
    for (auto& [source, info] : streams_) {
      std::erase_if(info.inputs, [id](HostedInput& in) {
        if (in.query != id) return false;
        in.producer.Close();
        return true;
      });
    }
    return Status::OK();
  }
  size_t cls = it->second.query_class;
  QueryId local = it->second.local_id;
  queries_.erase(it);
  if (QueriesIn(cls) > 0) {
    classes_[cls].sc->RemoveQuery(local);
    return Status::OK();
  }
  // Last query of the class: GC it — DUs, eddies, SteMs, and fjords all go;
  // the streams are freed for a later query to re-claim.
  GcClass(cls);
  return Status::OK();
}

Status Executor::IngestTuple(SourceId source, const Tuple& tuple) {
  TupleBatch batch(source);
  batch.push_back(tuple);
  return IngestBatch(std::move(batch));
}

Status Executor::IngestBatch(TupleBatch batch) {
  std::vector<TupleBatch> push;
  push.push_back(std::move(batch));
  return IngestBatch(std::move(push));
}

Status Executor::IngestBatch(std::vector<TupleBatch> push) {
  return Admit(std::move(push), 0,
               std::chrono::steady_clock::now() + kAdmitWait);
}

Status Executor::Admit(std::vector<TupleBatch> push, GlobalQueryId only,
                       std::chrono::steady_clock::time_point deadline) {
  std::erase_if(push, [](const TupleBatch& b) {
    return b.empty() && b.punctuations().empty();
  });
  if (push.empty()) return Status::OK();
  // Producer-side enqueue span: timed across the wait for room, so its
  // duration shows blocked producers (the consumer-side wait is kQueueWait).
  const bool sampled = tracer_ != nullptr && tracer_->ShouldSample();
  const int64_t t0 = sampled ? NowMicros() : 0;
  const SourceId traced = push.front().source();
  Refusal refusal;
  do {
    refusal = Refusal();
    std::lock_guard<std::mutex> lock(mu_);
    Status st = AdmitLocked(&push, only, &refusal);
    if (refusal.fjord.has_value()) continue;
    if (st.ok() && sampled) {
      tracer_->Record(obs::SpanKind::kQueueEnqueue, traced, 0, t0,
                      NowMicros() - t0);
    }
    return st;
  } while (running() ? refusal.fjord->AwaitRoom(refusal.weight, deadline)
                     // Before Start() only a backfill's inline steps drain.
                     : only != 0 &&
                           std::chrono::steady_clock::now() < deadline &&
                           WaitQuiescent(deadline).ok());
  const size_t rows = push.front().size();
  refusal.stream_dropped->Inc(rows);
  refusal.counter->Inc(rows);
  return Status::ResourceExhausted(
      "push of " + std::to_string(rows) + " tuple(s) into s" +
      std::to_string(push.front().source()) + " refused: " + refusal.who +
      " had no room");
}

Status Executor::AdmitLocked(std::vector<TupleBatch>* push,
                             GlobalQueryId only, Refusal* refusal) {
  // 1. Resolve. A source nothing consumes drops its batch, loudly.
  auto targeted = [only](const HostedInput& in) {
    return only == 0 || in.query == only;
  };
  std::vector<StreamInfo*> infos;
  Status unrouted = Status::OK();
  for (auto b = push->begin(); b != push->end();) {
    auto it = streams_.find(b->source());
    if (it == streams_.end()) {
      return Status::NotFound("stream s" + std::to_string(b->source()) +
                              " is not registered");
    }
    StreamInfo& info = it->second;
    const bool hosted = std::any_of(info.inputs.begin(), info.inputs.end(),
                                    targeted);
    if (only != 0 && !hosted) {
      return Status::NotFound("no query " + std::to_string(only) +
                              " input on s" + std::to_string(b->source()));
    }
    if (info.owner == nullptr && !hosted) {
      dropped_unrouted_->Inc(b->size());
      info.dropped->Inc(b->size());
      unrouted = Status::FailedPrecondition(
          "stream s" + std::to_string(b->source()) +
          " is not consumed by any active query class; " +
          std::to_string(b->size()) + " tuple(s) dropped");
      b = push->erase(b);
      continue;
    }
    infos.push_back(&info);
    ++b;
  }
  if (push->empty()) return unrouted;

  // 2. Room in every target. Every producer of these fjords and every
  //    structural change of the classes runs under mu_, so the room found
  //    here only grows until step 3. A finished DU's input is no target.
  auto live = [&](const HostedInput& in) {
    return targeted(in) && !in.du->done();
  };
  Counter* stream_dropped = infos.front()->dropped;
  for (size_t i = 0; i < push->size(); ++i) {
    const TupleBatch& b = (*push)[i];
    StreamInfo& info = *infos[i];
    if (only == 0 && info.owner != nullptr) {
      ShardedClass::Full full;
      QueueOp op = info.owner->Check(b, &full);
      if (op == QueueOp::kClosed) {
        info.dropped->Inc(b.size());
        return Status::FailedPrecondition(
            "stream s" + std::to_string(b.source()) + " is closed");
      }
      if (op == QueueOp::kWouldBlock) {
        *refusal = Refusal{*full.fjord, full.weight, dropped_backpressure_,
                           stream_dropped,
                           "shard " + std::to_string(full.shard) + " of " +
                               info.owner->label()};
        return Status::OK();
      }
    }
    const size_t weight = b.size() + b.punctuations().size();
    for (HostedInput& in : info.inputs) {  // a closed one takes nothing
      if (live(in) && in.producer.CheckRoom(weight) == QueueOp::kWouldBlock) {
        *refusal = Refusal{in.producer, weight, in.dropped, stream_dropped,
                           "query " + std::to_string(in.query) + "'s input"};
        return Status::OK();
      }
    }
  }

  // 3. Produce: copies to the hosted inputs, the batch to the class.
  for (size_t i = 0; i < push->size(); ++i) {
    TupleBatch& b = (*push)[i];
    for (HostedInput& in : infos[i]->inputs) {
      if (!live(in)) continue;
      TupleBatch copy = b;
      (void)in.producer.ProduceBatch(&copy);
    }
    if (only == 0 && infos[i]->owner != nullptr) infos[i]->owner->Produce(&b);
  }
  return Status::OK();
}

uint64_t Executor::stream_tuples_dropped(SourceId source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(source);
  if (it == streams_.end()) return 0;
  return it->second.dropped->Value() - it->second.dropped_base;
}

Timestamp Executor::stream_watermark(SourceId source) const {
  std::shared_ptr<ShardedClass> sc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(source);
    if (it == streams_.end() || it->second.owner == nullptr) {
      return kMinTimestamp;
    }
    sc = it->second.owner;
  }
  return sc->merged_watermark(source);
}

Status Executor::CloseStream(SourceId source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(source);
  if (it == streams_.end()) {
    return Status::NotFound("stream s" + std::to_string(source) +
                            " is not registered");
  }
  if (it->second.owner != nullptr) it->second.owner->CloseStream(source);
  for (HostedInput& in : it->second.inputs) in.producer.Close();
  return Status::OK();
}

bool Executor::RebalanceLocked() {
  if (eos_.size() < 2) return false;
  // Per-EO load = recent progress (quanta that did work) of its live shard
  // DUs since the previous pass; per-shard deltas double as the "busiest
  // DU" ranking.
  std::vector<uint64_t> load(eos_.size(), 0);
  std::vector<size_t> hosted(eos_.size(), 0);
  struct Candidate {
    size_t cls;
    size_t shard;
    uint64_t delta;
  };
  std::vector<Candidate> cands;
  for (size_t c = 0; c < classes_.size(); ++c) {
    QueryClass& qc = classes_[c];
    if (!qc.live) continue;
    for (size_t k = 0; k < qc.sc->num_shards(); ++k) {
      uint64_t delta = qc.sc->TakeProgressDelta(k);
      size_t eo = qc.sc->shard_eo(k);
      load[eo] += delta;
      ++hosted[eo];
      cands.push_back({c, k, delta});
    }
  }
  size_t max_eo = 0;
  size_t min_eo = 0;
  for (size_t e = 1; e < eos_.size(); ++e) {
    if (load[e] > load[max_eo]) max_eo = e;
    if (load[e] < load[min_eo] ||
        (load[e] == load[min_eo] && hosted[e] < hosted[min_eo])) {
      min_eo = e;
    }
  }
  if (max_eo == min_eo || hosted[max_eo] < 2) return false;
  // Migrate only when the most-loaded EO's recent progress exceeds twice
  // the least-loaded EO's.
  constexpr double kImbalance = 2.0;
  double floor = static_cast<double>(std::max<uint64_t>(load[min_eo], 1));
  if (static_cast<double>(load[max_eo]) <= kImbalance * floor) {
    return false;
  }
  if (started_ && !eos_[min_eo]->running()) return false;  // EO retired
  // Migrate the busiest shard DU off the most-loaded EO.
  const Candidate* busiest = nullptr;
  for (const Candidate& cand : cands) {
    if (classes_[cand.cls].sc->shard_eo(cand.shard) != max_eo) continue;
    if (busiest == nullptr || cand.delta > busiest->delta) busiest = &cand;
  }
  if (busiest == nullptr || busiest->delta == 0) return false;
  // Anti-thrash gate: move only if it strictly lowers the peak load.
  // Moving a DU that carries most of its EO's load onto the least-loaded
  // EO would just relocate the hot spot (and ping-pong on the next pass).
  uint64_t src_after = load[max_eo] - busiest->delta;
  uint64_t dst_after = load[min_eo] + busiest->delta;
  if (std::max(src_after, dst_after) >= load[max_eo]) return false;
  ShardedClass* sc = classes_[busiest->cls].sc.get();
  // Quiesce at a quantum boundary, then re-home. The DU's fjords and eddy
  // state move untouched — only the thread stepping it changes.
  auto du = sc->shard_du(busiest->shard);
  eos_[max_eo]->RemoveDispatchUnit(du);
  sc->set_shard_eo(busiest->shard, min_eo);
  eos_[min_eo]->AddDispatchUnit(du);
  migrations_->Inc();
  return true;
}

bool Executor::SkewLocked() {
  bool any = false;
  for (size_t c = 0; c < classes_.size(); ++c) {
    QueryClass& qc = classes_[c];
    if (!qc.live) continue;
    if (qc.sc->MaybeRepartitionForSkew(
            [&](const ShardedClass::RemapMap& m) { ApplyRemap(m); })) {
      any = true;
    }
  }
  return any;
}

bool Executor::RebalanceOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  return RebalanceLocked();
}

bool Executor::RepartitionSkewedOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  return SkewLocked();
}

Status Executor::FailShard(size_t class_id, size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (class_id >= classes_.size() || !classes_[class_id].live) {
    return Status::InvalidArgument("no live query class " +
                                   std::to_string(class_id));
  }
  return classes_[class_id].sc->FailShard(
      shard, [&](const ShardedClass::RemapMap& m) { ApplyRemap(m); });
}

uint64_t Executor::class_repartitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const QueryClass& qc : classes_) {
    if (qc.live) n += qc.sc->repartitions();
  }
  return n;
}

bool Executor::Quiescent() {
  std::vector<uint64_t> seqs(eos_.size());
  for (size_t e = 0; e < eos_.size(); ++e) {
    if (!eos_[e]->running()) {
      // mu_ serializes this with every other inline stepper (pre-start
      // admission steps DUs under it too).
      std::lock_guard<std::mutex> lock(mu_);
      eos_[e]->StepUntilIdle();
    } else if (!eos_[e]->Parked(&seqs[e])) {
      return false;
    }
  }
  // Second look: an EO signalled (and maybe re-parked) after the first one
  // shows a moved sequence.
  for (size_t e = 0; e < eos_.size(); ++e) {
    uint64_t seq = 0;
    if (eos_[e]->running() && (!eos_[e]->Parked(&seq) || seq != seqs[e])) {
      return false;
    }
  }
  return true;
}

Status Executor::WaitQuiescent(std::chrono::steady_clock::time_point deadline) {
  // Every EO signals parked_ as it parks or stops, so each re-check follows
  // a change of state, never a timer.
  if (parked_.AwaitUntil([this] { return Quiescent(); }, deadline)) {
    return Status::OK();
  }
  return Status::TimedOut(
      "executor did not quiesce before the deadline (a DU is still running; "
      "egress back-pressure?)");
}

Status Executor::ForEachHostedDetached(
    const std::function<Status(WindowedQueryDispatchUnit*)>& fn) {
  for (auto& [id, qi] : queries_) {
    if (qi.du == nullptr) continue;
    // A DU that retired (kDone) is hosted nowhere: every EO says no.
    ExecutionObject* host = nullptr;
    for (auto& eo : eos_) {
      if (eo->RemoveDispatchUnit(qi.du)) {
        host = eo.get();
        break;
      }
    }
    Status st = fn(qi.du.get());
    if (host != nullptr) host->AddDispatchUnit(qi.du);
    TCQ_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Status Executor::CheckpointTo(CheckpointWriter* w) {
  // Queued tuples sit BELOW the spool's recorded replay position, so a
  // snapshot taken while any is queued would lose it: drain first. Ingest
  // is blocked by the caller, so only a back-pressured egress can stall it.
  TCQ_RETURN_IF_ERROR(WaitQuiescent(std::chrono::steady_clock::now() +
                                    std::chrono::seconds(10)));
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginSection("executor", 2);
  w->PutU32(static_cast<uint32_t>(CountLiveClasses()));
  w->PutU32(static_cast<uint32_t>(QueriesIn(SIZE_MAX)));
  w->EndSection();
  for (QueryClass& qc : classes_) {
    if (!qc.live) continue;
    TCQ_RETURN_IF_ERROR(qc.sc->CheckpointTo(w));
  }
  return ForEachHostedDetached([w](WindowedQueryDispatchUnit* du) {
    WriteCheckpointSection(w, du->runner());
    return Status::OK();
  });
}

Status Executor::RestoreClass(CheckpointReader* r, uint64_t* replayed) {
  TCQ_ASSIGN_OR_RETURN(CheckpointReader::Section sec, r->BeginSection());
  if (sec.tag != "class" || sec.version != 2) {
    return Status::IOError("expected a v2 'class' checkpoint section, found '" +
                           sec.tag + "' v" + std::to_string(sec.version));
  }
  uint32_t nbuckets = 0;
  TCQ_ASSIGN_OR_RETURN(nbuckets, r->GetU32());
  if (nbuckets != ShardedClass::kBuckets) {
    return Status::IOError("class section maps " + std::to_string(nbuckets) +
                           " buckets, not " +
                           std::to_string(ShardedClass::kBuckets));
  }
  std::vector<uint32_t> owners(nbuckets);
  for (uint32_t b = 0; b < nbuckets; ++b) {
    TCQ_ASSIGN_OR_RETURN(owners[b], r->GetU32());
  }
  // The section's state goes to every class that now owns one of its route
  // sources: re-submitting the live queries reproduces the recorded class
  // unless a bridging query was cancelled before the checkpoint, in which
  // case it restores as several. Each places the entries of the streams it
  // routes (a stream no class re-claimed drops its entries).
  ShardedClass::StemEntries entries;
  std::set<size_t> owning;
  uint32_t nroutes = 0;
  TCQ_ASSIGN_OR_RETURN(nroutes, r->GetU32());
  for (uint32_t i = 0; i < nroutes; ++i) {
    uint32_t source = 0;
    TCQ_ASSIGN_OR_RETURN(source, r->GetU32());
    if (auto it = streams_.find(source);
        it != streams_.end() && it->second.owner != nullptr) {
      owning.insert(it->second.owner_class);
    }
    uint64_t n = 0;
    TCQ_ASSIGN_OR_RETURN(n, r->GetU64());
    std::vector<StemEntry>& list = entries[static_cast<SourceId>(source)];
    for (uint64_t e = 0; e < n; ++e) {
      StemEntry& entry = list.emplace_back();
      TCQ_ASSIGN_OR_RETURN(entry.tuple, r->GetTuple());
      TCQ_ASSIGN_OR_RETURN(entry.seq, r->GetI64());
    }
  }
  Timestamp horizon = 0;
  TCQ_ASSIGN_OR_RETURN(horizon, r->GetTimestamp());
  for (size_t cls : owning) {
    *replayed += classes_[cls].sc->Restore(owners, entries, horizon);
  }
  return r->EndSection();
}

Result<uint64_t> Executor::RestoreFrom(CheckpointReader* r) {
  std::lock_guard<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(CheckpointReader::Section sec, r->BeginSection());
  if (sec.tag != "executor" || sec.version != 2) {
    return Status::IOError("expected a v2 'executor' checkpoint section, "
                           "found '" + sec.tag + "' v" +
                           std::to_string(sec.version));
  }
  uint32_t nclasses = 0;
  TCQ_ASSIGN_OR_RETURN(nclasses, r->GetU32());
  uint32_t nhosted = 0;
  TCQ_ASSIGN_OR_RETURN(nhosted, r->GetU32());
  TCQ_RETURN_IF_ERROR(r->EndSection());
  if (nhosted != QueriesIn(SIZE_MAX)) {
    return Status::IOError("the checkpoint holds " + std::to_string(nhosted) +
                           " windowed runners, but " +
                           std::to_string(QueriesIn(SIZE_MAX)) +
                           " windowed queries were re-submitted");
  }
  uint64_t replayed = 0;
  for (uint32_t c = 0; c < nclasses; ++c) {
    TCQ_RETURN_IF_ERROR(RestoreClass(r, &replayed));
  }
  TCQ_RETURN_IF_ERROR(ForEachHostedDetached(
      [r](WindowedQueryDispatchUnit* du) {
        return ReadCheckpointSection(r, du->mutable_runner());
      }));
  return replayed;
}

void Executor::RebalanceLoop(std::stop_token stop) {
  const auto interval = std::chrono::milliseconds(opts_.rebalance_interval_ms);
  while (!WaitUntilOrStopped(stop, std::chrono::steady_clock::now() + interval)) {
    std::lock_guard<std::mutex> lock(mu_);
    (void)RebalanceLocked();
    (void)SkewLocked();
  }
}

void Executor::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
  }
  for (auto& eo : eos_) eo->Start();
  if (opts_.rebalance && eos_.size() > 1) {
    rebalance_thread_ =
        std::jthread([this](std::stop_token stop) { RebalanceLoop(stop); });
  }
}

void Executor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  rebalance_thread_.request_stop();
  if (rebalance_thread_.joinable()) rebalance_thread_.join();
  for (auto& eo : eos_) eo->Stop();
}

bool Executor::running() const {
  return std::any_of(eos_.begin(), eos_.end(),
                     [](const auto& eo) { return eo->running(); });
}

size_t Executor::num_classes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CountLiveClasses();
}

std::vector<Executor::ClassInfo> Executor::Topology() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClassInfo> out;
  for (size_t c = 0; c < classes_.size(); ++c) {
    const QueryClass& qc = classes_[c];
    if (!qc.live) continue;
    ClassInfo info;
    info.id = c;
    info.name = qc.sc->label();
    info.eo = qc.sc->shard_eo(0);
    info.streams = qc.streams;
    info.shards = qc.sc->num_shards();
    info.num_queries = QueriesIn(c);
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace tcq
