#include "server/telegraphcq.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>

namespace tcq {

// --- WindowResultBuffer -------------------------------------------------------

void WindowResultBuffer::Push(WindowResult result) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (result.kind) {
    case WindowResultKind::kFinal:
      // Only sealed windows count as fired; speculative revisions of the
      // same window would otherwise inflate the count arbitrarily.
      ++fired_;
      if (fired_counter_ != nullptr) fired_counter_->Inc();
      [[fallthrough]];
    case WindowResultKind::kSpeculative:
      tuples_ += result.tuples.size();
      if (tuples_counter_ != nullptr) {
        tuples_counter_->Inc(result.tuples.size());
      }
      break;
    case WindowResultKind::kRetraction:
      retractions_ += result.tuples.size();
      if (retractions_counter_ != nullptr) {
        retractions_counter_->Inc(result.tuples.size());
      }
      break;
  }
  results_.push_back(std::move(result));
}

void WindowResultBuffer::AttachMetrics(Counter* windows_fired,
                                       Counter* tuples,
                                       Counter* retractions) {
  std::lock_guard<std::mutex> lock(mu_);
  fired_counter_ = windows_fired;
  tuples_counter_ = tuples;
  retractions_counter_ = retractions;
}

uint64_t WindowResultBuffer::windows_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

uint64_t WindowResultBuffer::tuples_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tuples_;
}

uint64_t WindowResultBuffer::retractions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retractions_;
}

bool WindowResultBuffer::Poll(WindowResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (results_.empty()) return false;
  *out = std::move(results_.front());
  results_.pop_front();
  return true;
}

bool WindowResultBuffer::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_ && results_.empty();
}

void WindowResultBuffer::MarkFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
}

// --- TelegraphCQ ---------------------------------------------------------------

TelegraphCQ::TelegraphCQ(Options opts, MetricsRegistryRef metrics)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::make_shared<obs::Tracer>(opts.trace, metrics_)),
      executor_(opts.executor, metrics_, tracer_),
      wrapper_(opts.wrapper, metrics_, tracer_) {
  ingested_ = metrics_->GetCounter("tcq_server_tuples_ingested_total");
  ckpt_epochs_ = metrics_->GetCounter("tcq_checkpoint_epochs_total");
  ckpt_bytes_ = metrics_->GetCounter("tcq_checkpoint_bytes");
  ckpt_failures_ = metrics_->GetCounter("tcq_checkpoint_failures_total");
  ckpt_duration_us_ = metrics_->GetGauge("tcq_checkpoint_duration_us");
  restore_replayed_ = metrics_->GetCounter("tcq_restore_replay_tuples");
  restore_duration_us_ = metrics_->GetGauge("tcq_restore_duration_us");
  if (opts_.system_streams.enabled) {
    // The reserved streams exist from construction on, so clients can submit
    // queries over them before Start(). Registration cannot fail here: the
    // catalog is empty and the names are unreachable through the public API.
    (void)DefineStreamInternal(obs::SystemStreamSource::kMetricsStream,
                               obs::SystemStreamSource::MetricsSchema());
    (void)DefineStreamInternal(obs::SystemStreamSource::kQueuesStream,
                               obs::SystemStreamSource::QueuesSchema());
    (void)DefineStreamInternal(obs::SystemStreamSource::kLatencyStream,
                               obs::SystemStreamSource::LatencySchema());
    system_streams_ = std::make_unique<obs::SystemStreamSource>(
        opts_.system_streams, metrics_, tracer_,
        [this](const std::string& stream,
               std::vector<obs::SystemStreamSource::Row> rows,
               Timestamp tick) {
          // Columnar-native publishing via the builder API; rows the
          // publisher races against shutdown are dropped by the typed
          // Status (never silently mid-batch).
          Result<BatchBuilder> batch = NewBatch(stream);
          if (!batch.ok()) return;
          for (auto& row : rows) {
            (void)batch->Append(tick, std::move(row.values));
          }
          (void)PushBuilt(std::move(*batch));
        });
  }
}

TelegraphCQ::~TelegraphCQ() { Stop(); }

Result<SourceId> TelegraphCQ::DefineStream(const std::string& name,
                                           const std::vector<Field>& fields) {
  return DefineStream(name, fields, StreamOptions());
}

Result<SourceId> TelegraphCQ::DefineStream(const std::string& name,
                                           const std::vector<Field>& fields,
                                           StreamOptions stream_opts) {
  if (name.rfind("tcq$", 0) == 0) {
    return Status::InvalidArgument(
        "stream names starting with 'tcq$' are reserved for introspection "
        "streams");
  }
  TCQ_ASSIGN_OR_RETURN(SourceId source, DefineStreamInternal(name, fields));
  if (stream_opts.punctuate) {
    std::lock_guard<std::mutex> lock(mu_);
    PhysicalStream& stream = streams_[name];
    stream.event_time = stream_opts;
    stream.late = metrics_->GetCounter(
        MetricName("tcq_wrapper_late_tuples_total", "stream", name));
  }
  return source;
}

Result<SourceId> TelegraphCQ::DefineStreamInternal(
    const std::string& name, const std::vector<Field>& fields,
    std::optional<SourceId> restore_id) {
  std::lock_guard<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(SourceId source,
                       catalog_.DefineStream(name, fields, restore_id));
  TCQ_ASSIGN_OR_RETURN(Catalog::StreamEntry entry, catalog_.Lookup(name));
  PhysicalStream stream;
  stream.name = name;
  stream.canonical = source;
  stream.schema = entry.schema;
  stream.ingested = metrics_->GetCounter(
      MetricName("tcq_server_stream_ingested_total", "stream", name));
  stream.spool_failed = metrics_->GetCounter(
      MetricName("tcq_server_spool_append_failed_total", "stream", name));
  if (!opts_.spool_dir.empty()) {
    const std::string path = opts_.spool_dir + "/" + name + ".log";
    if (restore_id.has_value()) {
      // Restore path: keep the archived history and append past it. A
      // missing file (stream spooled for the first time) falls back to
      // a fresh store.
      Result<std::unique_ptr<StreamStore>> opened =
          StreamStore::Open(path, entry.schema);
      if (opened.ok()) {
        stream.spool = std::move(*opened);
      } else if (opened.status().code() == StatusCode::kNotFound) {
        TCQ_ASSIGN_OR_RETURN(stream.spool,
                             StreamStore::Create(path, entry.schema));
      } else {
        return opened.status();
      }
    } else {
      TCQ_ASSIGN_OR_RETURN(stream.spool,
                           StreamStore::Create(path, entry.schema));
    }
  }
  streams_[name] = std::move(stream);
  TCQ_RETURN_IF_ERROR(executor_.RegisterStream(source, entry.schema));
  return source;
}

Status TelegraphCQ::AttachSource(const std::string& stream_name,
                                 std::unique_ptr<StreamSource> source,
                                 std::unique_ptr<ArrivalProcess> arrivals) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + stream_name + "'");
  }
  if (started_) {
    return Status::FailedPrecondition("attach sources before Start()");
  }
  FjordConsumer feed =
      wrapper_.HostPullSource(std::move(source), std::move(arrivals));
  feed.SetWake(&pump_wake_);
  it->second.wrapper_feeds.push_back(std::move(feed));
  return Status::OK();
}

void TelegraphCQ::RouteBatch(PhysicalStream* stream, const TupleBatch& batch,
                             bool spool) {
  if (batch.empty() && batch.punctuations().empty()) return;
  ingested_->Inc(batch.size());
  stream->ingested->Inc(batch.size());
  if (spool && stream->spool != nullptr) {
    // The spool is a row-shaped boundary: columnar batches materialize rows
    // here (and only here / SteM inserts / egress, DESIGN.md §11).
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!stream->spool->Append(batch.RowAt(i)).ok()) {
        stream->spool_failed->Inc();
      }
    }
  }
  // Columnarize once at the fabric entrance: every logical source below
  // (and the eddy prefilters downstream) shares this store by reference.
  const ColumnStore::Ref& cols = batch.columns();
  // The stream-level watermark lane, as VALUES: re-tagged under each
  // logical source below, exactly like the rows. A
  // punctuating stream derives the lane here at the entrance — the only
  // point that sees the merge of all attached feeds, so its max-timestamp
  // scan is authoritative where a single feed's heartbeat is not (incoming
  // per-feed heartbeats are dropped and re-derived). A plain stream passes
  // the producer's lane through untouched.
  std::vector<Timestamp> lane;
  if (stream->event_time.punctuate) {
    if (cols != nullptr) {
      const int64_t* ts = cols->timestamps();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (ts[i] < stream->last_punct) stream->late->Inc();
        if (ts[i] > stream->max_ts) stream->max_ts = ts[i];
      }
    } else {
      for (const Tuple& t : batch) {
        if (t.timestamp() < stream->last_punct) stream->late->Inc();
        if (t.timestamp() > stream->max_ts) stream->max_ts = t.timestamp();
      }
    }
    if (stream->max_ts != kMinTimestamp) {
      Timestamp wm = stream->max_ts - stream->event_time.disorder_bound;
      if (wm > stream->last_punct) {
        stream->last_punct = wm;
        lane.push_back(wm);
      }
    }
  } else {
    for (const Punctuation& p : batch.punctuations()) {
      lane.push_back(p.low_watermark);
    }
  }
  for (const auto& [logical, refs] : stream->logical) {
    // The canonical source takes a copy of the batch (cheap for columnar
    // batches: the store is shared by reference); a self-join alias takes
    // it re-tagged under its own schema, as a zero-copy view when columnar.
    const SchemaRef& schema = catalog_.LookupBySource(logical)->schema;
    TupleBatch routed(logical);
    if (cols != nullptr ? cols->schema() == schema : batch.empty()) {
      routed = batch;
      routed.set_source(logical);
      routed.ClearPunctuations();
    } else if (ColumnStore::Ref view = ColumnStore::Retagged(cols, schema)) {
      routed = TupleBatch(logical, std::move(view));
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        const Tuple t = batch.RowAt(i);
        routed.push_back(Tuple::Make(schema, t.values(), t.timestamp()));
      }
    }
    for (Timestamp wm : lane) routed.AddPunctuation(Punctuation{logical, wm});
    (void)executor_.IngestBatch(std::move(routed));
  }
}

Status TelegraphCQ::BatchBuilder::Append(Timestamp timestamp,
                                         std::vector<Value> values) {
  // Whole-row validation first so a rejected row leaves the lanes intact.
  TCQ_RETURN_IF_ERROR(schema()->Validate(values));
  cols_.AppendTimestamp(timestamp);
  for (size_t c = 0; c < values.size(); ++c) {
    bool ok = cols_.Append(c, std::move(values[c]));
    (void)ok;
    assert(ok && "Schema::Validate admitted a value the lane rejects");
  }
  return Status::OK();
}

Result<TelegraphCQ::BatchBuilder> TelegraphCQ::NewBatch(
    const std::string& stream_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + stream_name + "'");
  }
  if (it->second.closed) {
    return Status::FailedPrecondition("stream '" + stream_name +
                                      "' is closed");
  }
  return BatchBuilder(stream_name, it->second.schema);
}

Status TelegraphCQ::PushBuilt(BatchBuilder&& built) {
  if (built.num_rows() == 0) return Status::OK();
  ColumnStore::Ref cols = built.cols_.Finish();
  if (cols == nullptr) {
    // Unreachable through Append (it keeps lanes rectangular); kept as a
    // typed failure rather than an assert so a future builder extension
    // cannot turn it into a silent drop.
    return Status::InvalidArgument("batch builder lanes are ragged");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(built.stream_);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + built.stream_ + "'");
  }
  PhysicalStream& stream = it->second;
  if (stream.closed) {
    return Status::FailedPrecondition("stream '" + built.stream_ +
                                      "' is closed");
  }
  TupleBatch batch(stream.canonical, std::move(cols));
  RouteBatch(&stream, batch);
  return Status::OK();
}

Status TelegraphCQ::CloseStream(const std::string& stream_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + stream_name + "'");
  }
  it->second.closed = true;
  CloseLogicalLocked(it->second);
  return Status::OK();
}

void TelegraphCQ::CloseLogicalLocked(const PhysicalStream& stream) {
  // Class DUs drain to completion; windowed DUs see end-of-stream on their
  // inputs and fire the windows they still hold open.
  for (const auto& [logical, refs] : stream.logical) {
    (void)executor_.CloseStream(logical);
  }
}

void TelegraphCQ::RetainLocked(const ClientInfo& client) {
  for (const auto& [alias, source] : client.bindings) {
    const Catalog::StreamEntry* entry = catalog_.LookupBySource(source);
    // Registering a source twice is kAlreadyExists: aliases register once.
    (void)executor_.RegisterStream(source, entry->schema);
    ++streams_[entry->name].logical[source];
  }
}

void TelegraphCQ::ReleaseLocked(const ClientInfo& client) {
  for (const auto& [alias, source] : client.bindings) {
    auto& logical = streams_[catalog_.LookupBySource(source)->name].logical;
    auto it = logical.find(source);
    if (it != logical.end() && --it->second == 0) logical.erase(it);
  }
}

void TelegraphCQ::ReleaseAliases(const ClientInfo& client,
                                 std::unique_lock<std::mutex>* lock) {
  std::vector<Result<uint64_t>> dropped;
  for (SourceId alias : client.aliases) {
    dropped.push_back(executor_.UnregisterStream(alias));
  }
  if (!lock->owns_lock()) lock->lock();
  for (size_t i = 0; i < client.aliases.size(); ++i) {
    const SourceId alias = client.aliases[i];
    if (dropped[i].ok()) {
      streams_[catalog_.LookupBySource(alias)->name].released_dropped +=
          *dropped[i];
    } else if (dropped[i].status().code() != StatusCode::kNotFound) {
      continue;  // NotFound: the admission failed before registering it
    }
    (void)catalog_.ReleaseAlias(alias);
  }
}

void TelegraphCQ::ClientInfo::Record(const std::string& query_sql,
                                     const PlannedQuery& plan,
                                     bool speculate_windows) {
  sql = query_sql;
  speculate = speculate_windows;
  for (const auto& [alias, entry] : plan.bindings) {
    bindings.emplace_back(alias, entry.source);
    // Self-joins bind one physical stream under several aliases: its first
    // binding is the canonical source, the later ones alias ids.
    if (std::find(streams.begin(), streams.end(), entry.name) ==
        streams.end()) {
      streams.push_back(entry.name);
    } else {
      aliases.push_back(entry.source);
    }
  }
}

std::shared_ptr<PushEgress> TelegraphCQ::NewEgressLocked() {
  return std::make_shared<PushEgress>(
      PushEgress::Options{opts_.egress_capacity, opts_.egress_shed}, metrics_,
      "client" + std::to_string(next_client_label_++));
}

namespace {

/// A continuous client's delivery sink: projects a run of data tuples and
/// offers it to `egress` in one call. The shards of a query call their own
/// copies of it concurrently: each copy projects on its shard's EO thread
/// with its own Projection (whose schema cache is single-threaded), and
/// PushEgress is thread-safe.
Executor::Sink EgressSink(std::shared_ptr<PushEgress> egress,
                          std::optional<Projection> projection) {
  return [egress, projection](GlobalQueryId id,
                              const std::vector<Tuple>& run) {
    std::vector<Delivery> out;
    out.reserve(run.size());
    for (const Tuple& t : run) {
      // Punctuations (the class's merged watermark reaching the client)
      // have no columns to project; they pass through as-is.
      if (!projection.has_value() || !t.IsData()) {
        out.push_back(Delivery{id, t});
        continue;
      }
      auto p = projection->Apply(t);
      if (p.ok()) out.push_back(Delivery{id, std::move(*p)});
    }
    egress->OfferBatch(out);
  };
}

/// Re-plans checkpointed query `id` with its recorded alias bindings pinned;
/// kIOError unless the plan reproduces them.
Result<PlannedQuery> Replan(Catalog* catalog, GlobalQueryId id,
                            const std::string& sql,
                            const std::map<std::string, SourceId>& pinned) {
  TCQ_ASSIGN_OR_RETURN(ast::SelectStatement stmt, ParseQuery(sql));
  TCQ_ASSIGN_OR_RETURN(PlannedQuery plan, PlanQuery(stmt, catalog, &pinned));
  for (const auto& [alias, entry] : plan.bindings) {
    auto pin = pinned.find(alias);
    if (pin == pinned.end() || pin->second != entry.source) {
      return Status::IOError("restored plan for query " + std::to_string(id) +
                             " bound alias '" + alias +
                             "' to a different source than the checkpoint "
                             "recorded");
    }
  }
  return plan;
}

}  // namespace

Result<TelegraphCQ::ClientHandle> TelegraphCQ::Submit(const std::string& sql,
                                                      SubmitOptions sub_opts) {
  TCQ_ASSIGN_OR_RETURN(ast::SelectStatement stmt, ParseQuery(sql));
  std::unique_lock<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(PlannedQuery plan, PlanQuery(stmt, &catalog_));
  return AdmitLocked(&lock, sql, plan, sub_opts, 0);
}

Result<TelegraphCQ::ClientHandle> TelegraphCQ::AdmitLocked(
    std::unique_lock<std::mutex>* lock, const std::string& sql,
    const PlannedQuery& plan, const SubmitOptions& sub_opts,
    GlobalQueryId id) {
  ClientInfo client;
  client.Record(sql, plan, sub_opts.speculate);
  Result<GlobalQueryId> admitted = Status::InvalidArgument(
      "history_reach applies to windowed queries only (continuous queries "
      "have no windows to backfill)");
  if (plan.window_loop.has_value()) {
    admitted = AdmitWindowedLocked(plan, &client, sub_opts, id);
  } else if (sub_opts.history_reach == 0) {
    // Continuous query through the shared executor.
    client.egress = NewEgressLocked();
    RetainLocked(client);
    Executor::Sink sink = EgressSink(client.egress, plan.projection);
    lock->unlock();  // SubmitQuery blocks on admission; don't hold the mutex
    admitted = executor_.SubmitQuery(plan.spec, std::move(sink), id);
    lock->lock();
    if (!admitted.ok()) ReleaseLocked(client);
  }
  if (!admitted.ok()) {
    ReleaseAliases(client, lock);
    return admitted.status();
  }
  ClientHandle handle{*admitted, client.egress, client.windows};
  clients_[*admitted] = std::move(client);
  return handle;
}

Result<GlobalQueryId> TelegraphCQ::AdmitWindowedLocked(
    const PlannedQuery& plan, ClientInfo* client,
    const SubmitOptions& sub_opts, GlobalQueryId id) {
  if (sub_opts.history_reach != 0) {
    // Validate spooling up front so a failed backfill can only mean an
    // I/O or back-pressure fault, not a predictable misuse.
    for (const std::string& name : client->streams) {
      if (streams_[name].spool == nullptr) {
        return Status::FailedPrecondition(
            "history_reach requires spooled streams (set "
            "Options::spool_dir); stream '" +
            name + "' is not spooled");
      }
    }
  }
  auto buffer = std::make_shared<WindowResultBuffer>();
  auto projection = plan.projection;
  WindowedQuery wq;
  wq.loop = *plan.window_loop;
  wq.predicates = plan.all_predicates;
  // The query runs on event time when every bound stream punctuates:
  // watermarks then drive window firing and arrival order stops
  // mattering (up to each stream's disorder bound). A non-punctuating
  // stream has no watermark, so mixing would stall the loop forever.
  bool all_punctuate = true;
  for (const std::string& name : client->streams) {
    if (!streams_[name].event_time.punctuate) all_punctuate = false;
  }
  if (all_punctuate) wq.loop.semantics = TimeSemantics::kEvent;
  OnlineWindowRunner::Options runner_opts;
  runner_opts.speculate = sub_opts.speculate && all_punctuate;

  // One DU, hosted on the executor's EOs under an id from its query id
  // space; the executor feeds it one input per binding. Everything is wired
  // before the DU is hosted: once on an EO it is stepped concurrently.
  client->windows = buffer;
  std::vector<SourceId> inputs;
  for (const auto& [alias, source] : client->bindings) inputs.push_back(source);
  auto build = [&](GlobalQueryId wid) {
    std::string qlabel = "q" + std::to_string(wid);
    buffer->AttachMetrics(
        metrics_->GetCounter(
            MetricName("tcq_window_fired_total", "query", qlabel)),
        metrics_->GetCounter(
            MetricName("tcq_window_tuples_total", "query", qlabel)),
        metrics_->GetCounter(
            MetricName("tcq_window_retractions_total", "query", qlabel)));
    auto du = std::make_shared<WindowedQueryDispatchUnit>(
        "windowed" + std::to_string(wid), std::move(wq),
        [buffer, projection](const WindowResult& r) {
          if (!projection.has_value()) {
            buffer->Push(r);
            return;
          }
          WindowResult projected;
          projected.t = r.t;
          projected.kind = r.kind;
          projected.revision = r.revision;
          for (const Tuple& t : r.tuples) {
            // Project the values, then restore the revision tag: a
            // retraction must cancel the projected tuple it revises.
            auto p = projection->Apply(t);
            if (!p.ok()) continue;
            projected.tuples.push_back(
                t.IsRetraction() ? Tuple::Retraction(*p) : std::move(*p));
          }
          buffer->Push(std::move(projected));
        },
        /*quantum=*/64, runner_opts);
    // A completed loop finishes its client's buffer.
    du->set_on_done([buffer] { buffer->MarkFinished(); });
    return du;
  };
  RetainLocked(*client);
  Result<GlobalQueryId> wid = executor_.HostQuery(build, inputs, id);
  if (!wid.ok()) {
    ReleaseLocked(*client);
    return wid.status();
  }
  if (sub_opts.history_reach != 0) {
    Status backfill =
        BackfillWindowedLocked(*wid, *client, sub_opts.history_reach);
    if (!backfill.ok()) {
      // Roll the admission back: a failed backfill must not leave a
      // half-primed query running.
      ReleaseLocked(*client);
      (void)executor_.RemoveQuery(*wid);
      return backfill;
    }
  }
  // A stream that closed before this query existed will never deliver
  // end-of-stream to it: close those inputs now — after the backfill, so
  // a finished, spooled stream fires over its archive and then finishes.
  for (const std::string& name : client->streams) {
    if (streams_[name].closed) CloseLogicalLocked(streams_[name]);
  }
  return wid;
}

Result<std::vector<Tuple>> TelegraphCQ::ScanHistory(const std::string& name,
                                                    Timestamp l,
                                                    Timestamp r) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + name + "'");
  }
  if (it->second.spool == nullptr) {
    return Status::FailedPrecondition(
        "stream '" + name + "' is not spooled (set Options::spool_dir)");
  }
  WindowedScanner scanner(it->second.spool.get(), &spool_pool_);
  std::vector<Tuple> out;
  TCQ_RETURN_IF_ERROR(scanner.Scan(l, r, &out));
  return out;
}

// --- Durable state (DESIGN.md §13) -------------------------------------------

namespace {

/// A query's recorded (alias -> source id) bindings, as Checkpoint() writes
/// them and Restore() pins them.
void PutBindings(CheckpointWriter* w,
                 const std::vector<std::pair<std::string, SourceId>>& b) {
  w->PutU32(static_cast<uint32_t>(b.size()));
  for (const auto& [alias, source] : b) {
    w->PutString(alias);
    w->PutU32(static_cast<uint32_t>(source));
  }
}

Result<std::map<std::string, SourceId>> GetBindings(CheckpointReader* r) {
  std::map<std::string, SourceId> pinned;
  TCQ_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  for (uint32_t b = 0; b < n; ++b) {
    TCQ_ASSIGN_OR_RETURN(std::string alias, r->GetString());
    TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
    pinned[alias] = source;
  }
  return pinned;
}

}  // namespace

Status TelegraphCQ::FlushSpools() {
  std::lock_guard<std::mutex> lock(mu_);
  if (opts_.spool_dir.empty()) {
    return Status::FailedPrecondition(
        "no spools to flush (set Options::spool_dir)");
  }
  for (auto& [name, stream] : streams_) {
    if (stream.spool != nullptr) TCQ_RETURN_IF_ERROR(stream.spool->Flush());
  }
  return Status::OK();
}

Status TelegraphCQ::Drain(std::chrono::steady_clock::time_point deadline) {
  bool started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    started = started_;
  }
  // Attached sources first: each must end and the pump route all it made.
  if (started && !sources_wake_.AwaitUntil(
                     [this] { return sources_ended_.load(); }, deadline)) {
    return Status::TimedOut("an attached source has not ended");
  }
  return executor_.WaitQuiescent(deadline);
}

Status TelegraphCQ::BackfillWindowedLocked(GlobalQueryId id,
                                           const ClientInfo& client,
                                           Timestamp reach) {
  for (const auto& [alias, source] : client.bindings) {
    const Catalog::StreamEntry* entry = catalog_.LookupBySource(source);
    PhysicalStream& stream = streams_[entry->name];
    std::vector<Tuple> archive;
    TCQ_RETURN_IF_ERROR(stream.spool->ScanFrom(0, &archive));
    Timestamp latest = kMinTimestamp;
    for (const Tuple& t : archive) latest = std::max(latest, t.timestamp());
    // Backfill window: [latest - reach + 1, latest]; kMaxTimestamp (or a
    // reach that underflows past kMinTimestamp) takes the whole archive.
    Timestamp lo = kMinTimestamp;
    if (reach != kMaxTimestamp && latest > kMinTimestamp + reach) {
      lo = latest - reach + 1;
    }
    size_t i = 0;
    while (i < archive.size()) {
      TupleBatch chunk;
      chunk.set_source(source);
      for (; i < archive.size() && chunk.size() < 256; ++i) {
        const Tuple& t = archive[i];
        if (t.timestamp() < lo) continue;
        chunk.push_back(t.schema().get() == entry->schema.get()
                            ? t
                            : Tuple::Make(entry->schema, t.values(),
                                          t.timestamp()));
      }
      TCQ_RETURN_IF_ERROR(executor_.BackfillQuery(id, std::move(chunk)));
    }
    if (stream.event_time.punctuate && stream.last_punct != kMinTimestamp) {
      // The stream's current watermark promise travels BEHIND the
      // historical rows, so an event-time loop fires the backfilled
      // windows immediately instead of waiting for fresh live traffic.
      TupleBatch punct;
      punct.set_source(source);
      punct.AddPunctuation(Punctuation{source, stream.last_punct});
      TCQ_RETURN_IF_ERROR(executor_.BackfillQuery(id, std::move(punct)));
    }
  }
  return Status::OK();
}

Result<uint64_t> TelegraphCQ::Checkpoint() {
  if (opts_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint location (set Options::checkpoint_dir)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = last_epoch_ + 1;
  // Quiesce: holding mu_ blocks every ingest path; the spools flush so the
  // replay positions recorded below are durable; the barrier drains every
  // fjord, so each runner and class replica rests at a quantum boundary.
  for (auto& [name, stream] : streams_) {
    if (stream.spool != nullptr) TCQ_RETURN_IF_ERROR(stream.spool->Flush());
  }
  TCQ_RETURN_IF_ERROR(executor_.WaitQuiescent(
      std::chrono::steady_clock::now() + std::chrono::seconds(10)));

  CheckpointWriter w(epoch);
  w.BeginSection("server", 2);
  w.PutU64(system_streams_ != nullptr ? system_streams_->ticks() : 0);
  // The catalog, each entry under its id: every snapshot below keys state
  // by these ids, and alias ids depend on the original interleaving of
  // stream definitions and self-join submissions, so a restore re-creates
  // them verbatim. An alias no recorded query owns (its query is being
  // admitted or cancelled outside mu_) is left out.
  std::set<SourceId> owned;
  for (const auto& [id, client] : clients_) {
    owned.insert(client.aliases.begin(), client.aliases.end());
  }
  std::vector<const Catalog::StreamEntry*> entries;
  for (const auto& [id, entry] : catalog_.entries()) {
    if (id == streams_.at(entry.name).canonical || owned.contains(id)) {
      entries.push_back(&entry);
    }
  }
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const Catalog::StreamEntry* entry : entries) {
    const bool is_alias = streams_.at(entry->name).canonical != entry->source;
    w.PutU32(entry->source);
    w.PutString(entry->name);
    w.PutBool(is_alias);
    if (!is_alias) w.PutSchema(*entry->schema);
  }
  w.PutU32(static_cast<uint32_t>(streams_.size()));
  for (const auto& [name, stream] : streams_) {
    w.PutString(name);
    w.PutBool(stream.event_time.punctuate);
    w.PutTimestamp(stream.event_time.disorder_bound);
    w.PutTimestamp(stream.max_ts);
    w.PutTimestamp(stream.last_punct);
    w.PutBool(stream.closed);
    w.PutU64(stream.spool != nullptr ? stream.spool->tuples_appended() : 0);
  }
  // Every live query, of either kind, in id order: what a restore
  // re-submits. Whether it is windowed comes from re-planning its SQL.
  w.PutU32(static_cast<uint32_t>(clients_.size()));
  for (const auto& [id, client] : clients_) {
    w.PutU64(id);
    w.PutString(client.sql);
    w.PutBool(client.speculate);
    PutBindings(&w, client.bindings);
  }
  w.EndSection();

  // The queries' state: classes and windowed runners, behind the
  // executor's own quiesce.
  TCQ_RETURN_IF_ERROR(executor_.CheckpointTo(&w));

  const std::string path =
      opts_.checkpoint_dir + "/ckpt-" + std::to_string(epoch);
  TCQ_RETURN_IF_ERROR(w.WriteTo(path));
  last_epoch_ = epoch;
  ckpt_epochs_->Inc();
  std::error_code ec;
  const uint64_t bytes = std::filesystem::file_size(path, ec);
  if (!ec) ckpt_bytes_->Inc(bytes);
  ckpt_duration_us_->Set(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
  return epoch;
}

Result<uint64_t> TelegraphCQ::Restore() {
  if (opts_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint location (set Options::checkpoint_dir)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("Restore() must run before Start()");
    }
    if (!clients_.empty() || ingested_->Value() != 0) {
      return Status::FailedPrecondition(
          "Restore() requires a freshly constructed server");
    }
  }

  // Latest epoch wins: a crash mid-checkpoint leaves the previous epoch's
  // file intact (temp-file + rename), so the newest complete file is the
  // recovery point.
  uint64_t epoch = 0;
  std::string path;
  {
    std::error_code ec;
    std::filesystem::directory_iterator dir(opts_.checkpoint_dir, ec);
    if (ec) {
      return Status::NotFound("cannot list checkpoint dir '" +
                              opts_.checkpoint_dir + "': " + ec.message());
    }
    for (const auto& e : dir) {
      const std::string fname = e.path().filename().string();
      if (fname.rfind("ckpt-", 0) != 0 || fname.size() == 5) continue;
      uint64_t n = 0;
      bool numeric = true;
      for (size_t i = 5; i < fname.size(); ++i) {
        if (fname[i] < '0' || fname[i] > '9') {
          numeric = false;
          break;
        }
        n = n * 10 + static_cast<uint64_t>(fname[i] - '0');
      }
      if (numeric && (path.empty() || n > epoch)) {
        epoch = n;
        path = e.path().string();
      }
    }
  }
  if (path.empty()) {
    return Status::NotFound("no checkpoint under '" + opts_.checkpoint_dir +
                            "'");
  }

  TCQ_ASSIGN_OR_RETURN(std::unique_ptr<CheckpointReader> r,
                       CheckpointReader::Open(path, &spool_pool_));
  TCQ_ASSIGN_OR_RETURN(CheckpointReader::Section sec, r->BeginSection());
  if (sec.tag != "server" || sec.version != 2) {
    return Status::IOError("checkpoint does not start with a v2 server "
                           "section (found '" +
                           sec.tag + "' v" + std::to_string(sec.version) +
                           ")");
  }
  TCQ_ASSIGN_OR_RETURN(uint64_t tick, r->GetU64());
  if (system_streams_ != nullptr) system_streams_->AdvanceTicksTo(tick);

  // 1. The catalog, every entry under its recorded id.
  TCQ_ASSIGN_OR_RETURN(uint32_t ncat, r->GetU32());
  for (uint32_t i = 0; i < ncat; ++i) {
    TCQ_ASSIGN_OR_RETURN(uint32_t id, r->GetU32());
    TCQ_ASSIGN_OR_RETURN(std::string name, r->GetString());
    TCQ_ASSIGN_OR_RETURN(bool is_alias, r->GetBool());
    SchemaRef schema;
    if (!is_alias) {
      TCQ_ASSIGN_OR_RETURN(schema, r->GetSchema());
    }
    const Catalog::StreamEntry* existing = catalog_.LookupBySource(id);
    if (existing != nullptr && existing->name == name) {
      continue;  // pre-defined at construction (tcq$ introspection streams)
    }
    Status replayed =
        is_alias ? catalog_.InstantiateAlias(name, id).status()
                 : DefineStreamInternal(name, schema->fields(), id).status();
    if (!replayed.ok()) {
      return Status::IOError("checkpoint catalog id " + std::to_string(id) +
                             " ('" + name + "') cannot be re-created: " +
                             replayed.ToString() +
                             " (constructed with different Options?)");
    }
  }

  // 2. Per-stream event-time marks and spool replay positions. A closed
  // stream closes after the replay below, which must still reach it.
  std::vector<std::pair<std::string, uint64_t>> replay;
  std::vector<std::string> closed;
  TCQ_ASSIGN_OR_RETURN(uint32_t nstreams, r->GetU32());
  for (uint32_t i = 0; i < nstreams; ++i) {
    TCQ_ASSIGN_OR_RETURN(std::string name, r->GetString());
    TCQ_ASSIGN_OR_RETURN(bool punctuate, r->GetBool());
    TCQ_ASSIGN_OR_RETURN(Timestamp disorder, r->GetTimestamp());
    TCQ_ASSIGN_OR_RETURN(Timestamp max_ts, r->GetTimestamp());
    TCQ_ASSIGN_OR_RETURN(Timestamp last_punct, r->GetTimestamp());
    TCQ_ASSIGN_OR_RETURN(bool is_closed, r->GetBool());
    TCQ_ASSIGN_OR_RETURN(uint64_t pos, r->GetU64());
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(name);
    if (it == streams_.end()) {
      return Status::IOError("checkpoint stream '" + name +
                             "' was not recreated by the catalog replay");
    }
    PhysicalStream& stream = it->second;
    stream.event_time.punctuate = punctuate;
    stream.event_time.disorder_bound = disorder;
    if (punctuate && stream.late == nullptr) {
      stream.late = metrics_->GetCounter(
          MetricName("tcq_wrapper_late_tuples_total", "stream", name));
    }
    stream.max_ts = max_ts;
    stream.last_punct = last_punct;
    if (is_closed) closed.push_back(name);
    replay.emplace_back(name, pos);
  }

  // 3. Restore is re-submission: every recorded query, in id order, goes
  // through Submit's admission under its recorded id, with its recorded
  // alias bindings pinned, which replays the original admissions and
  // class merges.
  TCQ_ASSIGN_OR_RETURN(uint32_t nqueries, r->GetU32());
  for (uint32_t i = 0; i < nqueries; ++i) {
    TCQ_ASSIGN_OR_RETURN(uint64_t id, r->GetU64());
    TCQ_ASSIGN_OR_RETURN(std::string sql, r->GetString());
    TCQ_ASSIGN_OR_RETURN(bool speculate, r->GetBool());
    TCQ_ASSIGN_OR_RETURN(auto pinned, GetBindings(r.get()));
    std::unique_lock<std::mutex> lock(mu_);
    TCQ_ASSIGN_OR_RETURN(PlannedQuery plan, Replan(&catalog_, id, sql, pinned));
    TCQ_RETURN_IF_ERROR(
        AdmitLocked(&lock, sql, plan, {.speculate = speculate}, id).status());
  }
  TCQ_RETURN_IF_ERROR(r->EndSection());

  // 4. The queries' state: class bucket maps, SteM logs and seq horizons,
  // windowed runners.
  TCQ_RETURN_IF_ERROR(executor_.RestoreFrom(r.get()).status());

  // 5. Bring the dataflow up for the replay (the fjords must drain or the
  // chunks below would overflow them). Start() later re-invokes it —
  // idempotent.
  executor_.Start();

  // 6. Replay each stream's archived suffix past its snapshot high-water
  // mark, spool-bypassing (the tuples are already archived). The fjords
  // drain after each chunk so they never overflow. A drain that stalls (a
  // kBlock egress no client can poll yet) is not fatal: the replay stops
  // waiting, and overflow is then counted as drops.
  uint64_t replayed = 0;
  bool draining = true;
  for (const auto& [name, pos] : replay) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(name);
    if (it == streams_.end() || it->second.spool == nullptr) continue;
    PhysicalStream& stream = it->second;
    std::vector<Tuple> suffix;
    TCQ_RETURN_IF_ERROR(stream.spool->ScanFrom(pos, &suffix));
    size_t i = 0;
    while (i < suffix.size()) {
      TupleBatch chunk;
      chunk.set_source(stream.canonical);
      for (; i < suffix.size() && chunk.size() < 256; ++i) {
        chunk.push_back(suffix[i]);
      }
      replayed += chunk.size();
      RouteBatch(&stream, chunk, /*spool=*/false);
      draining = draining &&
                 executor_
                     .WaitQuiescent(std::chrono::steady_clock::now() +
                                    std::chrono::seconds(10))
                     .ok();
    }
  }

  // 7. Re-deliver end-of-stream for streams that closed before the crash:
  // the restored queries never saw the original CloseStream.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& name : closed) {
      streams_[name].closed = true;
      CloseLogicalLocked(streams_[name]);
    }
    last_epoch_ = epoch;
  }
  restore_replayed_->Inc(replayed);
  restore_duration_us_->Set(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return epoch;
}

std::vector<TelegraphCQ::ClientHandle> TelegraphCQ::Handles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClientHandle> out;
  for (const auto& [id, client] : clients_) {
    ClientHandle h;
    h.id = id;
    h.results = client.egress;
    h.windows = client.windows;
    out.push_back(std::move(h));
  }
  return out;
}

void TelegraphCQ::CheckpointLoop(std::stop_token stop) {
  const auto interval =
      std::chrono::milliseconds(opts_.checkpoint_interval_ms);
  while (!WaitUntilOrStopped(stop, std::chrono::steady_clock::now() + interval)) {
    if (!Checkpoint().ok()) ckpt_failures_->Inc();
  }
}

Status TelegraphCQ::Cancel(GlobalQueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = clients_.find(id);
  if (it == clients_.end()) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  ClientInfo client = std::move(it->second);
  clients_.erase(it);
  ReleaseLocked(client);
  // A windowed DU leaves under mu_, so a checkpoint never finds its runner
  // without its record; its quantum only fills a buffer. A continuous
  // query leaves outside mu_, as it was admitted: removal may wait out a
  // class quantum blocked on a kBlock egress whose client must take mu_ to
  // push before it polls. Its aliases keep their catalog ids meanwhile, so
  // no other query can take them.
  if (!client.windowed()) lock.unlock();
  Status removed = executor_.RemoveQuery(id);
  if (client.windows != nullptr) client.windows->MarkFinished();
  ReleaseAliases(client, &lock);
  return removed;
}

TelegraphCQ::Introspection TelegraphCQ::Introspect() const {
  Introspection out;
  out.metrics = metrics_->Snapshot();
  out.tuples_ingested = ingested_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, client] : clients_) {
    QueryStats qs;
    qs.id = id;
    qs.windowed = client.windowed();
    for (const std::string& name : client.streams) {
      auto it = streams_.find(name);
      if (it != streams_.end()) qs.tuples_in += it->second.ingested->Value();
    }
    if (client.egress != nullptr) {
      qs.tuples_out = client.egress->delivered();
      qs.shed = client.egress->shed();
    }
    if (client.windows != nullptr) {
      qs.windows_fired = client.windows->windows_fired();
      qs.tuples_out = client.windows->tuples_out();
      qs.retractions = client.windows->retractions();
    }
    out.queries.push_back(qs);
  }
  for (const auto& [name, stream] : streams_) {
    StreamStats ss;
    ss.name = name;
    ss.source = stream.canonical;
    ss.tuples_in = stream.ingested->Value();
    // Executor-side drops accrue against each logical source the physical
    // stream has fanned out to: the canonical id, its live aliases, and
    // the aliases released so far.
    ss.dropped = stream.released_dropped;
    for (const auto& [id, entry] : catalog_.entries()) {
      if (entry.name == name) ss.dropped += executor_.stream_tuples_dropped(id);
    }
    if (stream.late != nullptr) ss.late_tuples = stream.late->Value();
    out.streams.push_back(std::move(ss));
  }
  out.classes = executor_.Topology();
  out.class_merges = executor_.class_merges();
  out.class_migrations = executor_.class_migrations();
  out.class_gcs = executor_.class_gcs();
  out.checkpoint_epochs = ckpt_epochs_->Value();
  out.checkpoint_bytes = ckpt_bytes_->Value();
  out.restore_replay_tuples = restore_replayed_->Value();
  return out;
}

void TelegraphCQ::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
  }
  executor_.Start();
  wrapper_.Start();
  stop_.store(false);
  pump_thread_ = std::thread([this] { PumpLoop(); });
  if (system_streams_ != nullptr) system_streams_->Start();
  if (!opts_.checkpoint_dir.empty() && opts_.checkpoint_interval_ms > 0) {
    checkpoint_thread_ = std::jthread(
        [this](std::stop_token stop) { CheckpointLoop(stop); });
  }
}

void TelegraphCQ::PumpLoop() {
  // Drains wrapper feeds into the routing fabric. When a pass finds every
  // feed empty it arms pump_wake_ (bound to every feed) and looks once
  // more; a second empty pass parks until a feed gains work or closes, or
  // Stop() signals.
  bool armed = false;
  uint64_t epoch = 0;
  while (!stop_.load()) {
    bool any = false;
    bool all_closed = true;
    bool feeds_ended = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [name, stream] : streams_) {
        for (FjordConsumer& feed : stream.wrapper_feeds) {
          TupleBatch batch;
          batch.set_source(stream.canonical);
          QueueOp op = QueueOp::kOk;
          size_t got = feed.ConsumeBatch(&batch, 64, &op);
          if (got > 0) {
            RouteBatch(&stream, batch);
            any = true;
          }
          if (op == QueueOp::kWouldBlock) all_closed = false;
          if (!feed.Exhausted()) all_closed = feeds_ended = false;
        }
        if (stream.wrapper_feeds.empty()) all_closed = false;
      }
    }
    if (feeds_ended && !sources_ended_.exchange(true)) sources_wake_.Notify();
    if (any) {
      if (armed) pump_wake_.Disarm();
      armed = false;
    } else if (all_closed) {
      break;
    } else if (!armed) {
      epoch = pump_wake_.Arm();
      armed = true;
    } else {
      pump_wake_.Park(epoch);
      armed = false;
    }
  }
  if (armed) pump_wake_.Disarm();
}

void TelegraphCQ::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  // The checkpointer goes first: it takes mu_ and detaches windowed DUs.
  checkpoint_thread_.request_stop();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  // Stop the publisher next: it pushes into streams_ via PushBuilt.
  if (system_streams_ != nullptr) system_streams_->Stop();
  wrapper_.Stop();
  stop_.store(true);
  pump_wake_.Notify();
  if (pump_thread_.joinable()) pump_thread_.join();
  executor_.Stop();
}

}  // namespace tcq
