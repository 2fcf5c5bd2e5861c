#include "exec/sharded_class.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <set>
#include <utility>

#include "eddy/routing_policy.h"

namespace tcq {

namespace {

/// One-shot synchronization for blocking admission (per shard replica).
struct AdmissionGate {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<QueryId>> result;

  void Set(Result<QueryId> r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
    }
    cv.notify_all();
  }
  Result<QueryId> Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return result.has_value(); });
    return *result;
  }
};

/// Partition key of a value: int64 values hash directly (equal keys across
/// streams must bucket identically for co-partitioning), everything else
/// through the Value hash.
int64_t KeyOf(const Value& v) {
  return v.type() == ValueType::kInt64 ? v.AsInt64()
                                       : static_cast<int64_t>(v.Hash());
}

/// Rows a shadow takes between trims: keeps the trim (a fjord size read and,
/// for windowed SteMs, a watermark read) off the per-batch path.
constexpr size_t kShadowTrimEvery = 1024;

}  // namespace

ShardedClass::ShardedClass(std::string label, Options opts,
                           std::vector<ExecutionObject*> eos,
                           MetricsRegistryRef metrics, obs::TracerRef tracer)
    : label_(std::move(label)),
      opts_(opts),
      eos_(std::move(eos)),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)),
      parts_(kBuckets, 1) {
  if (opts_.shards == 0) opts_.shards = 1;
  repartitions_ = metrics_->GetCounter(
      MetricName("tcq_shard_repartitions_total", "class", label_));
  pause_us_ = metrics_->GetHistogram(
      MetricName("tcq_shard_repartition_pause_us", "class", label_));
  shard_count_gauge_ =
      metrics_->GetGauge(MetricName("tcq_shard_count", "class", label_));
  failover_lost_ = metrics_->GetCounter(
      MetricName("tcq_shard_failover_lost_total", "class", label_));
  shadow_rows_ =
      metrics_->GetGauge(MetricName("tcq_shard_shadow_rows", "class", label_));
  stem_replayed_ = metrics_->GetCounter(
      MetricName("tcq_shard_stem_entries_replayed_total", "class", label_));
  // Classes always START at one shard; AdmitQuery expands to opts_.shards
  // once the first query's join edges prove the class co-partitionable.
  merged_wm_.Reset(1);
  shards_.push_back(MakeShard(0, 0));
  shard_count_gauge_->Set(1);
}

ShardedClass::Shard ShardedClass::MakeShard(size_t k, size_t eo) {
  // Shard 0 keeps the bare class label so the default single-shard path is
  // instrument- and name-identical to an unsharded class.
  std::string name = k == 0 ? label_ : label_ + "/s" + std::to_string(k);
  auto eddy = std::make_unique<SharedEddy>(MakeLotteryPolicy(opts_.seed + k),
                                           metrics_, name);
  auto du = std::make_shared<SharedCQDispatchUnit>(
      name, std::move(eddy), SharedCQDispatchUnit::Options{opts_.quantum});
  du->set_tracer(tracer_);
  du->set_shard(static_cast<uint32_t>(k));
  du->set_control_sink(
      [this, k](const Punctuation& p) { OnShardPunctuation(k, p); });
  Shard sh;
  sh.du = std::move(du);
  sh.eo = eos_.empty() ? 0 : eo % eos_.size();
  sh.ingest = metrics_->GetCounter(
      MetricName("tcq_shard_ingest_total", "shard", name));
  sh.occupancy =
      metrics_->GetGauge(MetricName("tcq_shard_occupancy", "shard", name));
  // Registry instruments persist across repartitions (same name -> same
  // counter), so the skew snapshot must start from the current value.
  sh.last_ingest = sh.ingest->Value();
  return sh;
}

std::string ShardedClass::FjordName(SourceId source, size_t shard,
                                    size_t total) const {
  // Single-shard classes keep the historical name so queue instruments and
  // tests see an unchanged default path.
  if (total == 1) return "exec:s" + std::to_string(source);
  return "exec:" + label_ + "/s" + std::to_string(source) + "/r" +
         std::to_string(shard);
}

void ShardedClass::ClaimStream(SourceId source, SchemaRef schema,
                               StemOptions stem_opts) {
  Route r;
  r.schema = schema;
  r.stem_opts = stem_opts;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto ep = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                          FjordName(source, k, shards_.size()),
                          metrics_.get());
    r.producers.push_back(std::make_shared<FjordProducer>(ep.producer));
    r.fjords.push_back(ep.fjord);
    shards_[k].du->SubmitTask([source, schema, stem_opts](SharedEddy* eddy) {
      eddy->RegisterStream(source, schema, stem_opts);
    });
    shards_[k].du->AddInput(source, ep.consumer);
    if (opts_.replication && shards_.size() > 1) {
      r.shadows.push_back(std::make_unique<Shadow>());
    }
  }
  routes_.emplace(source, std::move(r));
}

bool ShardedClass::CloseStream(SourceId source) {
  auto it = routes_.find(source);
  if (it == routes_.end()) return false;
  it->second.closed = true;
  for (auto& p : it->second.producers) p->Close();
  return true;
}

std::optional<std::map<SourceId, std::string>> ShardedClass::DeriveKeys(
    const std::vector<const CQSpec*>& extra) const {
  std::map<SourceId, std::string> keys;
  auto fold = [&keys](const CQSpec& spec) {
    for (const JoinEdge& e : spec.joins) {
      for (const AttrRef* a : {&e.left, &e.right}) {
        auto [it, inserted] = keys.emplace(a->source, a->name);
        // One stream needing two different partition keys (chained joins on
        // distinct attrs, self-joins on distinct attrs) is unshardable.
        if (!inserted && it->second != a->name) return false;
      }
    }
    return true;
  };
  for (const auto& [id, spec] : specs_) {
    if (!fold(spec)) return std::nullopt;
  }
  for (const CQSpec* spec : extra) {
    if (!fold(*spec)) return std::nullopt;
  }
  return keys;
}

Result<QueryId> ShardedClass::AdmitQuery(const CQSpec& spec, uint64_t gid,
                                         Sink sink, bool started,
                                         const RemapFn& remap) {
  // Desired layout including the new query's join edges. A key conflict
  // collapses the class to one shard — correctness beats parallelism.
  auto keys = DeriveKeys({&spec});
  size_t desired = keys.has_value() ? opts_.shards : 1;
  bool reshape = desired != shards_.size();
  if (!reshape && desired > 1) {
    for (const auto& [source, r] : routes_) {
      std::string want;
      if (auto it = keys->find(source); it != keys->end()) want = it->second;
      if (r.key_attr != want) {
        reshape = true;
        break;
      }
    }
  }
  if (reshape) {
    // Leave the rebuilt DUs detached: the admission tasks below must enter
    // the plan queues BEFORE any EO pumps the carried-over tuples (Step
    // drains the plan queue first), so the new query sees all of them.
    Repartition(desired, keys.value_or(std::map<SourceId, std::string>{}),
                {}, remap, /*attach_after=*/false);
  }

  // Each shard hands its runs to the sink from its own EO thread, with no
  // lock between shards (the Executor::Sink contract). Every shard's DU
  // gets its own copy of `sink` below, so state a sink carries by value
  // (the server's Projection and its single-threaded schema cache) is per
  // shard.
  // Broadcast admission. Tasks are enqueued in the same order on every
  // shard's FIFO plan queue and every replica has seen the identical task
  // sequence since birth, so the local ids they assign are identical.
  std::vector<std::shared_ptr<AdmissionGate>> gates;
  gates.reserve(shards_.size());
  for (Shard& sh : shards_) {
    auto gate = std::make_shared<AdmissionGate>();
    gates.push_back(gate);
    sh.du->SubmitTask([du = sh.du.get(), gid, sink, spec,
                       gate](SharedEddy* eddy) mutable {
      Result<QueryId> r = eddy->AddQuery(std::move(spec));
      if (r.ok()) du->BindSink(*r, gid, std::move(sink));
      gate->Set(std::move(r));
    });
  }
  if (detached_) AttachShards();
  // Pre-start admission: no EO pumps yet, so run one quantum inline.
  if (!started) {
    for (Shard& sh : shards_) (void)sh.du->Step();
  }
  Result<QueryId> first = gates[0]->Wait();
  for (size_t k = 1; k < gates.size(); ++k) {
    Result<QueryId> r = gates[k]->Wait();
    assert(r.ok() == first.ok() && (!r.ok() || *r == *first) &&
           "shard replicas diverged on admission");
    (void)r;
  }
  if (first.ok()) {
    specs_[*first] = spec;
    std::lock_guard<std::mutex> lock(punct_mu_);
    punct_sinks_[*first] = {gid, std::move(sink)};
  }
  return first;
}

void ShardedClass::RemoveQuery(QueryId local) {
  specs_.erase(local);
  {
    std::lock_guard<std::mutex> lock(punct_mu_);
    punct_sinks_.erase(local);
  }
  for (Shard& sh : shards_) {
    sh.du->SubmitTask([local, du = sh.du.get()](SharedEddy* eddy) {
      (void)eddy->RemoveQuery(local);
      du->UnbindSink(local);
    });
  }
}

bool ShardedClass::MaybeRepartitionForSkew(const RemapFn& remap) {
  if (shards_.size() < 2) return false;
  bool keyed = false;
  for (const auto& [source, r] : routes_) {
    if (!r.key_attr.empty() && !r.closed) keyed = true;
  }
  if (!keyed) return false;  // round-robin routes are balanced by design
  uint64_t mx = 0;
  uint64_t mn = UINT64_MAX;
  uint64_t total = 0;
  for (Shard& sh : shards_) {
    uint64_t now = sh.ingest->Value();
    uint64_t d = now - sh.last_ingest;
    mx = std::max(mx, d);
    mn = std::min(mn, d);
    total += d;
  }
  if (total < opts_.min_skew_volume) return false;
  if (static_cast<double>(mx) <=
      opts_.skew_threshold * static_cast<double>(std::max<uint64_t>(mn, 1))) {
    return false;
  }
  // LPT greedy: heaviest buckets first, each to the currently least-loaded
  // shard. Deterministic (stable sort, lowest-index tie-break).
  std::vector<std::pair<uint64_t, size_t>> weights;
  weights.reserve(kBuckets);
  for (size_t b = 0; b < kBuckets; ++b) {
    weights.emplace_back(bucket_counts_[b].load(std::memory_order_relaxed),
                         b);
  }
  std::stable_sort(weights.begin(), weights.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<uint64_t> load(shards_.size(), 0);
  std::vector<size_t> owner(kBuckets, 0);
  for (const auto& [w, b] : weights) {
    size_t k = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner[b] = k;
    load[k] += w;
  }
  auto keys = DeriveKeys({});
  if (!keys.has_value()) return false;  // raced into unshardable: bail out
  Repartition(shards_.size(), *keys, std::move(owner), remap,
              /*attach_after=*/true);
  return true;
}

Status ShardedClass::FailShard(size_t shard, const RemapFn& remap) {
  size_t n = shards_.size();
  if (shard >= n) {
    return Status::InvalidArgument("class " + label_ + " has no shard " +
                                   std::to_string(shard));
  }
  if (n < 2) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is the last live shard of class " +
                                      label_);
  }
  // The failed shard's buckets go to their standby; the shards above it
  // shift down one place.
  std::vector<size_t> owner(kBuckets);
  for (size_t b = 0; b < kBuckets; ++b) {
    size_t o = parts_.OwnerOf(b);
    if (o == shard) o = (shard + 1) % n;
    owner[b] = o > shard ? o - 1 : o;
  }
  auto keys = DeriveKeys({});
  Repartition(n - 1, keys.value_or(std::map<SourceId, std::string>{}),
              std::move(owner), remap, /*attach_after=*/true, shard);
  return Status::OK();
}

void ShardedClass::Absorb(const std::vector<ShardedClass*>& srcs,
                          const CQSpec& bridging, const RemapFn& remap) {
  std::vector<const CQSpec*> extra;
  for (const ShardedClass* src : srcs) {
    for (const auto& [id, spec] : src->specs_) extra.push_back(&spec);
  }
  extra.push_back(&bridging);
  Rederive(extra, remap, /*attach_after=*/false, srcs);
}

void ShardedClass::Rederive(const std::vector<const CQSpec*>& extra,
                            const RemapFn& remap, bool attach_after,
                            const std::vector<ShardedClass*>& absorbed) {
  auto keys = DeriveKeys(extra);
  size_t count = keys.has_value() ? opts_.shards : 1;
  // The current owners stand when the shard count does, so this class's
  // SteMs (and any source's with matching owners) move by reference.
  std::vector<size_t> owner;
  if (count == shards_.size()) owner = parts_.owners();
  Repartition(count, keys.value_or(std::map<SourceId, std::string>{}),
              std::move(owner), remap, attach_after, kNoShard, absorbed);
}

Status ShardedClass::DropStream(SourceId source, const RemapFn& remap) {
  for (const auto& [local, spec] : specs_) {
    if (spec.Footprint() & SourceBit(source)) {
      return Status::FailedPrecondition("a live query reads s" +
                                        std::to_string(source));
    }
  }
  auto it = routes_.find(source);
  assert(it != routes_.end() && "dropping a stream the class never claimed");
  for (auto& p : it->second.producers) p->Close();
  routes_.erase(it);
  // The rebuilt replicas register only the remaining routes; what the
  // dropped one queued or held in SteMs goes with its old replicas.
  Rederive({}, remap, /*attach_after=*/true);
  return Status::OK();
}

void ShardedClass::PauseShards(std::vector<Shard>* shards) {
  for (Shard& sh : *shards) {
    eos_[sh.eo % eos_.size()]->RemoveDispatchUnit(sh.du);
    sh.du->Quiesce();
  }
}

void ShardedClass::AttachShards() {
  for (Shard& sh : shards_) {
    eos_[sh.eo % eos_.size()]->AddDispatchUnit(sh.du);
  }
  detached_ = false;
}

size_t ShardedClass::AdoptTarget(const Partitioner& old_parts,
                                 size_t old_count, size_t j,
                                 const std::string& old_key,
                                 const Route& r) const {
  // ShardOf sends every row to shard 0 at one shard or on a keyless route;
  // a keyed route's rows follow their bucket, so one shard's SteM stays
  // whole only when the key is unchanged (or it held every bucket).
  if (shards_.size() == 1 || r.key_attr.empty()) return 0;
  if (old_count > 1 && old_key != r.key_attr) return kNoShard;
  size_t target = kNoShard;
  for (size_t b = 0; b < parts_.num_buckets(); ++b) {
    if (old_count > 1 && old_parts.OwnerOf(b) != j) continue;
    if (target != kNoShard && parts_.OwnerOf(b) != target) return kNoShard;
    target = parts_.OwnerOf(b);
  }
  return target;
}

void ShardedClass::ReplayEntry(const Route& r, SourceId source,
                               const Tuple& t, Timestamp seq) {
  size_t k = ShardOf(r, t);
  shards_[k].du->eddy()->BuildHistorical(source, t, seq);
  SeedShadow(r, k, t);
}

void ShardedClass::Repartition(size_t new_count,
                               std::map<SourceId, std::string> new_keys,
                               std::vector<size_t> owner, const RemapFn& remap,
                               bool attach_after, size_t failed,
                               const std::vector<ShardedClass*>& absorbed) {
  assert((failed == kNoShard || absorbed.empty()) &&
         "a failover absorbs no other class");
  int64_t t0 = NowMicros();

  // 0. The classes whose state moves: this one, then each absorbed one,
  //    which hands over its routes. The executor's mutex keeps every push
  //    out meanwhile: one admitted before is in the fjords drained below,
  //    one admitted after routes to this class.
  struct Mover {
    std::vector<Shard> shards;
    Partitioner parts;  ///< the old bucket -> shard map
    /// A surviving replica: its registry and sinks are the class's.
    SharedCQDispatchUnit* lead = nullptr;
  };
  std::vector<Mover> movers;
  movers.push_back({std::move(shards_), parts_, nullptr});
  shards_.clear();
  for (ShardedClass* src : absorbed) {
    routes_.merge(src->routes_);
    assert(src->routes_.empty() && "merged classes share a stream");
    movers.push_back({std::move(src->shards_), src->parts_, nullptr});
  }

  // 1. Pause: quiesce every shard at a quantum boundary. After this no EO
  //    thread steps them and the replicas are drained to quiescence.
  for (Mover& m : movers) PauseShards(&m.shards);

  // 2. Drain queued-but-unprocessed tuples into a per-source carryover
  //    (old-shard-major; per-shard per-source order preserved). They are
  //    NOT processed here — a query admitted right after the re-partition
  //    must still see them (the merge-survival guarantee). A failed shard's
  //    queue is discarded, as a crash would; only its row count is kept.
  std::map<SourceId, TupleBatch> carry;
  std::map<SourceId, size_t> failed_queued;
  for (size_t i = 0; i < movers.size(); ++i) {
    for (size_t j = 0; j < movers[i].shards.size(); ++j) {
      bool crashed_shard = i == 0 && j == failed;
      for (auto& [source, consumer] : movers[i].shards[j].du->DetachInputs()) {
        TupleBatch crashed;
        TupleBatch& b = crashed_shard ? crashed : carry[source];
        b.set_source(source);
        QueueOp op;
        while (consumer.ConsumeBatch(&b, SIZE_MAX / 2, &op) > 0) {
        }
        if (crashed_shard) failed_queued[source] = crashed.size();
      }
    }
  }

  // 2b. Failover: the failed shard's state comes from its shadows. The
  //     consumed prefix its SteMs still held is rebuilt below the new
  //     horizon (step 9); the unconsumed suffix joins the carryover and
  //     probes once (step 10). Without shadows it is lost, and counted.
  std::map<SourceId, std::vector<Tuple>> rebuilt;
  if (failed != kNoShard) {
    SharedEddy* crashed = movers[0].shards[failed].du->eddy();
    uint64_t lost = 0;
    for (auto& [source, r] : routes_) {
      size_t queued = failed_queued[source];
      if (r.shadows.empty()) {
        lost += queued;
        if (SteM* stem = crashed->GetSteM(source)) lost += stem->size();
        continue;
      }
      std::deque<Tuple>& rows = r.shadows[failed]->rows;
      assert(queued <= rows.size() && "shadow lost an unconsumed row");
      size_t consumed = rows.size() - std::min(queued, rows.size());
      size_t evicted = EvictedPrefix(r, failed, rows, consumed);
      std::vector<Tuple>& held = rebuilt[source];
      for (size_t i = evicted; i < consumed; ++i) {
        held.push_back(std::move(rows[i]));
      }
      TupleBatch& b = carry[source];
      b.set_source(source);
      for (size_t i = consumed; i < rows.size(); ++i) {
        b.push_back(std::move(rows[i]));
      }
    }
    failover_lost_->Inc(lost);
  }

  // 3. The new seq horizon lies past every surviving replica's. Within a
  //    class any replica's registry and sinks are the class's.
  Timestamp horizon = 1;
  for (size_t i = 0; i < movers.size(); ++i) {
    Mover& m = movers[i];
    for (size_t j = 0; j < m.shards.size(); ++j) {
      if (i == 0 && j == failed) continue;
      horizon = std::max(horizon, m.shards[j].du->eddy()->seq_horizon());
    }
    m.lead = m.shards[i == 0 && failed == 0 ? 1 : 0].du.get();
  }

  // 4. Fresh bucket map. Bucket counts restart so the next skew decision
  //    reflects the new layout.
  parts_ = Partitioner(kBuckets, new_count);
  for (size_t b = 0; b < owner.size() && b < kBuckets; ++b) {
    parts_.Reassign(b, owner[b] % new_count);
  }
  for (size_t b = 0; b < kBuckets; ++b) {
    bucket_counts_[b].store(0, std::memory_order_relaxed);
  }

  // 5. Fresh replicas (EO placement inherited where possible). Event-time
  //    merge state restarts at kMinTimestamp: sources re-earn their merged
  //    watermarks from the next punctuation broadcast, which can only DELAY
  //    downstream window firing (never un-fire one) — conservative and safe.
  {
    std::lock_guard<std::mutex> plock(punct_mu_);
    merged_wm_.Reset(new_count);
  }
  const std::vector<Shard>& own = movers[0].shards;
  for (size_t k = 0; k < new_count; ++k) {
    size_t old = failed != kNoShard && k >= failed ? k + 1 : k;
    size_t eo = old < own.size() ? own[old].eo : k;
    shards_.push_back(MakeShard(k, eo));
  }

  // 6. Rebuild routes: fresh fjords sized to always fit the carryover (the
  //    re-injection below must not block — no consumer pumps yet), streams
  //    registered and inputs attached on every replica directly (we own
  //    them exclusively until re-attachment). Shadows restart empty and are
  //    re-seeded by steps 7, 9 and 10, so protection survives the move.
  std::map<SourceId, std::string> old_keys;
  shadow_rows_->Set(0);
  for (auto& [source, r] : routes_) {
    old_keys[source] = std::move(r.key_attr);
    r.key_attr.clear();
    r.key_field = 0;
    if (new_count > 1) {
      if (auto it = new_keys.find(source); it != new_keys.end()) {
        if (auto idx = r.schema->IndexOf(it->second, source); idx) {
          r.key_attr = it->second;
          r.key_field = *idx;
        }
      }
    }
    size_t extra = 0;
    if (auto it = carry.find(source); it != carry.end()) {
      // Rows plus carried control-lane entries (punctuations re-inject as
      // individual control tuples behind the rows).
      extra = it->second.size() + it->second.punctuations().size();
    }
    r.producers.clear();
    r.fjords.clear();
    r.shadows.clear();
    for (size_t k = 0; k < new_count; ++k) {
      auto ep = Fjord::Make(FjordMode::kPush, opts_.queue_capacity + extra,
                            FjordName(source, k, new_count), metrics_.get());
      r.producers.push_back(std::make_shared<FjordProducer>(ep.producer));
      r.fjords.push_back(ep.fjord);
      shards_[k].du->eddy()->RegisterStream(source, r.schema, r.stem_opts);
      shards_[k].du->AddInput(source, ep.consumer);
      if (opts_.replication && new_count > 1) {
        r.shadows.push_back(std::make_unique<Shadow>());
      }
    }
  }

  // 7. Move SteMs by reference (header comment): per (new shard, stream) the
  //    largest eligible SteM moves whole; the rest replay in step 9. Every
  //    new replica gets a SteM for each stream that had one (adopted, or
  //    empty to replay into) before re-admission, so the probes bind to it.
  std::map<std::pair<size_t, SourceId>, std::shared_ptr<SteM>> adopted;
  std::vector<std::shared_ptr<SteM>> replay;
  std::set<SourceId> stemmed;
  for (size_t i = 0; i < movers.size(); ++i) {
    Mover& m = movers[i];
    for (size_t j = 0; j < m.shards.size(); ++j) {
      if (i == 0 && j == failed) continue;
      for (const auto& [source, r] : routes_) {
        std::shared_ptr<SteM> stem = m.shards[j].du->eddy()->ShareSteM(source);
        if (stem == nullptr) continue;
        stemmed.insert(source);
        size_t k =
            AdoptTarget(m.parts, m.shards.size(), j, old_keys[source], r);
        if (k != kNoShard) {
          std::shared_ptr<SteM>& slot = adopted[{k, source}];
          if (slot == nullptr || slot->size() < stem->size()) {
            std::swap(slot, stem);
          }
        }
        if (stem != nullptr) replay.push_back(std::move(stem));
      }
    }
  }
  for (size_t k = 0; k < new_count; ++k) {
    for (SourceId source : stemmed) {
      std::shared_ptr<SteM> stem = std::move(adopted[{k, source}]);
      const Route& r = routes_.at(source);
      if (stem != nullptr && !r.shadows.empty()) {
        // The new shadow mirrors the adopted SteM.
        stem->ForEachEntry(
            [&](const Tuple& t, Timestamp) { SeedShadow(r, k, t); });
      }
      shards_[k].du->eddy()->AdoptSteM(source, std::move(stem));
    }
  }

  // 8. Re-admit queries class by class, each in its registry's id order.
  //    Fresh registries assign ids in admission order, so all replicas
  //    agree; the remap reports each query under its global id.
  RemapMap remap_map;
  specs_.clear();
  std::map<QueryId, std::pair<uint64_t, Sink>> new_punct_sinks;
  for (Mover& m : movers) {
    auto sinks = m.lead->TakeSinks();
    const QueryRegistry& registry = m.lead->eddy()->registry();
    registry.active().ForEach([&](QueryId old) {
      const CQSpec& spec = registry.Get(old)->spec;
      QueryId nid = 0;
      for (size_t k = 0; k < shards_.size(); ++k) {
        Result<QueryId> r = shards_[k].du->eddy()->AddQuery(spec);
        // Every replica admitted it before, over the same streams.
        assert(r.ok() && (k == 0 || *r == nid) && "re-admission diverged");
        if (k == 0 && r.ok()) nid = *r;
      }
      specs_[nid] = spec;
      auto sit = sinks.find(old);
      assert(sit != sinks.end() && "re-admitted query without a sink");
      if (sit == sinks.end()) return;
      remap_map[sit->second.first] = nid;
      // One copy per shard: a sink's by-value state stays per shard.
      for (Shard& sh : shards_) {
        sh.du->BindSink(nid, sit->second.first, sit->second.second);
      }
      new_punct_sinks[nid] = std::move(sit->second);
    });
  }
  {
    std::lock_guard<std::mutex> plock(punct_mu_);
    punct_sinks_ = std::move(new_punct_sinks);
  }

  // 9. Replay the SteMs step 7 did not hand over by the NEW bucket map,
  //    preserving original seqs, then jump every replica's horizon past all
  //    the exporters'. Future tuples (seq > horizon) probe replayed entries
  //    exactly like locally built state; replayed entries never probe each
  //    other, mirroring single-eddy semantics (probing happens at ingest).
  //    A failed shard's rebuilt rows take fresh seqs from the old horizon
  //    up, still below the new one.
  uint64_t replayed = 0;
  for (const std::shared_ptr<SteM>& stem : replay) {
    const Route& r = routes_.at(stem->source());
    stem->ForEachEntry([&](const Tuple& t, Timestamp seq) {
      ReplayEntry(r, stem->source(), t, seq);
    });
    replayed += stem->size();
  }
  for (const auto& [source, rows] : rebuilt) {
    const Route& r = routes_.at(source);
    for (const Tuple& t : rows) ReplayEntry(r, source, t, horizon++);
    replayed += rows.size();
  }
  stem_replayed_->Inc(replayed);
  for (Shard& sh : shards_) sh.du->eddy()->AdvanceSeqHorizon(horizon);

  // 10. Re-inject the carryover unprocessed through the new routes, then
  //     re-close the producers of closed streams (their queued tuples stay
  //     consumable, matching BoundedQueue close semantics).
  for (auto& [source, batch] : carry) {
    if (batch.empty() && batch.punctuations().empty()) continue;
    if (!routes_.contains(source)) continue;
    Full full;
    const bool fits = Check(batch, &full) == QueueOp::kOk;
    assert(fits && "carryover overflowed the resized fjords");
    if (fits) Produce(&batch);
  }
  for (auto& [source, r] : routes_) {
    if (!r.closed) continue;
    for (auto& p : r.producers) p->Close();
  }

  shard_count_gauge_->Set(static_cast<int64_t>(shards_.size()));
  repartitions_->Inc();
  int64_t paused = NowMicros() - t0;
  pause_us_->Observe(paused > 0 ? static_cast<uint64_t>(paused) : 0);
  detached_ = !attach_after;

  if (remap) remap(remap_map);
  if (attach_after) AttachShards();
}

void ShardedClass::Shutdown() {
  PauseShards(&shards_);
  for (auto& [source, r] : routes_) {
    r.closed = true;
    for (auto& p : r.producers) p->Close();
    r.shadows.clear();
  }
  shadow_rows_->Set(0);
  // Dropping the replicas drops their eddies, SteMs, and fjord consumers;
  // anything still queued had no query left to care about it.
  shards_.clear();
}

QueueOp ShardedClass::Check(const TupleBatch& batch, Full* full) {
  Route& r = routes_.at(batch.source());
  const size_t n = shards_.size();
  const size_t lane = batch.punctuations().size();
  // Partition. One pass picks every row's shard: a keyed route hashes the
  // partition key (a columnar batch's key lane) through the Flux bucket
  // map, a keyless one round-robins (single-source queries only). Bucket
  // traffic (for LPT re-partitions) counts when Produce admits the batch.
  const size_t rows = batch.size();
  if (n > 1) {
    r.picks.resize(n);
    for (size_t k = 0; k < n; ++k) r.picks[k].clear();
    const ColumnStore::Ref cols =
        batch.columnar_only() ? batch.columns() : nullptr;
    if (!r.key_attr.empty()) {
      r.bucket_rows.assign(parts_.num_buckets(), 0);
      auto pick = [&](uint32_t i, int64_t key) {
        size_t b = parts_.BucketOf(key);
        ++r.bucket_rows[b];
        r.picks[parts_.OwnerOf(b)].push_back(i);
      };
      if (cols == nullptr) {
        const Tuple* data = batch.data();
        for (uint32_t i = 0; i < rows; ++i) {
          pick(i, KeyOf(data[i].at(r.key_field)));
        }
      } else if (const Column& key = cols->column(r.key_field);
                 key.rep == ColumnRep::kInt64 && !key.is_timestamp &&
                 !key.has_nulls()) {
        for (uint32_t i = 0; i < rows; ++i) pick(i, key.i64[i]);
      } else {
        for (uint32_t i = 0; i < rows; ++i) pick(i, KeyOf(key.ValueAt(i)));
      }
    } else {
      r.bucket_rows.clear();
      uint64_t next = rr_next_.fetch_add(rows, std::memory_order_relaxed);
      for (uint32_t i = 0; i < rows; ++i) r.picks[(next + i) % n].push_back(i);
    }
  }
  // Room: every shard's part (its rows plus the whole control lane, which
  // is broadcast) must fit its fjord.
  for (size_t k = 0; k < n; ++k) {
    const size_t weight = (n == 1 ? rows : r.picks[k].size()) + lane;
    if (weight == 0) continue;
    QueueOp op = r.producers[k]->CheckRoom(weight);
    if (op != QueueOp::kOk) {
      *full = Full{k, r.producers[k], weight};
      return op;
    }
  }
  return QueueOp::kOk;
}

void ShardedClass::Produce(TupleBatch* batch) {
  Route& r = routes_.at(batch->source());
  const size_t n = shards_.size();
  if (n == 1) {
    ProduceTo(&r, 0, batch);
    UpdateOccupancy();
    return;
  }
  for (size_t b = 0; b < r.bucket_rows.size(); ++b) {
    if (r.bucket_rows[b] > 0) {
      bucket_counts_[b].fetch_add(r.bucket_rows[b], std::memory_order_relaxed);
    }
  }
  // Each shard's rows of a columnar batch are gathered into a ColumnStore
  // of their own, so no row is materialized on the pushing thread; a row
  // batch moves its rows. Control broadcast: data rows PARTITION,
  // punctuations go to EVERY shard (each replica needs the watermark; the
  // merge min-combines their reports, so a shard missing the broadcast
  // would pin the class watermark at kMinTimestamp forever). Duplicate
  // deliveries are idempotent — watermarks are monotone maxes.
  const ColumnStore::Ref cols =
      batch->columnar_only() ? batch->columns() : nullptr;
  Tuple* data = cols == nullptr ? batch->data() : nullptr;
  for (size_t k = 0; k < n; ++k) {
    const std::vector<uint32_t>& mine = r.picks[k];
    TupleBatch part(batch->source());
    if (cols != nullptr && !mine.empty()) {
      part = TupleBatch(batch->source(),
                        cols->Gather(mine.data(), mine.size()));
    } else {
      part.reserve(mine.size());
      for (uint32_t i : mine) part.push_back(std::move(data[i]));
    }
    for (const Punctuation& p : batch->punctuations()) part.AddPunctuation(p);
    if (!part.empty() || !part.punctuations().empty()) ProduceTo(&r, k, &part);
  }
  batch->clear();
  UpdateOccupancy();
}

void ShardedClass::ProduceTo(Route* r, size_t k, TupleBatch* part) {
  const size_t rows = part->size();
  if (!r->shadows.empty()) {
    // Shadow first: Check made room. A const view keeps a gathered part's
    // columns beside the materialized rows.
    Shadow& s = *r->shadows[k];
    const TupleBatch& view = *part;
    s.rows.insert(s.rows.end(), view.begin(), view.end());
    shadow_rows_->Add(static_cast<int64_t>(rows));
    s.since_trim += rows;
  }
  QueueOp op = r->producers[k]->ProduceBatch(part);
  assert(op == QueueOp::kOk && "a checked part did not fit its fjord");
  (void)op;
  shards_[k].ingest->Inc(rows);
  if (!r->shadows.empty() && r->shadows[k]->since_trim >= kShadowTrimEvery) {
    r->shadows[k]->since_trim = 0;
    TrimShadow(*r, k, r->shadows[k].get());
  }
}

size_t ShardedClass::ShardOf(const Route& r, const Tuple& t) const {
  if (r.key_attr.empty() || shards_.size() < 2) return 0;
  return parts_.OwnerOf(parts_.BucketOf(KeyOf(t.at(r.key_field))));
}

size_t ShardedClass::EvictedPrefix(const Route& r, size_t k,
                                   const std::deque<Tuple>& rows,
                                   size_t consumed) {
  // At >= 2 shards a keyless stream is one no join keeps in a SteM.
  if (r.key_attr.empty()) return consumed;
  // The SteM's own rules, front first: FIFO count on build, then the
  // window at the joint watermark the shard last applied.
  const StemOptions& o = r.stem_opts;
  size_t evicted = 0;
  if (o.max_count > 0 && consumed > o.max_count) {
    evicted = consumed - o.max_count;
  }
  if (o.window > 0) {
    Timestamp wm;
    {
      std::lock_guard<std::mutex> lock(punct_mu_);
      wm = merged_wm_.ShardGlobalWatermark(k);
    }
    if (wm != kMinTimestamp) {
      Timestamp cutoff = wm - o.window;
      while (evicted < consumed && rows[evicted].timestamp() <= cutoff) {
        ++evicted;
      }
    }
  }
  return evicted;
}

void ShardedClass::TrimShadow(const Route& r, size_t k, Shadow* s) {
  // The fjord also counts queued lane entries, so `consumed` can only come
  // out low: a trim never drops a row the shard has not consumed.
  size_t queued = r.fjords[k]->size();
  size_t consumed = s->rows.size() > queued ? s->rows.size() - queued : 0;
  size_t evicted = EvictedPrefix(r, k, s->rows, consumed);
  s->rows.erase(s->rows.begin(),
                s->rows.begin() + static_cast<ptrdiff_t>(evicted));
  shadow_rows_->Add(-static_cast<int64_t>(evicted));
}

void ShardedClass::SeedShadow(const Route& r, size_t k, const Tuple& t) {
  if (r.shadows.empty()) return;
  r.shadows[k]->rows.push_back(t);
  shadow_rows_->Add(1);
}

void ShardedClass::OnShardPunctuation(size_t shard, const Punctuation& p) {
  // EO-thread context (during a shard eddy's IngestBatch). Deliveries stay
  // under punct_mu_ so every sink observes a monotone punctuation sequence.
  // Every shard flushed its runs before reporting (the DU's control sink),
  // so no result of a row the merged watermark covers can trail it.
  std::lock_guard<std::mutex> lock(punct_mu_);
  std::optional<Timestamp> merged = merged_wm_.Observe(shard, p);
  if (!merged.has_value()) return;
  const std::vector<Tuple> punct{Tuple::MakePunctuation(p.source, *merged)};
  for (auto& [local, binding] : punct_sinks_) {
    binding.second(binding.first, punct);
  }
}

Timestamp ShardedClass::merged_watermark(SourceId source) {
  std::lock_guard<std::mutex> lock(punct_mu_);
  return merged_wm_.MergedOf(source);
}

void ShardedClass::UpdateOccupancy() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    int64_t depth = 0;
    for (const auto& [source, r] : routes_) {
      if (k < r.fjords.size()) {
        depth += static_cast<int64_t>(r.fjords[k]->size());
      }
    }
    shards_[k].occupancy->Set(depth);
  }
}

uint64_t ShardedClass::TakeProgressDelta(size_t shard) {
  Shard& sh = shards_[shard];
  uint64_t now = sh.du->progress_steps();
  uint64_t delta = now - sh.last_progress;
  sh.last_progress = now;
  return delta;
}

Status ShardedClass::CheckpointTo(CheckpointWriter* w) {
  // The executor drained the shard fjords first (tuples still queued would
  // sit below the spool's recorded replay position and be lost), so with
  // ingest blocked the paused replicas are fully quiescent.
  PauseShards(&shards_);
  // State only: a restore re-submits the member queries before loading it.
  w->BeginSection("class", 2);
  // The Flux partition map (bucket -> shard).
  w->PutU32(static_cast<uint32_t>(parts_.num_buckets()));
  for (size_t b = 0; b < parts_.num_buckets(); ++b) {
    w->PutU32(static_cast<uint32_t>(parts_.OwnerOf(b)));
  }
  // Every route's SteM entries, flat across shards with ORIGINAL seqs.
  // Mixing the per-shard seq spaces is the same move Repartition makes:
  // replayed entries never probe each other, and the horizon jump keeps
  // them visible to all future tuples.
  Timestamp horizon = 1;
  for (Shard& sh : shards_) {
    horizon = std::max(horizon, sh.du->eddy()->seq_horizon());
  }
  w->PutU32(static_cast<uint32_t>(routes_.size()));
  for (const auto& [source, r] : routes_) {
    w->PutU32(source);
    uint64_t entries = 0;
    for (Shard& sh : shards_) {
      if (SteM* stem = sh.du->eddy()->GetSteM(source)) entries += stem->size();
    }
    w->PutU64(entries);
    for (Shard& sh : shards_) {
      SteM* stem = sh.du->eddy()->GetSteM(source);
      if (stem == nullptr) continue;
      stem->ForEachEntry([&](const Tuple& t, Timestamp seq) {
        w->PutTuple(t);
        w->PutI64(seq);
      });
    }
  }
  w->PutTimestamp(horizon);
  w->EndSection();
  AttachShards();
  return Status::OK();
}

uint64_t ShardedClass::Restore(const std::vector<uint32_t>& owner,
                               const StemEntries& entries,
                               Timestamp horizon) {
  size_t shards = shards_.size();
  for (size_t b = 0; b < owner.size() && b < parts_.num_buckets(); ++b) {
    parts_.Reassign(b, owner[b] % shards);
  }
  uint64_t placed = 0;
  for (const auto& [source, list] : entries) {
    auto rit = routes_.find(source);
    if (rit == routes_.end()) continue;
    for (const StemEntry& e : list) {
      ReplayEntry(rit->second, source, e.tuple, e.seq);
    }
    placed += list.size();
  }
  stem_replayed_->Inc(placed);
  for (Shard& sh : shards_) sh.du->eddy()->AdvanceSeqHorizon(horizon);
  return placed;
}

}  // namespace tcq
