#include "cacq/shared_eddy.h"

#include <cassert>

#include "obs/trace.h"

namespace tcq {

// --- GroupedFilterModule ----------------------------------------------------

ModuleAction GroupedFilterModule::Process(SharedEnvelope* env,
                                          std::vector<SharedEnvelope>*) {
  const Value* v = ResolveAttr(env->tuple, filter_.attr());
  assert(v != nullptr && "grouped-filter attribute missing");
  matched_scratch_ = QuerySet();
  filter_.Match(*v, &matched_scratch_);
  // Kill interested queries whose factors failed: live -= (interested \ matched).
  QuerySet to_kill = filter_.interested();
  to_kill.SubtractWith(matched_scratch_);
  env->live.SubtractWith(to_kill);
  return env->live.Empty() ? ModuleAction::kDrop : ModuleAction::kPass;
}

// --- SharedSteMProbe --------------------------------------------------------

SharedSteMProbe::SharedSteMProbe(std::string name, SteM* stem,
                                 AttrRef probe_key, AttrRef build_key)
    : SharedModule(std::move(name)),
      stem_(stem),
      probe_key_(std::move(probe_key)),
      build_key_(std::move(build_key)) {
  stem_->EnsureIndex(build_key_.name);
}

SchemaRef SharedSteMProbe::ConcatSchemaFor(const SchemaRef& input) {
  for (const auto& [cached_input, cached] : schema_cache_) {
    if (cached_input == input) return cached;
  }
  SchemaRef out = Schema::Concat(input, stem_->schema());
  if (schema_cache_.size() == kSchemaCacheSlots) {
    schema_cache_.erase(schema_cache_.begin());
  }
  schema_cache_.emplace_back(input, out);
  return out;
}

ModuleAction SharedSteMProbe::Process(SharedEnvelope* env,
                                      std::vector<SharedEnvelope>* out) {
  QuerySet child_live = env->live;
  child_live.IntersectWith(subscribers_);
  if (!child_live.Empty()) {
    const Value* key = ResolveAttr(env->tuple, probe_key_);
    assert(key != nullptr && "probe key attribute missing");
    scratch_.clear();
    // An equi-join edge compares as EvalCmp does: a null key equals
    // nothing, not even a stored null.
    if (!key->is_null()) {
      stem_->ProbeEq(build_key_.name, *key, env->seq_max, &scratch_);
    }
    if (!scratch_.empty()) {
      SchemaRef out_schema = ConcatSchemaFor(env->tuple.schema());
      for (const StemEntry* e : scratch_) {
        SharedEnvelope child;
        child.tuple = Tuple::Concat(env->tuple, e->tuple, out_schema);
        child.seq_max = std::max(env->seq_max, e->seq);
        child.live = child_live;
        out->push_back(std::move(child));
      }
    }
  }
  // The parent always continues: it may still satisfy queries with narrower
  // footprints (single-stream queries over the same source).
  return ModuleAction::kPass;
}

// --- ResidualFilterModule ---------------------------------------------------

void ResidualFilterModule::AddResidual(QueryId q, PredicateRef pred) {
  residuals_.emplace_back(q, std::move(pred));
  interested_.Add(q);
}

void ResidualFilterModule::RemoveQuery(QueryId q) {
  std::erase_if(residuals_,
                [q](const auto& pair) { return pair.first == q; });
  interested_.Remove(q);
}

ModuleAction ResidualFilterModule::Process(SharedEnvelope* env,
                                           std::vector<SharedEnvelope>*) {
  for (const auto& [q, pred] : residuals_) {
    if (!env->live.Contains(q)) continue;
    if (!pred->Eval(env->tuple)) env->live.Remove(q);
  }
  return env->live.Empty() ? ModuleAction::kDrop : ModuleAction::kPass;
}

// --- SharedEddy ---------------------------------------------------------

SharedEddy::SharedEddy(std::unique_ptr<RoutingPolicy> policy,
                       MetricsRegistryRef metrics, std::string label)
    : policy_(std::move(policy)),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      label_(std::move(label)) {
  routing_decisions_ = metrics_->GetCounter(
      MetricName("tcq_shared_eddy_routing_decisions_total", "eddy", label_));
  routing_decisions_reused_ = metrics_->GetCounter(MetricName(
      "tcq_shared_eddy_routing_decisions_reused_total", "eddy", label_));
  module_invocations_ = metrics_->GetCounter(
      MetricName("tcq_shared_eddy_module_invocations_total", "eddy", label_));
  deliveries_ = metrics_->GetCounter(
      MetricName("tcq_shared_eddy_deliveries_total", "eddy", label_));
}

void SharedEddy::RegisterStream(SourceId source, SchemaRef schema,
                                StemOptions stem_opts) {
  StreamInfo info;
  info.schema = std::move(schema);
  info.stem_opts = std::move(stem_opts);
  streams_[source] = std::move(info);
}

size_t SharedEddy::AddModule(std::unique_ptr<SharedModule> module) {
  assert(modules_.size() < 64 && "at most 64 modules per shared eddy");
  modules_.push_back(std::move(module));
  module_stats_.push_back(modules_.back().get());
  std::string slot_label = label_.empty()
                               ? modules_.back()->name()
                               : label_ + "/" + modules_.back()->name();
  slot_selectivity_permille_.push_back(metrics_->GetGauge(
      MetricName("tcq_shared_eddy_module_selectivity_permille", "module",
                 slot_label)));
  policy_->OnModuleCountChanged(modules_.size());
  return modules_.size() - 1;
}

GroupedFilterModule* SharedEddy::FilterModuleFor(const AttrRef& attr) {
  for (auto& m : modules_) {
    auto* gf = dynamic_cast<GroupedFilterModule*>(m.get());
    if (gf != nullptr && gf->attr() == attr) return gf;
  }
  auto mod = std::make_unique<GroupedFilterModule>(
      "gf(" + attr.ToString() + ")", attr);
  GroupedFilterModule* out = mod.get();
  AddModule(std::move(mod));
  return out;
}

SteM* SharedEddy::StemFor(SourceId source) {
  auto it = streams_.find(source);
  assert(it != streams_.end() && "join references an unregistered stream");
  StreamInfo& info = it->second;
  if (!info.stem) {
    std::string stem_name = "stem(s" + std::to_string(source) + ")";
    if (!label_.empty()) stem_name = label_ + "/" + stem_name;
    info.stem = std::make_shared<SteM>(std::move(stem_name), source,
                                       info.schema, info.stem_opts, metrics_);
  }
  return info.stem.get();
}

SharedSteMProbe* SharedEddy::ProbeModuleFor(const AttrRef& probe_key,
                                            const AttrRef& build_key) {
  for (auto& m : modules_) {
    auto* p = dynamic_cast<SharedSteMProbe*>(m.get());
    if (p != nullptr && p->probe_key() == probe_key &&
        p->build_key() == build_key) {
      return p;
    }
  }
  SteM* stem = StemFor(build_key.source);
  auto mod = std::make_unique<SharedSteMProbe>(
      "probe(" + build_key.ToString() + " by " + probe_key.ToString() + ")",
      stem, probe_key, build_key);
  SharedSteMProbe* out = mod.get();
  AddModule(std::move(mod));
  return out;
}

ResidualFilterModule* SharedEddy::ResidualModuleFor(SourceSet span) {
  for (auto& m : modules_) {
    auto* r = dynamic_cast<ResidualFilterModule*>(m.get());
    if (r != nullptr && r->span() == span) return r;
  }
  auto mod = std::make_unique<ResidualFilterModule>(
      "residual(span=" + std::to_string(span) + ")", span);
  ResidualFilterModule* out = mod.get();
  AddModule(std::move(mod));
  return out;
}

Result<QueryId> SharedEddy::AddQuery(CQSpec spec) {
  // Validate references before mutating shared state.
  for (const FilterFactor& f : spec.filters) {
    auto it = streams_.find(f.attr.source);
    if (it == streams_.end()) {
      return Status::NotFound("filter references unregistered stream s" +
                              std::to_string(f.attr.source));
    }
    if (!it->second.schema->IndexOf(f.attr.name, f.attr.source)) {
      return Status::NotFound("no attribute " + f.attr.ToString());
    }
  }
  for (const JoinEdge& j : spec.joins) {
    for (const AttrRef* a : {&j.left, &j.right}) {
      auto it = streams_.find(a->source);
      if (it == streams_.end()) {
        return Status::NotFound("join references unregistered stream s" +
                                std::to_string(a->source));
      }
      if (!it->second.schema->IndexOf(a->name, a->source)) {
        return Status::NotFound("no attribute " + a->ToString());
      }
    }
  }

  // A multi-stream query must be connected by equality join edges: SteMs
  // execute equijoins; a residual-only cross-source predicate would never
  // see concatenated tuples (CACQ executes joins through SteMs, §3.1).
  {
    SourceSet footprint = spec.Footprint();
    std::vector<SourceId> srcs;
    ForEachSource(footprint, [&](SourceId s) { srcs.push_back(s); });
    if (srcs.size() > 1) {
      // Union-find over sources via join edges.
      std::map<SourceId, SourceId> parent;
      for (SourceId s : srcs) parent[s] = s;
      std::function<SourceId(SourceId)> find = [&](SourceId x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
      };
      for (const JoinEdge& j : spec.joins) {
        parent[find(j.left.source)] = find(j.right.source);
      }
      for (SourceId s : srcs) {
        if (find(s) != find(srcs.front())) {
          return Status::InvalidArgument(
              "query spans disconnected streams s" +
              std::to_string(srcs.front()) + " and s" + std::to_string(s) +
              ": every stream must be reachable through equality join "
              "edges (cross products and pure non-equijoins across streams "
              "are not executable by shared SteMs)");
        }
      }
    }
  }

  QueryId id = registry_.Add(std::move(spec));
  const CQSpec& s = registry_.Get(id)->spec;
  // Pair a query's single lower and upper bound on one attribute into an
  // interval-tree range factor; everything else goes to the bound lists.
  std::map<std::pair<SourceId, std::string>, std::vector<const FilterFactor*>>
      by_attr;
  for (const FilterFactor& f : s.filters) {
    by_attr[{f.attr.source, f.attr.name}].push_back(&f);
  }
  for (const auto& [key, factors] : by_attr) {
    GroupedFilter* gf = FilterModuleFor(factors.front()->attr)->filter();
    const FilterFactor* lo = nullptr;
    const FilterFactor* hi = nullptr;
    bool other = false;
    for (const FilterFactor* f : factors) {
      if ((f->op == CmpOp::kGe || f->op == CmpOp::kGt) && lo == nullptr) {
        lo = f;
      } else if ((f->op == CmpOp::kLe || f->op == CmpOp::kLt) &&
                 hi == nullptr) {
        hi = f;
      } else {
        other = true;
      }
    }
    if (lo != nullptr && hi != nullptr && !other && factors.size() == 2) {
      gf->AddRange(id, lo->literal, lo->op == CmpOp::kGe, hi->literal,
                   hi->op == CmpOp::kLe);
    } else {
      for (const FilterFactor* f : factors) {
        gf->AddFactor(id, f->op, f->literal);
      }
    }
  }
  for (const JoinEdge& j : s.joins) {
    // Both probe directions share the two SteMs (Fig. 2 topology).
    ProbeModuleFor(j.left, j.right)->Subscribe(id);
    ProbeModuleFor(j.right, j.left)->Subscribe(id);
  }
  for (const PredicateRef& r : s.residuals) {
    ResidualModuleFor(r->sources())->AddResidual(id, r);
  }
  return id;
}

Status SharedEddy::RemoveQuery(QueryId id) {
  TCQ_RETURN_IF_ERROR(registry_.Remove(id));
  for (auto& m : modules_) {
    if (auto* gf = dynamic_cast<GroupedFilterModule*>(m.get())) {
      gf->filter()->RemoveQuery(id);
    } else if (auto* p = dynamic_cast<SharedSteMProbe*>(m.get())) {
      p->Unsubscribe(id);
    } else if (auto* r = dynamic_cast<ResidualFilterModule*>(m.get())) {
      r->RemoveQuery(id);
    }
  }
  return Status::OK();
}

void SharedEddy::Ingest(SourceId source, const Tuple& tuple) {
  if (tuple.IsPunctuation()) {
    // In-band control: never routed through modules or built into SteMs.
    Punctuation p = tuple.AsPunctuation();
    if (watermarks_.OnPunctuation(p) ==
        WatermarkTracker::PunctResult::kAdvanced) {
      if (control_sink_) control_sink_(p);
      AdvanceTime(watermarks_.GlobalWatermark());
    }
    return;
  }
  Timestamp seq = next_seq_++;
  auto it = streams_.find(source);
  assert(it != streams_.end() && "ingest on unregistered stream");
  if (it->second.stem) it->second.stem->Build(tuple, seq);

  SharedEnvelope env;
  env.tuple = tuple;
  env.seq_max = seq;
  env.live = registry_.QueriesTouching(source);
  if (env.live.Empty()) return;  // no active query cares about this stream
  queue_.push_back(std::move(env));
  if (!draining_) Drain();
}

void SharedEddy::IngestBatch(const TupleBatch& batch) {
  if (!batch.empty()) IngestBatchRows(batch);
  if (!batch.punctuations().empty()) ApplyPunctuations(batch);
}

void SharedEddy::ApplyPunctuations(const TupleBatch& batch) {
  // The lane applies after the rows (its contract). Advanced watermarks
  // fan out to the control sink; once all are applied, event-time SteM
  // eviction runs at the new joint watermark (a no-op for unwindowed SteMs).
  bool advanced = false;
  for (const Punctuation& p : batch.punctuations()) {
    if (watermarks_.OnPunctuation(p) ==
        WatermarkTracker::PunctResult::kAdvanced) {
      advanced = true;
      if (control_sink_) control_sink_(p);
    }
  }
  if (advanced) AdvanceTime(watermarks_.GlobalWatermark());
}

void SharedEddy::IngestBatchRows(const TupleBatch& batch) {
  auto it = streams_.find(batch.source());
  assert(it != streams_.end() && "ingest on unregistered stream");
  SteM* stem = it->second.stem.get();
  // One lineage computation for the whole batch (the registry cannot change
  // mid-call: queries are added/removed between ingests).
  const QuerySet live = registry_.QueriesTouching(batch.source());
  const size_t n = batch.size();

  // Sequence numbers are assigned to EVERY row up front — including rows the
  // prefilter will drop — so SteM builds and probe bounds see exactly the
  // numbering per-tuple ingest would have produced.
  const Timestamp seq0 = next_seq_;
  next_seq_ += static_cast<Timestamp>(n);

  // Hoisted build loop: every tuple enters the SteM before any probing.
  // Safe ahead-of-probe because ProbeEq bounds matches by sequence number,
  // so an envelope never joins with same-batch successors. (SteM insert is
  // one of the two row-materializing boundaries of DESIGN.md §11; each row
  // is materialized once and shared with its envelope below.)
  if (stem != nullptr) {
    built_rows_.clear();
    built_rows_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      built_rows_.push_back(batch.RowAt(i));
      stem->Build(built_rows_.back(), seq0 + static_cast<Timestamp>(i));
    }
  }
  if (live.Empty()) {  // no active query cares about this stream
    built_rows_.clear();
    return;
  }

  // Columnar prefilter (DESIGN.md §11): every grouped-filter module the
  // whole batch must visit is evaluated once per COLUMN with the compiled
  // kernels, instead of once per row inside Drain. Each row's live set is
  // narrowed exactly as GroupedFilterModule::Process would (the eddy's
  // module-commutativity makes the forced ordering result-neutral), the
  // module's done bit is set batch-wide, and rows whose live set empties
  // are dropped here — never materialized into Tuples, never enqueued.
  uint64_t prefilter_done = 0;
  bool prefiltered = false;
  if (n >= kPrefilterMinRows) {
    const ColumnStore::Ref& cols = batch.columns();
    if (cols != nullptr) {
      obs::TraceContext& tc = obs::CurrentTrace();
      prefiltered = true;
      prefilter_live_.assign(n, live);
      prefilter_hops_.assign(n, 0);
      const SourceSet span = cols->schema()->sources();
      for (size_t slot = 0; slot < modules_.size(); ++slot) {
        auto* gfm = dynamic_cast<GroupedFilterModule*>(modules_[slot].get());
        if (gfm == nullptr) continue;
        const AttrRef& attr = gfm->attr();
        if ((span & SourceBit(attr.source)) == 0) continue;
        const QuerySet& interested = gfm->filter()->interested();
        if (!live.Intersects(interested)) continue;
        auto col_idx = cols->schema()->IndexOf(attr.name, attr.source);
        if (!col_idx) continue;

        int64_t hop_t0 = tc.tracer != nullptr ? NowMicros() : 0;
        prefilter_matched_.assign(n, QuerySet());
        gfm->filter()->MatchBatch(cols->column(*col_idx), n,
                                  prefilter_matched_.data());
        size_t invocations = 0;
        for (size_t r = 0; r < n; ++r) {
          // Rows already dead were dropped by an earlier module; the scalar
          // engine would never have routed them here.
          if (prefilter_live_[r].Empty()) continue;
          QuerySet to_kill = interested;
          to_kill.SubtractWith(prefilter_matched_[r]);
          prefilter_live_[r].SubtractWith(to_kill);
          ++prefilter_hops_[r];
          ModuleAction action = prefilter_live_[r].Empty()
                                    ? ModuleAction::kDrop
                                    : ModuleAction::kPass;
          gfm->RecordResult(action, 0);
          policy_->OnResult(slot, action, 0);
          if (action == ModuleAction::kDrop && tc.tracer != nullptr) {
            tc.tracer->RecordHopCount(prefilter_hops_[r]);
          }
          ++invocations;
        }
        module_invocations_->Inc(invocations);
        prefilter_done |= uint64_t{1} << slot;
        slot_selectivity_permille_[slot]->Set(static_cast<int64_t>(
            module_stats_[slot]->ObservedSelectivity() * 1000.0));
        if (tc.tracer != nullptr) {
          // One batched hop span covers the whole column sweep.
          tc.tracer->RecordHop(slot, gfm->name(), hop_t0,
                               NowMicros() - hop_t0);
        }
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (prefiltered && prefilter_live_[i].Empty()) continue;
    SharedEnvelope env;
    env.tuple = stem != nullptr ? std::move(built_rows_[i]) : batch.RowAt(i);
    env.seq_max = seq0 + static_cast<Timestamp>(i);
    env.done = prefilter_done;
    if (prefiltered) {
      env.live = std::move(prefilter_live_[i]);
      env.hops = prefilter_hops_[i];
    } else {
      env.live = live;
    }
    queue_.push_back(std::move(env));
  }
  built_rows_.clear();
  if (!draining_ && !queue_.empty()) Drain();
}

SteM* SharedEddy::GetSteM(SourceId source) const {
  auto it = streams_.find(source);
  if (it == streams_.end()) return nullptr;
  return it->second.stem.get();
}

void SharedEddy::BackfillSteM(SourceId source,
                              const std::vector<Tuple>& history) {
  SteM* stem = GetSteM(source);
  assert(stem != nullptr && "backfill requires an existing SteM");
  for (const Tuple& t : history) stem->Build(t, next_seq_++);
}

void SharedEddy::BuildHistorical(SourceId source, const Tuple& tuple,
                                 Timestamp seq) {
  SteM* stem = GetSteM(source);
  if (stem == nullptr) return;  // no join touches the stream in this replica
  stem->Build(tuple, seq);
}

std::shared_ptr<SteM> SharedEddy::ShareSteM(SourceId source) const {
  assert(queue_.empty() && !draining_ && "sharing a SteM needs quiescence");
  auto it = streams_.find(source);
  return it == streams_.end() ? nullptr : it->second.stem;
}

void SharedEddy::AdoptSteM(SourceId source, std::shared_ptr<SteM> stem) {
  auto it = streams_.find(source);
  assert(it != streams_.end() && it->second.stem == nullptr &&
         "adopting a SteM needs a registered stream without one");
  if (stem == nullptr) {
    (void)StemFor(source);
    return;
  }
  it->second.stem = std::move(stem);
}

void SharedEddy::AdvanceTime(Timestamp now) {
  for (auto& [source, info] : streams_) {
    if (info.stem) info.stem->AdvanceTime(now);
  }
}

bool SharedEddy::ComputeReady(const SharedEnvelope& env,
                              std::vector<size_t>* ready) const {
  ready->clear();
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (env.done & (uint64_t{1} << i)) continue;
    if (modules_[i]->AppliesTo(env)) ready->push_back(i);
  }
  return !ready->empty();
}

void SharedEddy::DeliverIfComplete(SharedEnvelope&& env) {
  // Deliver to every still-live, still-active query whose footprint the
  // tuple exactly spans (wider-footprint queries needed more joins; their
  // results are the composites).
  SourceSet span = env.tuple.sources();
  env.live.IntersectWith(registry_.active());
  env.live.ForEach([&](QueryId q) {
    const RegisteredQuery* rq = registry_.Get(q);
    if (rq->footprint != span) return;
    deliveries_->Inc();
    ++registry_.GetMutable(q)->results_delivered;
    if (sink_) sink_(q, env.tuple);
  });
}

void SharedEddy::Drain() {
  draining_ = true;
  // Bound once per drain: non-null only inside a sampled trace batch.
  obs::TraceContext& tc = obs::CurrentTrace();
  // Drain-scoped routing-decision cache: envelopes with identical lineage
  // (done-set, live-set, span) see the same ready set, so both the ready
  // computation and the last ranked slot apply verbatim — including across
  // the several hops a tuple makes through a bank of modules, since each
  // hop's lineage key maps to its own cache slot. Per-tuple Ingest drains
  // after every tuple, so the big wins come from IngestBatch, where the
  // envelopes of a batch walk identical hop sequences. Bumping the
  // generation empties the whole cache at once; this happens on expansion
  // (SteM feedback mid-batch): new children change the policy's observed
  // stats, so later envelopes fall back to fresh per-tuple ranking.
  ++drain_generation_;
  while (!queue_.empty()) {
    SharedEnvelope env = std::move(queue_.front());
    queue_.pop_front();

    while (true) {
      SourceSet span = env.tuple.sources();
      CachedDecision& entry = decision_cache_[DecisionCacheIndex(env.done, span)];
      bool fresh = entry.generation != drain_generation_ ||
                   entry.done != env.done || entry.span != span ||
                   !(entry.live == env.live);
      size_t slot;
      if (fresh) {
        entry.generation = drain_generation_;
        entry.done = env.done;
        entry.span = span;
        entry.live = env.live;
        entry.has_ready = ComputeReady(env, &ready_scratch_);
        if (!entry.has_ready) {
          if (tc.tracer != nullptr) tc.tracer->RecordHopCount(env.hops);
          DeliverIfComplete(std::move(env));
          break;
        }
        order_scratch_.clear();
        policy_->Rank(ready_scratch_, module_stats_, &order_scratch_);
        routing_decisions_->Inc();
        slot = order_scratch_.front();
        entry.slot = slot;
      } else {
        if (!entry.has_ready) {
          if (tc.tracer != nullptr) tc.tracer->RecordHopCount(env.hops);
          DeliverIfComplete(std::move(env));
          break;
        }
        slot = entry.slot;
        routing_decisions_reused_->Inc();
      }
      module_invocations_->Inc();
      out_scratch_.clear();
      int64_t hop_t0 = tc.tracer != nullptr ? NowMicros() : 0;
      ModuleAction action = modules_[slot]->Process(&env, &out_scratch_);
      ++env.hops;
      if (tc.tracer != nullptr) {
        tc.tracer->RecordHop(slot, modules_[slot]->name(), hop_t0,
                             NowMicros() - hop_t0);
      }
      if (!out_scratch_.empty()) ++drain_generation_;
      // For stats/ticket purposes a probe that emitted children counts as an
      // expansion even though the parent keeps routing.
      ModuleAction stats_action =
          out_scratch_.empty() ? action : ModuleAction::kExpand;
      modules_[slot]->RecordResult(stats_action, out_scratch_.size());
      policy_->OnResult(slot, stats_action, out_scratch_.size());
      if (fresh || !out_scratch_.empty()) {
        // The selectivity gauge is pure observability; refreshing it on
        // fresh decisions (and expansions) keeps it current without paying
        // the float math on every cached invocation.
        slot_selectivity_permille_[slot]->Set(static_cast<int64_t>(
            module_stats_[slot]->ObservedSelectivity() * 1000.0));
      }
      for (SharedEnvelope& child : out_scratch_) {
        child.done |= env.done | (uint64_t{1} << slot);
        child.hops = env.hops;
        queue_.push_back(std::move(child));
      }
      if (action == ModuleAction::kDrop) {
        if (tc.tracer != nullptr) tc.tracer->RecordHopCount(env.hops);
        break;
      }
      env.done |= (uint64_t{1} << slot);
      // kPass: continue routing the (narrowed) envelope.
    }
  }
  draining_ = false;
}

}  // namespace tcq
