#include "stem/stem.h"

#include <cassert>

#include "obs/trace.h"

namespace tcq {

SteM::SteM(std::string name, SourceId source, SchemaRef schema,
           StemOptions opts, MetricsRegistryRef metrics)
    : name_(std::move(name)),
      source_(source),
      schema_(std::move(schema)),
      opts_(std::move(opts)),
      metrics_(OrPrivateRegistry(std::move(metrics))) {
  builds_ = metrics_->GetCounter(
      MetricName("tcq_stem_builds_total", "stem", name_));
  probes_ = metrics_->GetCounter(
      MetricName("tcq_stem_probes_total", "stem", name_));
  matches_ = metrics_->GetCounter(
      MetricName("tcq_stem_matches_total", "stem", name_));
  evictions_ = metrics_->GetCounter(
      MetricName("tcq_stem_evictions_total", "stem", name_));
  live_entries_ = metrics_->GetGauge(
      MetricName("tcq_stem_live_entries", "stem", name_));
  if (!opts_.key_attr.empty()) EnsureIndex(opts_.key_attr);
}

size_t SteM::ResolveField(const std::string& attr) const {
  auto idx = schema_->IndexOf(attr, source_);
  if (!idx) idx = schema_->IndexOf(attr);
  assert(idx.has_value() && "SteM index attribute not in schema");
  return *idx;
}

SteM::AttrIndex* SteM::FindIndex(const std::string& attr) {
  for (AttrIndex& ai : indexes_) {
    if (ai.attr == attr) return &ai;
  }
  return nullptr;
}

void SteM::EnsureIndex(const std::string& attr) {
  if (FindIndex(attr) != nullptr) return;
  AttrIndex ai;
  ai.attr = attr;
  ai.field = ResolveField(attr);
  // Backfill from live entries so late index creation sees earlier builds.
  for (uint64_t id = log_.base(); id < log_.end(); ++id) {
    ai.index.Insert(log_.Get(id).tuple.at(ai.field), id);
  }
  indexes_.push_back(std::move(ai));
}

void SteM::Build(const Tuple& tuple, Timestamp seq) {
  builds_->Inc();
  obs::TraceContext& tc = obs::CurrentTrace();
  int64_t t0 = tc.tracer != nullptr ? NowMicros() : 0;
  uint64_t id = log_.Append(StemEntry{tuple, seq});
  for (AttrIndex& ai : indexes_) ai.index.Insert(tuple.at(ai.field), id);
  EnforceCapacity();
  live_entries_->Set(static_cast<int64_t>(log_.size()));
  if (tc.tracer != nullptr) {
    tc.tracer->Record(obs::SpanKind::kStemBuild, source_, 0, t0,
                      NowMicros() - t0);
  }
}

void SteM::EnforceCapacity() {
  if (opts_.max_count == 0) return;
  while (log_.size() > opts_.max_count) {
    log_.PopFront();
    evictions_->Inc();
  }
}

void SteM::ProbeEq(const Value& key, Timestamp seq_bound,
                   std::vector<const StemEntry*>* out) {
  assert(!opts_.key_attr.empty() &&
         "default ProbeEq requires a key_attr; use the attr overload");
  ProbeEq(opts_.key_attr, key, seq_bound, out);
}

void SteM::ProbeEq(const std::string& attr, const Value& key,
                   Timestamp seq_bound, std::vector<const StemEntry*>* out) {
  AttrIndex* ai = FindIndex(attr);
  assert(ai != nullptr && "ProbeEq on unindexed attribute");
  probes_->Inc();
  obs::TraceContext& tc = obs::CurrentTrace();
  int64_t t0 = tc.tracer != nullptr ? NowMicros() : 0;
  scratch_ids_.clear();
  ai->index.Lookup(key, log_, &scratch_ids_);
  for (uint64_t id : scratch_ids_) {
    if (!log_.IsLive(id)) continue;
    const StemEntry& e = log_.Get(id);
    if (e.seq < seq_bound) {
      out->push_back(&e);
      matches_->Inc();
    }
  }
  if (tc.tracer != nullptr) {
    tc.tracer->Record(obs::SpanKind::kStemProbe, source_, 0, t0,
                      NowMicros() - t0);
  }
}

void SteM::ProbeScan(Timestamp seq_bound, std::vector<const StemEntry*>* out) {
  probes_->Inc();
  obs::TraceContext& tc = obs::CurrentTrace();
  int64_t t0 = tc.tracer != nullptr ? NowMicros() : 0;
  for (uint64_t id = log_.base(); id < log_.end(); ++id) {
    const StemEntry& e = log_.Get(id);
    if (e.seq < seq_bound) {
      out->push_back(&e);
      matches_->Inc();
    }
  }
  if (tc.tracer != nullptr) {
    tc.tracer->Record(obs::SpanKind::kStemProbe, source_, 0, t0,
                      NowMicros() - t0);
  }
}

void SteM::AdvanceTime(Timestamp now) {
  if (opts_.window == 0) return;
  Timestamp cutoff = now - opts_.window;
  while (!log_.empty() && log_.Front().tuple.timestamp() <= cutoff) {
    log_.PopFront();
    evictions_->Inc();
  }
  live_entries_->Set(static_cast<int64_t>(log_.size()));
}

void SteM::ExportTo(CheckpointWriter* w) const {
  w->PutU32(source_);
  w->PutU64(log_.size());
  ForEachEntry([w](const Tuple& tuple, Timestamp seq) {
    w->PutTuple(tuple);
    w->PutI64(seq);
  });
}

Status SteM::RestoreFrom(CheckpointReader* r) {
  TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
  if (source != source_) {
    return Status::IOError("stem checkpoint is for source " +
                           std::to_string(source) + ", restoring source " +
                           std::to_string(source_));
  }
  if (!log_.empty()) {
    return Status::FailedPrecondition(
        "stem restore requires an empty SteM (" + name_ + " has " +
        std::to_string(log_.size()) + " entries)");
  }
  TCQ_ASSIGN_OR_RETURN(uint64_t count, r->GetU64());
  for (uint64_t i = 0; i < count; ++i) {
    TCQ_ASSIGN_OR_RETURN(Tuple tuple, r->GetTuple());
    TCQ_ASSIGN_OR_RETURN(int64_t seq, r->GetI64());
    Build(tuple, seq);
  }
  return Status::OK();
}

}  // namespace tcq
