#include "window/window_exec.h"

#include <algorithm>
#include <cassert>

namespace tcq {

void StreamHistory::Append(const Tuple& tuple) {
  if (tuples_.empty() || tuples_.back().timestamp() <= tuple.timestamp()) {
    tuples_.push_back(tuple);
    return;
  }
  // Slightly out-of-order arrival: insert at the right position.
  auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), tuple.timestamp(),
      [](Timestamp ts, const Tuple& t) { return ts < t.timestamp(); });
  tuples_.insert(it, tuple);
}

void StreamHistory::Range(Timestamp l, Timestamp r,
                          std::vector<Tuple>* out) const {
  auto lo = std::lower_bound(
      tuples_.begin(), tuples_.end(), l,
      [](const Tuple& t, Timestamp ts) { return t.timestamp() < ts; });
  for (auto it = lo; it != tuples_.end() && it->timestamp() <= r; ++it) {
    out->push_back(*it);
  }
}

void StreamHistory::PruneBefore(Timestamp cutoff) {
  while (!tuples_.empty() && tuples_.front().timestamp() < cutoff) {
    tuples_.pop_front();
  }
}

SourceSet WindowedQuery::Sources() const {
  SourceSet s = 0;
  for (const WindowIs& w : loop.windows) s |= SourceBit(w.source);
  return s;
}

namespace {

/// Joins one window instance's per-source contents depth-first, in the
/// nested-loop output order. Each predicate runs once per candidate, at the
/// first depth whose span covers it: predicates one tuple covers filter
/// their source's contents up front, the rest run on the concatenated
/// candidate. A predicate no depth covers (its source is not bound by the
/// loop) never runs. Concatenated schemas are built once per depth.
class InstanceJoin {
 public:
  InstanceJoin(std::vector<std::vector<Tuple>> contents,
               const std::vector<PredicateRef>& predicates)
      : contents_(std::move(contents)), schemas_(contents_.size()) {
    for (const PredicateRef& p : predicates) {
      predicates_.emplace_back(p->sources(), p.get());
    }
  }

  void Run(std::vector<Tuple>* out) {
    for (std::vector<Tuple>& tuples : contents_) {
      std::erase_if(tuples, [&](const Tuple& t) { return !Admits(t); });
      if (tuples.empty()) return;  // empty join input
    }
    out_ = out;
    for (const Tuple& t : contents_[0]) Extend(1, t);
  }

 private:
  static bool Covers(SourceSet span, SourceSet needed) {
    return (needed & ~span) == 0;
  }

  /// The prefilter: every predicate `t` alone covers.
  bool Admits(const Tuple& t) const {
    for (const auto& [needed, p] : predicates_) {
      if (Covers(t.sources(), needed) && !p->Eval(t)) return false;
    }
    return true;
  }

  /// The predicates `acc` and `t` cover together but neither alone, on
  /// their concatenation `joined`.
  bool Matches(SourceSet acc, SourceSet t, const Tuple& joined) const {
    for (const auto& [needed, p] : predicates_) {
      if (Covers(acc | t, needed) && !Covers(acc, needed) &&
          !Covers(t, needed) && !p->Eval(joined)) {
        return false;
      }
    }
    return true;
  }

  void Extend(size_t depth, const Tuple& acc) {
    if (depth == contents_.size()) {
      out_->push_back(acc);
      return;
    }
    for (const Tuple& t : contents_[depth]) {
      Tuple next = Tuple::Concat(acc, t, ConcatSchema(depth, acc, t));
      if (Matches(acc.sources(), t.sources(), next)) Extend(depth + 1, next);
    }
  }

  const SchemaRef& ConcatSchema(size_t depth, const Tuple& acc,
                                const Tuple& t) {
    CachedSchema& c = schemas_[depth];
    if (c.left != acc.schema() || c.right != t.schema()) {
      c.left = acc.schema();
      c.right = t.schema();
      c.out = Schema::Concat(c.left, c.right);
    }
    return c.out;
  }

  /// Holding the inputs keeps their addresses from being reused.
  struct CachedSchema {
    SchemaRef left, right, out;
  };

  std::vector<std::vector<Tuple>> contents_;
  std::vector<std::pair<SourceSet, const Predicate*>> predicates_;
  std::vector<CachedSchema> schemas_;
  std::vector<Tuple>* out_ = nullptr;
};

WindowResult EvaluateInstance(const WindowedQuery& query,
                              const WindowInstance& inst,
                              const std::map<SourceId, StreamHistory>& hist) {
  WindowResult result;
  result.t = inst.t;
  std::vector<std::vector<Tuple>> contents;
  for (const auto& [source, range] : inst.ranges) {
    contents.emplace_back();
    auto it = hist.find(source);
    if (it != hist.end()) {
      it->second.Range(range.first, range.second, &contents.back());
    }
    if (contents.back().empty()) return result;  // empty join input
  }
  InstanceJoin(std::move(contents), query.predicates).Run(&result.tuples);
  return result;
}

}  // namespace

std::vector<WindowResult> RunOverHistory(
    const WindowedQuery& query,
    const std::map<SourceId, StreamHistory>& history, uint64_t max_windows) {
  std::vector<WindowResult> out;
  WindowIterator iter(query.loop);
  for (uint64_t n = 0; iter.HasNext() && n < max_windows; ++n) {
    out.push_back(EvaluateInstance(query, iter.Next(), history));
  }
  return out;
}

OnlineWindowRunner::OnlineWindowRunner(WindowedQuery query, Options opts)
    : query_(std::move(query)), opts_(opts), iter_(query_.loop) {
  if (iter_.HasNext()) pending_ = iter_.Next();
  for (const WindowIs& w : query_.loop.windows) {
    AdmissionFor(SourceBit(w.source));
  }
}

bool OnlineWindowRunner::Admission::Admits(const Tuple& t) const {
  for (const Lane& lane : lanes) {
    for (const CompareConst* f : lane.factors) {
      if (!f->Eval(t)) return false;
    }
  }
  return RowsAdmit(t);
}

bool OnlineWindowRunner::Admission::RowsAdmit(const Tuple& t) const {
  for (const Predicate* p : rows) {
    if (!p->Eval(t)) return false;
  }
  return true;
}

const OnlineWindowRunner::Admission& OnlineWindowRunner::AdmissionFor(
    SourceSet span) {
  auto [it, fresh] = admission_.try_emplace(span);
  if (!fresh) return it->second;
  Admission& adm = it->second;
  for (const PredicateRef& p : query_.predicates) {
    if ((p->sources() & ~span) != 0) continue;  // a lone row cannot cover it
    auto* f = dynamic_cast<const CompareConst*>(p.get());
    if (f == nullptr) {
      adm.rows.push_back(p.get());
      continue;
    }
    auto lane = std::find_if(adm.lanes.begin(), adm.lanes.end(),
                             [&](const Admission::Lane& l) {
                               return l.attr == f->attr();
                             });
    if (lane == adm.lanes.end()) {
      lane = adm.lanes.insert(
          adm.lanes.end(),
          Admission::Lane{f->attr(), GroupedFilter(f->attr()), {}});
    }
    lane->filter.AddFactor(0, f->op(), f->literal());
    lane->factors.push_back(f);
  }
  return adm;
}

void OnlineWindowRunner::CheckTimestamps(SourceId source, const Timestamp* ts,
                                         size_t n, uint8_t* keep) {
  if (query_.loop.semantics == TimeSemantics::kArrival) {
    // Every row advances the watermark, admitted or not: a row the filters
    // reject still proves its stream has reached its timestamp.
    if (n > 0) watermarks_.Update(source, *std::max_element(ts, ts + n));
    return;
  }
  // A watermark of W promises no future tuple with ts < W; one arriving
  // anyway exceeded its source's disorder bound. Dropping it (counted,
  // typed) keeps fired windows immutable rather than silently wrong. Rows
  // in time but below every remaining window's left end can never be read
  // again. Neither bound moves within a batch: punctuations apply after
  // its rows, and the prune floor only moves when a window fires.
  const Timestamp watermark = watermarks_.WatermarkOf(source);
  auto floor_it = prune_floor_.find(source);
  const Timestamp floor =
      floor_it != prune_floor_.end() ? floor_it->second : kMinTimestamp;
  for (size_t i = 0; i < n; ++i) {
    if (ts[i] < watermark) {
      ++late_beyond_bound_;
      keep[i] = 0;
    } else if (ts[i] < floor) {
      ++late_behind_loop_;
      keep[i] = 0;
    }
  }
}

void OnlineWindowRunner::AdmitLanes(const Admission& adm,
                                    const ColumnStore& cols, size_t n,
                                    uint8_t* keep) {
  for (const Admission::Lane& lane : adm.lanes) {
    auto idx = cols.schema()->IndexOf(lane.attr.name, lane.attr.source);
    assert(idx.has_value() && "attribute not present; check CanEval first");
    const Column& col = cols.column(*idx);
    if (lane.filter.MatchBatchUsesKernels(col, n)) {
      matched_.assign(n, QuerySet());
      lane.filter.MatchBatch(col, n, matched_.data());
      for (size_t i = 0; i < n; ++i) keep[i] &= matched_[i].Contains(0);
      continue;
    }
    // Nulls, NaN and literals outside the kernels' exactness contract:
    // CompareConst's own comparison, cell by cell.
    for (size_t i = 0; i < n; ++i) {
      if (keep[i] == 0) continue;
      const Value v = col.ValueAt(i);
      for (const CompareConst* f : lane.factors) {
        if (!EvalCmp(v, f->op(), f->literal())) {
          keep[i] = 0;
          break;
        }
      }
    }
  }
}

void OnlineWindowRunner::Buffer(SourceId source, const Tuple& tuple) {
  history_[source].Append(tuple);  // kEvent: the deque IS the reorder buffer
  if (query_.loop.semantics == TimeSemantics::kEvent) spec_dirty_ = true;
}

void OnlineWindowRunner::IngestBatch(SourceId source, const TupleBatch& batch) {
  const size_t n = batch.size();
  if (n > 0 && batch.columnar_only()) {
    const ColumnStore& cols = *batch.columns();
    keep_.assign(n, 1);
    CheckTimestamps(source, cols.timestamps(), n, keep_.data());
    const Admission& adm = AdmissionFor(cols.schema()->sources());
    AdmitLanes(adm, cols, n, keep_.data());
    for (size_t i = 0; i < n; ++i) {
      if (keep_[i] == 0) continue;
      Tuple t = cols.MaterializeRow(i);
      if (adm.RowsAdmit(t)) Buffer(source, t);
    }
  } else {
    for (const Tuple& t : batch) Ingest(source, t);
  }
  // Control lane applies after the rows (the lane's contract).
  for (const Punctuation& p : batch.punctuations()) OnPunctuation(p);
}

void OnlineWindowRunner::Ingest(SourceId source, const Tuple& tuple) {
  if (tuple.IsPunctuation()) {
    OnPunctuation(tuple.AsPunctuation());
    return;
  }
  const Timestamp ts = tuple.timestamp();
  uint8_t keep = 1;
  CheckTimestamps(source, &ts, 1, &keep);
  if (keep != 0 && AdmissionFor(tuple.sources()).Admits(tuple)) {
    Buffer(source, tuple);
  }
}

void OnlineWindowRunner::OnPunctuation(const Punctuation& p) {
  watermarks_.OnPunctuation(p);
}

void OnlineWindowRunner::AdvanceWatermark(SourceId source, Timestamp ts) {
  watermarks_.Update(source, ts);
}

void OnlineWindowRunner::Poll(const Callback& cb) {
  const bool event = query_.loop.semantics == TimeSemantics::kEvent;
  while (pending_.has_value()) {
    bool complete = true;
    for (const auto& [source, range] : pending_->ranges) {
      // Right ends are inclusive: ts == r tuples may still arrive while
      // W == r (under either time semantics), so completion needs W
      // strictly past r (kMaxTimestamp == stream closed counts too).
      Timestamp w = watermarks_.WatermarkOf(source);
      if (w <= range.second && w != kMaxTimestamp) {
        complete = false;
        break;
      }
    }
    if (!complete) {
      if (event && opts_.speculate && spec_dirty_) {
        spec_dirty_ = false;
        EmitDelta(cb, EvaluateInstance(query_, *pending_, history_).tuples,
                  WindowResultKind::kSpeculative);
      }
      break;
    }
    WindowResult full = EvaluateInstance(query_, *pending_, history_);
    if (event && opts_.speculate) {
      // Seal as a delta: retract what no longer holds, then emit the final
      // additions. `sum(additions) - sum(retractions)` == full.tuples.
      EmitDelta(cb, full.tuples, WindowResultKind::kFinal);
    } else {
      cb(full);
    }
    pending_ = iter_.HasNext() ? std::optional(iter_.Next()) : std::nullopt;
    spec_emitted_.clear();
    spec_revision_ = 0;
    spec_dirty_ = !history_.empty();
    MaybePrune();
  }
}

void OnlineWindowRunner::EmitDelta(const Callback& cb,
                                   const std::vector<Tuple>& now,
                                   WindowResultKind kind) {
  Timestamp t = pending_->t;
  std::map<std::string, std::pair<Tuple, size_t>> current;
  for (const Tuple& tp : now) {
    auto [it, inserted] = current.try_emplace(tp.ToString(), tp, 0);
    ++it->second.second;
  }
  WindowResult retract;
  retract.t = t;
  retract.kind = WindowResultKind::kRetraction;
  for (const auto& [key, emitted] : spec_emitted_) {
    size_t have = 0;
    if (auto it = current.find(key); it != current.end()) {
      have = it->second.second;
    }
    for (size_t i = have; i < emitted.second; ++i) {
      retract.tuples.push_back(Tuple::Retraction(emitted.first));
    }
  }
  if (!retract.tuples.empty()) {
    retract.revision = ++spec_revision_;
    retractions_ += retract.tuples.size();
    cb(retract);
  }
  WindowResult add;
  add.t = t;
  add.kind = kind;
  for (const auto& [key, cur] : current) {
    size_t emitted = 0;
    if (auto it = spec_emitted_.find(key); it != spec_emitted_.end()) {
      emitted = it->second.second;
    }
    for (size_t i = emitted; i < cur.second; ++i) {
      add.tuples.push_back(cur.first);
    }
  }
  // kFinal always fires (even empty) so consumers see the window seal;
  // kSpeculative only fires when it adds something.
  if (!add.tuples.empty() || kind == WindowResultKind::kFinal) {
    add.revision = ++spec_revision_;
    if (kind == WindowResultKind::kSpeculative) {
      speculative_ += add.tuples.size();
    }
    cb(add);
  }
  spec_emitted_ = std::move(current);
}

void OnlineWindowRunner::MaybePrune() {
  if (!pending_.has_value()) {
    // Loop exhausted: nothing will ever be read again.
    for (auto& [source, hist] : history_) hist.PruneBefore(kMaxTimestamp);
    return;
  }
  // Safe to prune below the minimum left end of all future windows. For
  // forward-moving loops with left ends that advance with t, that minimum
  // is the current instance's left end; otherwise keep everything.
  if (query_.loop.t_step <= 0) return;
  for (const auto& [source, range] : pending_->ranges) {
    bool left_advances = false;
    for (const WindowIs& w : query_.loop.windows) {
      if (w.source == source && w.left.t_coef > 0) left_advances = true;
    }
    if (left_advances) {
      history_[source].PruneBefore(range.first);
      Timestamp& floor =
          prune_floor_.try_emplace(source, kMinTimestamp).first->second;
      floor = std::max(floor, range.first);
    }
  }
}

size_t OnlineWindowRunner::buffered_tuples() const {
  size_t n = 0;
  for (const auto& [source, hist] : history_) n += hist.size();
  return n;
}

void OnlineWindowRunner::ExportTo(CheckpointWriter* w) const {
  w->PutBool(pending_.has_value());
  if (pending_.has_value()) w->PutTimestamp(pending_->t);
  const auto& marks = watermarks_.marks();
  w->PutU32(static_cast<uint32_t>(marks.size()));
  for (const auto& [source, ts] : marks) {
    w->PutU32(source);
    w->PutTimestamp(ts);
  }
  w->PutU32(static_cast<uint32_t>(history_.size()));
  std::vector<Tuple> tuples;
  for (const auto& [source, hist] : history_) {
    w->PutU32(source);
    tuples.clear();
    hist.Range(kMinTimestamp, kMaxTimestamp, &tuples);
    w->PutU64(tuples.size());
    for (const Tuple& t : tuples) w->PutTuple(t);
  }
  w->PutU32(static_cast<uint32_t>(prune_floor_.size()));
  for (const auto& [source, floor] : prune_floor_) {
    w->PutU32(source);
    w->PutTimestamp(floor);
  }
  w->PutU64(late_beyond_bound_);
  w->PutU64(late_behind_loop_);
  w->PutU64(retractions_);
  w->PutU64(speculative_);
  w->PutU64(spec_emitted_.size());
  for (const auto& [key, entry] : spec_emitted_) {
    w->PutTuple(entry.first);
    w->PutU64(entry.second);
  }
  w->PutU64(spec_revision_);
  w->PutBool(spec_dirty_);
}

Status OnlineWindowRunner::RestoreFrom(CheckpointReader* r) {
  TCQ_ASSIGN_OR_RETURN(bool has_pending, r->GetBool());
  // Re-drive a fresh iterator to the recorded loop position. The loop is
  // deterministic, so matching the pending instant reproduces the iterator
  // state exactly; a bounded search turns a mismatched query into a typed
  // error instead of a spin.
  iter_ = WindowIterator(query_.loop);
  pending_.reset();
  if (has_pending) {
    TCQ_ASSIGN_OR_RETURN(Timestamp pending_t, r->GetTimestamp());
    bool found = false;
    for (uint64_t i = 0; i < (1u << 20) && iter_.HasNext(); ++i) {
      WindowInstance inst = iter_.Next();
      if (inst.t == pending_t) {
        pending_ = std::move(inst);
        found = true;
        break;
      }
      if (query_.loop.t_step > 0 && inst.t > pending_t) break;
    }
    if (!found) {
      return Status::IOError(
          "window_runner checkpoint pending instant " +
          std::to_string(pending_t) +
          " is not an instance of the restored query's loop");
    }
  } else {
    // Recorded loop was exhausted; exhaust ours too.
    for (uint64_t i = 0; i < (1u << 20) && iter_.HasNext(); ++i) iter_.Next();
  }
  TCQ_ASSIGN_OR_RETURN(uint32_t nmarks, r->GetU32());
  for (uint32_t i = 0; i < nmarks; ++i) {
    TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
    TCQ_ASSIGN_OR_RETURN(Timestamp ts, r->GetTimestamp());
    watermarks_.Update(source, ts);
  }
  history_.clear();
  TCQ_ASSIGN_OR_RETURN(uint32_t nhist, r->GetU32());
  for (uint32_t i = 0; i < nhist; ++i) {
    TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
    TCQ_ASSIGN_OR_RETURN(uint64_t count, r->GetU64());
    StreamHistory& hist = history_[source];
    for (uint64_t j = 0; j < count; ++j) {
      TCQ_ASSIGN_OR_RETURN(Tuple t, r->GetTuple());
      hist.Append(t);
    }
  }
  prune_floor_.clear();
  TCQ_ASSIGN_OR_RETURN(uint32_t nfloor, r->GetU32());
  for (uint32_t i = 0; i < nfloor; ++i) {
    TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
    TCQ_ASSIGN_OR_RETURN(Timestamp floor, r->GetTimestamp());
    prune_floor_[source] = floor;
  }
  TCQ_ASSIGN_OR_RETURN(late_beyond_bound_, r->GetU64());
  TCQ_ASSIGN_OR_RETURN(late_behind_loop_, r->GetU64());
  TCQ_ASSIGN_OR_RETURN(retractions_, r->GetU64());
  TCQ_ASSIGN_OR_RETURN(speculative_, r->GetU64());
  spec_emitted_.clear();
  TCQ_ASSIGN_OR_RETURN(uint64_t nspec, r->GetU64());
  for (uint64_t i = 0; i < nspec; ++i) {
    TCQ_ASSIGN_OR_RETURN(Tuple t, r->GetTuple());
    TCQ_ASSIGN_OR_RETURN(uint64_t count, r->GetU64());
    std::string key = t.ToString();
    spec_emitted_.emplace(std::move(key),
                          std::make_pair(std::move(t), count));
  }
  TCQ_ASSIGN_OR_RETURN(spec_revision_, r->GetU64());
  TCQ_ASSIGN_OR_RETURN(spec_dirty_, r->GetBool());
  return Status::OK();
}

std::vector<WindowAggregateResult> RunAggregateOverHistory(
    const ForLoopSpec& loop, AggFn fn, const AttrRef& value_attr,
    const StreamHistory& history, uint64_t max_windows,
    size_t* peak_state_bytes) {
  std::vector<WindowAggregateResult> out;
  WindowClass cls = loop.Classify();
  size_t peak = 0;
  WindowIterator iter(loop);

  if (cls == WindowClass::kLandmark) {
    // Incremental O(1)-state strategy: consecutive windows share the fixed
    // left end; only the newly exposed suffix is added.
    LandmarkAggregator agg(fn);
    Timestamp fed_through = kMinTimestamp;
    for (uint64_t n = 0; iter.HasNext() && n < max_windows; ++n) {
      WindowInstance inst = iter.Next();
      auto range = inst.ranges.front().second;
      if (fed_through == kMinTimestamp) fed_through = range.first - 1;
      std::vector<Tuple> fresh;
      history.Range(fed_through + 1, range.second, &fresh);
      for (const Tuple& t : fresh) {
        const Value* v = ResolveAttr(t, value_attr);
        assert(v != nullptr);
        agg.Add(*v, t.timestamp());
      }
      fed_through = range.second;
      out.push_back({inst.t, agg.Result()});
      peak = std::max(peak, agg.StateBytes());
    }
  } else if (cls == WindowClass::kSliding) {
    // Incremental with window retention: feed new suffix, expire old prefix.
    WindowInstance first_peek = WindowIterator(loop).Next();
    Timestamp width = first_peek.ranges.front().second.second -
                      first_peek.ranges.front().second.first + 1;
    SlidingAggregator agg(fn, width);
    Timestamp fed_through = kMinTimestamp;
    for (uint64_t n = 0; iter.HasNext() && n < max_windows; ++n) {
      WindowInstance inst = iter.Next();
      auto range = inst.ranges.front().second;
      if (fed_through == kMinTimestamp) fed_through = range.first - 1;
      std::vector<Tuple> fresh;
      history.Range(fed_through + 1, range.second, &fresh);
      for (const Tuple& t : fresh) {
        const Value* v = ResolveAttr(t, value_attr);
        assert(v != nullptr);
        agg.Add(*v, t.timestamp());
      }
      fed_through = range.second;
      agg.AdvanceTime(range.second);
      out.push_back({inst.t, agg.Result()});
      peak = std::max(peak, agg.StateBytes());
    }
  } else {
    // Snapshot / hopping / backward: recompute each window from history
    // (hop > width means windows share nothing; backward windows revisit
    // the past arbitrarily).
    for (uint64_t n = 0; iter.HasNext() && n < max_windows; ++n) {
      WindowInstance inst = iter.Next();
      auto range = inst.ranges.front().second;
      LandmarkAggregator agg(fn);
      std::vector<Tuple> content;
      history.Range(range.first, range.second, &content);
      for (const Tuple& t : content) {
        const Value* v = ResolveAttr(t, value_attr);
        assert(v != nullptr);
        agg.Add(*v, t.timestamp());
      }
      out.push_back({inst.t, agg.Result()});
      peak = std::max(peak, agg.StateBytes() + content.size() * sizeof(Tuple));
    }
  }
  if (peak_state_bytes != nullptr) *peak_state_bytes = peak;
  return out;
}

}  // namespace tcq
