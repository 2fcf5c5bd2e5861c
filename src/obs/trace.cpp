#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace tcq::obs {

namespace {

/// splitmix64 step: the per-thread deterministic sampling sequence.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::atomic<uint64_t> g_next_tracer_id{1};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWrapperFlush: return "wrapper_flush";
    case SpanKind::kQueueEnqueue: return "enqueue";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kEddyHop: return "hop";
    case SpanKind::kStemBuild: return "stem_build";
    case SpanKind::kStemProbe: return "stem_probe";
    case SpanKind::kPsoupProbe: return "psoup_probe";
    case SpanKind::kEgressEmit: return "egress_emit";
    case SpanKind::kEndToEnd: return "e2e";
    case SpanKind::kWindowFire: return "window_fire";
  }
  return "unknown";
}

TraceContext& CurrentTrace() {
  thread_local TraceContext ctx;
  return ctx;
}

void TraceBatchScope::Arm(Tracer* tracer, int64_t ingest_us) {
  if (!tracer->ShouldSample()) return;
  saved_ = CurrentTrace();
  CurrentTrace() = TraceContext{
      tracer, ingest_us != 0 ? ingest_us : NowMicros()};
  armed_ = true;
}

/// One flight-recorder slot. Seqlock protocol: seq is odd while the writer
/// is mid-update, even when stable (2 * generation + 2 once written).
/// Payload fields are relaxed atomics so concurrent reader access is
/// data-race-free; the seq acquire/release pair orders them.
struct RingSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> meta{0};  // shard << 40 | kind << 32 | module
  std::atomic<uint64_t> query{0};
  std::atomic<int64_t> start_us{0};
  std::atomic<int64_t> dur_us{0};
};

struct Tracer::ThreadState {
  explicit ThreadState(const TraceOptions& opts, uint64_t thread_ordinal)
      : ring(opts.ring_capacity == 0 ? 1 : opts.ring_capacity),
        rng(opts.seed + 0x9E3779B97F4A7C15ull * (thread_ordinal + 1)) {}

  void Append(SpanKind kind, uint32_t module, uint64_t query,
              int64_t start_us, int64_t dur_us) {
    // The pumping shard rides in meta bits 40+ (kind is 8 bits wide), read
    // from the thread's armed TraceContext so call sites stay unchanged.
    uint64_t shard = CurrentTrace().shard;
    uint64_t t = head.load(std::memory_order_relaxed);
    RingSlot& slot = ring[t % ring.size()];
    slot.seq.store(2 * t + 1, std::memory_order_release);
    slot.meta.store((shard << 40) | (uint64_t(kind) << 32) | module,
                    std::memory_order_relaxed);
    slot.query.store(query, std::memory_order_relaxed);
    slot.start_us.store(start_us, std::memory_order_relaxed);
    slot.dur_us.store(dur_us, std::memory_order_relaxed);
    slot.seq.store(2 * t + 2, std::memory_order_release);
    head.store(t + 1, std::memory_order_release);
  }

  /// Reads every stable slot; a slot being overwritten concurrently is
  /// skipped (its seq check fails), never torn.
  void Collect(std::vector<Span>* out) const {
    uint64_t h = head.load(std::memory_order_acquire);
    uint64_t n = std::min<uint64_t>(h, ring.size());
    for (uint64_t t = h - n; t < h; ++t) {
      const RingSlot& slot = ring[t % ring.size()];
      uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq != 2 * t + 2) continue;
      Span span;
      uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      span.kind = static_cast<SpanKind>((meta >> 32) & 0xFF);
      span.shard = static_cast<uint32_t>(meta >> 40);
      span.module = static_cast<uint32_t>(meta);
      span.query = slot.query.load(std::memory_order_relaxed);
      span.start_us = slot.start_us.load(std::memory_order_relaxed);
      span.dur_us = slot.dur_us.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
      out->push_back(span);
    }
  }

  std::vector<RingSlot> ring;
  std::atomic<uint64_t> head{0};
  uint64_t rng;
  /// Owner-thread-only caches mapping stable identities to registry
  /// histograms, so the sampled path never takes the registry lock twice
  /// for the same instrument. Keys are the module-name string's address
  /// (stable for a module's lifetime) and the global query id.
  std::vector<std::pair<const void*, Histogram*>> module_hist;
  std::vector<std::pair<uint64_t, Histogram*>> query_hist;
};

Tracer::Tracer(TraceOptions opts, MetricsRegistryRef metrics)
    : opts_(std::move(opts)),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : std::make_shared<MetricsRegistry>()),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {
  if (opts_.sample_period == 0) opts_.sample_period = 1;
  if (opts_.ring_capacity == 0) opts_.ring_capacity = 1;
  enabled_.store(opts_.enabled, std::memory_order_relaxed);
  for (size_t i = 0; i < kNumSpanKinds; ++i) {
    stage_us_[i] = metrics_->GetHistogram(MetricName(
        "tcq_trace_span_us", "stage", SpanKindName(SpanKind(i))));
  }
  hop_count_ = metrics_->GetHistogram("tcq_trace_eddy_hops");
  sampled_batches_ = metrics_->GetCounter("tcq_trace_sampled_batches_total");
  spans_total_ = metrics_->GetCounter("tcq_trace_spans_total");
}

Tracer::~Tracer() = default;

Tracer::ThreadState* Tracer::State() {
  // Cache keyed by tracer id: ids are process-unique, so an entry left by a
  // destroyed tracer can never alias a live one.
  thread_local std::vector<std::pair<uint64_t, ThreadState*>> tl_cache;
  for (const auto& [id, state] : tl_cache) {
    if (id == id_) return state;
  }
  std::lock_guard<std::mutex> lock(threads_mu_);
  threads_.push_back(std::make_unique<ThreadState>(opts_, threads_.size()));
  ThreadState* state = threads_.back().get();
  tl_cache.emplace_back(id_, state);
  return state;
}

bool Tracer::ShouldSample() {
  if (!enabled()) return false;
  ThreadState* ts = State();
  bool hit = opts_.sample_period <= 1 ||
             NextRandom(&ts->rng) % opts_.sample_period == 0;
  if (hit) sampled_batches_->Inc();
  return hit;
}

void Tracer::Record(SpanKind kind, uint32_t module, uint64_t query,
                    int64_t start_us, int64_t dur_us) {
  State()->Append(kind, module, query, start_us, dur_us);
  stage_us_[size_t(kind)]->Observe(dur_us < 0 ? 0 : uint64_t(dur_us));
  spans_total_->Inc();
}

Histogram* Tracer::ModuleHistogram(ThreadState* ts, const std::string& name) {
  const void* key = &name;
  for (const auto& [k, hist] : ts->module_hist) {
    if (k == key) return hist;
  }
  Histogram* hist =
      metrics_->GetHistogram(MetricName("tcq_trace_module_us", "module", name));
  ts->module_hist.emplace_back(key, hist);
  return hist;
}

void Tracer::RecordHop(size_t slot, const std::string& name, int64_t start_us,
                       int64_t dur_us) {
  ThreadState* ts = State();
  ts->Append(SpanKind::kEddyHop, uint32_t(slot), 0, start_us, dur_us);
  uint64_t d = dur_us < 0 ? 0 : uint64_t(dur_us);
  stage_us_[size_t(SpanKind::kEddyHop)]->Observe(d);
  ModuleHistogram(ts, name)->Observe(d);
  spans_total_->Inc();
}

void Tracer::RecordEndToEnd(uint64_t global_query, int64_t start_us,
                            int64_t latency_us) {
  ThreadState* ts = State();
  ts->Append(SpanKind::kEndToEnd, 0, global_query, start_us, latency_us);
  uint64_t d = latency_us < 0 ? 0 : uint64_t(latency_us);
  stage_us_[size_t(SpanKind::kEndToEnd)]->Observe(d);
  Histogram* hist = nullptr;
  for (const auto& [gid, h] : ts->query_hist) {
    if (gid == global_query) {
      hist = h;
      break;
    }
  }
  if (hist == nullptr) {
    hist = metrics_->GetHistogram(MetricName(
        "tcq_trace_e2e_us", "query", "q" + std::to_string(global_query)));
    ts->query_hist.emplace_back(global_query, hist);
  }
  hist->Observe(d);
  spans_total_->Inc();
}

void Tracer::RecordHopCount(uint32_t hops) { hop_count_->Observe(hops); }

std::vector<Span> Tracer::DumpFlightRecorder() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (const auto& ts : threads_) ts->Collect(&spans);
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.start_us < b.start_us;
                   });
  if (spans.size() > opts_.ring_capacity) {
    spans.erase(spans.begin(),
                spans.end() - ptrdiff_t(opts_.ring_capacity));
  }
  return spans;
}

}  // namespace tcq::obs
