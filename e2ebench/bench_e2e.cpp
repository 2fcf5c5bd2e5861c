// End-to-end benchmark of the TelegraphCQ facade (workloads and the layer
// map are documented in e2ebench/LAYERS.md).
//
// One load-generator process drives a server only through its public API:
// one pushing thread (NewBatch/Append/PushBuilt, Submit/Cancel, Checkpoint)
// and one polling thread (egress queues and window buffers). A workload runs
// in rounds, each on a freshly constructed server over the same seeded
// input:
//   * closed loop: the input is pushed as fast as PushBuilt returns, at most
//     kMaxInflightBatches batches ahead of the results polled; the clock
//     stops when the last expected result has been polled;
//   * open loop: the input is offered at a fixed rate (the same in-flight
//     bound holds the generator back, late, while the engine stalls);
//     latency is the poll time minus the scheduled send time of the latest
//     row that contributed (for a window: the batch whose punctuation moved
//     the watermark past the window's right edge).
// Closed and open rounds alternate, so host contention hits both alike.
// Every round's results are checked against references computed from the
// input, and every drop/shed counter Introspect() exposes counts as failed.
//
//   bench_e2e --workload fanout|join|windows --seed N --seconds S
//             --trace 0|1 [--git-sha SHA]
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics (from a traced
// run plus the benchmark's own spans around each facade call) with
// --trace 1. Exit status is non-zero when any result or operation failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "query/catalog.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/telegraphcq.h"
#include "window/window_exec.h"

#ifndef TCQ_E2E_BUILD_TYPE
#define TCQ_E2E_BUILD_TYPE "unknown"
#endif

namespace tcq::e2e {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded splitmix64 stream: the same seed yields the same inputs.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_++); }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n), ranks scattered over values by a seeded
/// permutation so popular values are not clustered at one end.
class Zipf {
 public:
  Zipf(size_t n, double s, Gen* gen) : cdf_(n), value_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) total += 1.0 / std::pow(double(i + 1), s);
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(double(i + 1), s) / total;
      cdf_[i] = acc;
      value_[i] = static_cast<int64_t>(i);
    }
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(value_[i], value_[gen->Uniform(0, int64_t(i))]);
    }
  }
  int64_t Sample(Gen* gen) const {
    size_t r = std::upper_bound(cdf_.begin(), cdf_.end(), gen->Unit()) -
               cdf_.begin();
    return value_[std::min(r, value_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> value_;
};

// --- Inputs and queries -------------------------------------------------------

/// One input row; the `sent` column is stamped at push time.
struct Row {
  Timestamp ts = 0;
  int64_t id = 0;
  int64_t k = 0;
  int64_t v = 0;
};

/// Rows [begin, end) of one stream, pushed as one PushBuilt call.
struct BatchRef {
  uint32_t stream = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Order-independent result digest: count plus a wrapping sum of hashes.
struct Tally {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(uint64_t h) {
    ++count;
    sum += h;
  }
  bool operator==(const Tally&) const = default;
};

uint64_t ResultHash(Timestamp t, const int64_t* ids, int n) {
  uint64_t h = Mix(static_cast<uint64_t>(t));
  for (int i = 0; i < n; ++i) h = Mix(h ^ static_cast<uint64_t>(ids[i]));
  return h;
}

/// A single-stream filter: lo <= col <= hi on k or v.
struct Range {
  bool on_k = false;
  int64_t lo = 0;
  int64_t hi = 0;
  bool Match(const Row& r) const {
    int64_t x = on_k ? r.k : r.v;
    return x >= lo && x <= hi;
  }
  std::string Sql() const {
    const char* col = on_k ? "k" : "v";
    if (lo == hi) return std::string(col) + " = " + std::to_string(lo);
    return std::string(col) + " >= " + std::to_string(lo) + " AND " + col +
           " <= " + std::to_string(hi);
  }
};

enum class Kind { kFilter, kJoin, kWindow };

/// A standing query. Every projection starts with `n_ids` id columns
/// followed by the matching `sent` columns.
struct QuerySpec {
  Kind kind = Kind::kFilter;
  std::string sql;
  int n_ids = 1;
  uint32_t stream = 0;  // kFilter
  Range range;          // kFilter
  Tally expect;
  uint64_t expect_windows = 0;  // kWindow
  /// kWindow: the loop's first instant minus its step (nothing fired yet),
  /// and its final instant.
  Timestamp before_first_t = 0;
  Timestamp last_t = 0;
};

struct Workload {
  std::string name;
  std::vector<std::string> streams;
  std::vector<TelegraphCQ::StreamOptions> stream_opts;
  std::vector<std::vector<Row>> rows;  // per stream; rows[s][id].id == id
  std::vector<BatchRef> schedule;      // push order
  std::vector<QuerySpec> queries;
  size_t num_eos = 2;
  size_t shards = 1;
  /// Fanout: `churn_live` extra filters; once per segment the oldest is
  /// cancelled and the next predicate of `churn_pool` submitted.
  std::vector<Range> churn_pool;
  size_t churn_live = 0;
  /// Windows: spooled, with one Checkpoint() per segment.
  bool durable = false;
  /// Windows: wm_batch[t] = first batch whose punctuation moves the
  /// watermark past t; the closed loop keeps at most `lag_ts` timestamps of
  /// unfired windows outstanding.
  std::vector<uint32_t> wm_batch;
  std::vector<Timestamp> batch_max_ts;
  Timestamp lag_ts = 0;
  /// cum_results[b]: results the continuous (filter and join) queries owe
  /// for the rows of batches 0..b. The pusher keeps at most
  /// kMaxInflightBatches batches ahead of the results polled so far.
  std::vector<uint64_t> cum_results;
  /// Open-loop offered rate (rows/s): about a third of the closed-loop
  /// throughput on a 4-core host, so a short stall of a shared host drains
  /// quickly instead of dominating the latency figures.
  double offered_rps = 0;

  uint64_t total_rows() const {
    uint64_t n = 0;
    for (const auto& r : rows) n += r.size();
    return n;
  }
};

std::vector<Field> StreamFields() {
  return {{"sent", ValueType::kInt64, 0},
          {"id", ValueType::kInt64, 0},
          {"k", ValueType::kInt64, 0},
          {"v", ValueType::kInt64, 0}};
}

constexpr uint32_t kBatchRows = 64;
/// Seeds the parts of a workload that --seed does not vary (query sets).
constexpr uint64_t kWorkloadSeed = 0x7e1e9a9c;
/// Churn and Checkpoint() happen once per kSegmentBatches batches, midway.
/// Open-loop latency quantiles are taken per segment of that many batches
/// of send schedule, so every segment holds one such event; segments with
/// fewer than kMinSegmentSamples are skipped (p99 then has at least ten
/// samples beyond it), and the median segment is reported.
constexpr size_t kSegmentBatches = 256;
constexpr size_t kMinSegmentSamples = 1000;
/// Class fjord, egress and window-input capacity, in tuples.
constexpr size_t kQueueCapacity = 1 << 16;
/// Batches pushed ahead of the polled results (8k rows, an eighth of a
/// queue). A PushBuilt that finds its queue full for 20 ms drops the batch,
/// so a loop that kept the queues full would turn a short stall of a shared
/// host into lost rows; with this bound the queues never fill.
constexpr size_t kMaxInflightBatches = 128;

void ScheduleInOrder(Workload* w, uint32_t stream) {
  const uint32_t n = static_cast<uint32_t>(w->rows[stream].size());
  for (uint32_t b = 0; b < n; b += kBatchRows) {
    w->schedule.push_back({stream, b, std::min(n, b + kBatchRows)});
  }
}

/// ~256 standing range/equality filters over zipf-skewed values on one
/// stream, plus a few churned queries.
Workload MakeFanout(uint64_t seed) {
  Workload w;
  w.name = "fanout";
  w.streams = {"S"};
  w.stream_opts = {{}};
  w.offered_rps = 180000;
  // The query set and the value popularity are part of the workload, not
  // of its input: they come from a fixed stream, so every seed does the same
  // work in expectation and only the sampled rows change.
  Gen fixed(kWorkloadSeed);
  const Zipf vdist(4096, 0.9, &fixed);
  const Zipf kdist(512, 0.9, &fixed);
  Gen gen(seed);
  const uint32_t n = 1u << 18;
  w.rows.resize(1);
  for (uint32_t i = 0; i < n; ++i) {
    w.rows[0].push_back({Timestamp(i), int64_t(i), kdist.Sample(&gen),
                         vdist.Sample(&gen)});
  }
  ScheduleInOrder(&w, 0);
  auto random_range = [&fixed](bool on_k) {
    Range r;
    r.on_k = on_k;
    if (on_k) {
      r.lo = r.hi = fixed.Uniform(0, 511);
    } else {
      r.lo = fixed.Uniform(0, 4095);
      r.hi = std::min<int64_t>(4095, r.lo + fixed.Uniform(2, 30));
    }
    return r;
  };
  for (int q = 0; q < 256; ++q) {
    QuerySpec spec;
    spec.range = random_range(q % 4 == 3);
    spec.sql = "SELECT id, sent FROM S WHERE " + spec.range.Sql();
    w.queries.push_back(spec);
  }
  for (int q = 0; q < 64; ++q) w.churn_pool.push_back(random_range(q % 2));
  w.churn_live = 4;
  return w;
}

/// L join R on k, each key on exactly two rows per side, plus filters in the
/// same query class; sides interleave with bounded disorder.
Workload MakeJoin(uint64_t seed, size_t cores) {
  Workload w;
  w.name = "join";
  w.streams = {"L", "R"};
  w.stream_opts = {{}, {}};
  w.num_eos = cores;
  w.shards = cores;
  w.offered_rps = 160000;
  Gen gen(seed);
  const uint32_t n = 1u << 17;  // rows per side
  const uint64_t key_salt = gen.Next();
  w.rows.resize(2);
  for (uint32_t s = 0; s < 2; ++s) {
    std::vector<uint32_t> group(n);
    for (uint32_t i = 0; i < n; ++i) group[i] = i / 2;
    if (s == 1) {
      // R sees the same keys, shuffled within 1024-row blocks.
      for (uint32_t b = 0; b < n; b += 1024) {
        for (uint32_t i = std::min(n, b + 1024) - 1; i > b; --i) {
          std::swap(group[i], group[b + gen.Uniform(0, i - b)]);
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      const int64_t key = static_cast<int64_t>(Mix(group[i] ^ key_salt) >> 2);
      w.rows[s].push_back({Timestamp(i), int64_t(i), key, gen.Uniform(0, 999)});
    }
  }
  // Interleave: the sides never drift more than four batches apart.
  uint32_t next[2] = {0, 0};
  while (next[0] < n || next[1] < n) {
    uint32_t s = static_cast<uint32_t>(gen.Next() & 1);
    const int64_t drift = int64_t(next[0]) - int64_t(next[1]);
    if (next[s] >= n || (s == 0 && drift >= 4 * int64_t(kBatchRows)) ||
        (s == 1 && -drift >= 4 * int64_t(kBatchRows))) {
      s ^= 1;
    }
    w.schedule.push_back({s, next[s], std::min(n, next[s] + kBatchRows)});
    next[s] = std::min(n, next[s] + kBatchRows);
  }
  QuerySpec join;
  join.kind = Kind::kJoin;
  join.n_ids = 2;
  join.sql = "SELECT l.id, r.id, l.sent, r.sent FROM L l, R r WHERE l.k = r.k";
  w.queries.push_back(join);
  const Range filters[] = {{false, 0, 99}, {false, 900, 999}, {false, 450, 499}};
  for (size_t f = 0; f < 3; ++f) {
    QuerySpec spec;
    spec.stream = f == 1 ? 1 : 0;
    spec.range = filters[f];
    spec.sql = "SELECT id, sent FROM " + w.streams[spec.stream] + " WHERE " +
               spec.range.Sql();
    w.queries.push_back(spec);
  }
  return w;
}

/// One punctuating, block-shuffled stream with 8 sliding windowed queries
/// (one a windowed self-join) and one continuous filter; spooled, with a
/// Checkpoint() every 256 batches.
Workload MakeWindows(uint64_t seed) {
  Workload w;
  w.name = "windows";
  w.streams = {"S"};
  const Timestamp disorder = 8;
  w.stream_opts = {{.punctuate = true, .disorder_bound = disorder}};
  w.durable = true;
  w.offered_rps = 30000;
  Gen gen(seed);
  const uint32_t per_ts = 16;
  const Timestamp horizon = 4096;  // timestamps 1..horizon
  w.rows.resize(1);
  std::vector<Row>& rows = w.rows[0];
  for (Timestamp t = 1; t <= horizon; ++t) {
    for (uint32_t j = 0; j < per_ts; ++j) {
      rows.push_back({t, int64_t(rows.size()), gen.Uniform(0, 63),
                      gen.Uniform(0, 999)});
    }
  }
  // Arrival order: shuffled within 128-row blocks (8 timestamps), so rows
  // arrive up to one batch behind the newest one; disorder_bound covers it.
  std::vector<uint32_t> order(rows.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (uint32_t b = 0; b < order.size(); b += 128) {
    for (uint32_t i = std::min<uint32_t>(order.size(), b + 128) - 1; i > b;
         --i) {
      std::swap(order[i], order[b + gen.Uniform(0, i - b)]);
    }
  }
  std::vector<Row> arrival;
  for (uint32_t i : order) arrival.push_back(rows[i]);
  // Re-number so rows[id].id == id in arrival order.
  for (uint32_t i = 0; i < arrival.size(); ++i) arrival[i].id = i;
  rows = std::move(arrival);
  ScheduleInOrder(&w, 0);

  // Watermark after each batch (max ts seen - disorder), and for every t
  // the first batch whose watermark passes it (fires windows ending at t).
  w.wm_batch.assign(horizon + 2, UINT32_MAX);
  Timestamp max_ts = 0;
  Timestamp fired_below = 0;  // every t < fired_below is already assigned
  for (uint32_t b = 0; b < w.schedule.size(); ++b) {
    for (uint32_t i = w.schedule[b].begin; i < w.schedule[b].end; ++i) {
      max_ts = std::max(max_ts, rows[i].ts);
    }
    w.batch_max_ts.push_back(max_ts);
    const Timestamp wm = max_ts - disorder;
    for (; fired_below < wm && fired_below <= horizon; ++fired_below) {
      w.wm_batch[fired_below] = b;
    }
  }
  // Loops end where the final watermark (horizon - disorder) still fires.
  const Timestamp last = horizon - disorder - 1;
  struct Win {
    Range range;
    Timestamp width;
    Timestamp step;
  };
  const Win wins[] = {{{false, 0, 99}, 8, 4},      {{false, 900, 999}, 16, 8},
                      {{true, 5, 5}, 32, 8},       {{false, 0, 49}, 4, 2},
                      {{false, 400, 449}, 64, 16}, {{true, 0, 3}, 16, 4},
                      {{false, 975, 999}, 128, 32}};
  Timestamp max_step = 0;
  for (const Win& win : wins) {
    QuerySpec spec;
    spec.kind = Kind::kWindow;
    spec.sql = "SELECT id, sent FROM S WHERE " + win.range.Sql() +
               " for (t = " + std::to_string(win.width) + "; t <= " +
               std::to_string(last) + "; t += " + std::to_string(win.step) +
               ") { WindowIs(S, t - " + std::to_string(win.width - 1) +
               ", t); }";
    w.queries.push_back(spec);
    max_step = std::max(max_step, win.step);
  }
  QuerySpec self;
  self.kind = Kind::kWindow;
  self.n_ids = 2;
  self.sql =
      "SELECT a.id, b.id, a.sent, b.sent FROM S a, S b "
      "WHERE a.k = b.k AND a.v < 100 AND b.v < 100 "
      "for (t = 8; t <= " +
      std::to_string(last) +
      "; t += 8) { WindowIs(a, t - 7, t); WindowIs(b, t - 7, t); }";
  w.queries.push_back(self);
  QuerySpec cont;
  cont.range = {false, 500, 519};
  cont.sql = "SELECT id, sent FROM S WHERE " + cont.range.Sql();
  w.queries.push_back(cont);
  // Room for the shuffle (two batches of timestamps), the bound, and the
  // coarsest step, so a window the pusher waits on can always fire.
  w.lag_ts = 2 * (kBatchRows / per_ts) * 2 + disorder + max_step + 16;
  return w;
}

// --- References ---------------------------------------------------------------

/// Windowed references: the same SQL planned against a private catalog and
/// evaluated offline with RunOverHistory over the whole input.
Status WindowReference(const Workload& w, QuerySpec* spec) {
  Catalog catalog;
  for (const std::string& s : w.streams) {
    TCQ_RETURN_IF_ERROR(catalog.DefineStream(s, StreamFields()).status());
  }
  TCQ_ASSIGN_OR_RETURN(ast::SelectStatement stmt, ParseQuery(spec->sql));
  TCQ_ASSIGN_OR_RETURN(PlannedQuery plan, PlanQuery(stmt, &catalog));
  if (!plan.window_loop.has_value() || !plan.projection.has_value()) {
    return Status::InvalidArgument("not a projected windowed query");
  }
  std::vector<const Row*> by_ts;
  for (const Row& r : w.rows[0]) by_ts.push_back(&r);
  std::stable_sort(by_ts.begin(), by_ts.end(),
                   [](const Row* a, const Row* b) { return a->ts < b->ts; });
  std::map<SourceId, StreamHistory> history;
  for (const auto& [alias, entry] : plan.bindings) {
    StreamHistory& h = history[entry.source];
    for (const Row* r : by_ts) {
      h.Append(Tuple::Make(entry.schema,
                           {Value::Int64(0), Value::Int64(r->id),
                            Value::Int64(r->k), Value::Int64(r->v)},
                           r->ts));
    }
  }
  WindowedQuery wq{*plan.window_loop, plan.all_predicates};
  const std::vector<WindowResult> results =
      RunOverHistory(wq, history, 1u << 24);
  if (results.size() < 2) return Status::InvalidArgument("loop too short");
  spec->before_first_t = 2 * results[0].t - results[1].t;
  spec->last_t = results.back().t;
  for (const WindowResult& wr : results) {
    ++spec->expect_windows;
    for (const Tuple& t : wr.tuples) {
      TCQ_ASSIGN_OR_RETURN(Tuple p, plan.projection->Apply(t));
      int64_t ids[2] = {p.at(0).AsInt64(),
                        spec->n_ids > 1 ? p.at(1).AsInt64() : 0};
      spec->expect.Add(ResultHash(wr.t, ids, spec->n_ids));
    }
  }
  return Status::OK();
}

Status ComputeReferences(Workload* w) {
  // batch_of[s][id]: the push-order index of the batch holding row `id`.
  std::vector<std::vector<uint32_t>> batch_of(w->rows.size());
  for (size_t s = 0; s < w->rows.size(); ++s) {
    batch_of[s].resize(w->rows[s].size());
  }
  for (uint32_t b = 0; b < w->schedule.size(); ++b) {
    const BatchRef& br = w->schedule[b];
    for (uint32_t i = br.begin; i < br.end; ++i) batch_of[br.stream][i] = b;
  }
  w->cum_results.assign(w->schedule.size(), 0);
  for (QuerySpec& spec : w->queries) {
    switch (spec.kind) {
      case Kind::kFilter:
        for (const Row& r : w->rows[spec.stream]) {
          if (!spec.range.Match(r)) continue;
          spec.expect.Add(ResultHash(0, &r.id, 1));
          ++w->cum_results[batch_of[spec.stream][r.id]];
        }
        break;
      case Kind::kJoin: {
        std::unordered_map<int64_t, std::vector<int64_t>> left;
        for (const Row& r : w->rows[0]) left[r.k].push_back(r.id);
        for (const Row& r : w->rows[1]) {
          auto it = left.find(r.k);
          if (it == left.end()) continue;
          for (int64_t lid : it->second) {
            int64_t ids[2] = {lid, r.id};
            spec.expect.Add(ResultHash(0, ids, 2));
            // A pair is emitted once its later row has been pushed.
            ++w->cum_results[std::max(batch_of[0][lid], batch_of[1][r.id])];
          }
        }
        break;
      }
      case Kind::kWindow:
        TCQ_RETURN_IF_ERROR(WindowReference(*w, &spec));
        break;
    }
  }
  for (size_t b = 1; b < w->cum_results.size(); ++b) {
    w->cum_results[b] += w->cum_results[b - 1];
  }
  return Status::OK();
}

// --- Measurement helpers --------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - double(i)) * (v[i + 1] - v[i]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::vector<double> NsToUnit(const std::vector<int64_t>& ns, double per) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (int64_t x : ns) out.push_back(double(x) / per);
  return out;
}

/// A field of /proc/self/status in kB (VmHWM) or as a count (Threads).
uint64_t ProcStatus(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Host-wide CPU time from /proc/stat, in ticks: {steal, total}. A run with
/// a large stolen share was measured on a contended host.
std::pair<uint64_t, uint64_t> HostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// The benchmark's own spans around facade calls (traced runs only).
struct Spans {
  std::vector<int64_t> build_ns, push_ns, submit_ns, cancel_ns, checkpoint_ns,
      poll_ns, gen_late_ns;
  void Append(const Spans& o) {
    auto cat = [](std::vector<int64_t>* a, const std::vector<int64_t>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&build_ns, o.build_ns);
    cat(&push_ns, o.push_ns);
    cat(&submit_ns, o.submit_ns);
    cat(&cancel_ns, o.cancel_ns);
    cat(&checkpoint_ns, o.checkpoint_ns);
    cat(&poll_ns, o.poll_ns);
    cat(&gen_late_ns, o.gen_late_ns);
  }
};

/// Every drop and shed counter Introspect() exposes, by reason.
struct Drops {
  uint64_t unrouted = 0, backpressure = 0, window_input = 0, egress_shed = 0,
           late = 0, spool_failed = 0;
  static Drops From(const MetricsSnapshot& s) {
    Drops d;
    d.unrouted = s.CounterValue("tcq_executor_tuples_dropped_unrouted_total");
    d.backpressure =
        s.CounterValue("tcq_executor_tuples_dropped_backpressure_total");
    d.window_input = s.CounterFamilySum("tcq_window_input_dropped_total");
    d.egress_shed = s.CounterFamilySum("tcq_egress_shed_total");
    d.late = s.CounterFamilySum("tcq_wrapper_late_tuples_total");
    d.spool_failed = s.CounterFamilySum("tcq_server_spool_append_failed_total");
    return d;
  }
  uint64_t Total() const {
    return unrouted + backpressure + window_input + egress_shed + late +
           spool_failed;
  }
  void Add(const Drops& o) {
    unrouted += o.unrouted;
    backpressure += o.backpressure;
    window_input += o.window_input;
    egress_shed += o.egress_shed;
    late += o.late;
    spool_failed += o.spool_failed;
  }
  Drops Minus(const Drops& o) const {
    return {unrouted - o.unrouted,         backpressure - o.backpressure,
            window_input - o.window_input, egress_shed - o.egress_shed,
            late - o.late,                 spool_failed - o.spool_failed};
  }
};

// --- Polling thread -------------------------------------------------------------

/// One client handle as the poller sees it.
struct Probe {
  const QuerySpec* spec = nullptr;  // null for churned queries
  Range churn_range;                // churned: results checked for soundness
  std::shared_ptr<PushEgress> egress;
  std::shared_ptr<WindowResultBuffer> windows;
  Tally got;
  uint64_t windows_got = 0;
  uint64_t unsound = 0;
  /// Largest window instant polled (the closed loop's back-pressure signal).
  std::atomic<Timestamp> frontier{kMinTimestamp};

  bool Complete() const {
    return spec == nullptr ||
           (got.count >= spec->expect.count &&
            windows_got >= spec->expect_windows);
  }
};

class Poller {
 public:
  /// `due_ns` (open loop only) holds each batch's scheduled send time.
  Poller(const Workload& w, const std::vector<int64_t>* due_ns,
         int64_t segment_ns, bool trace)
      : w_(w), due_ns_(due_ns), segment_ns_(segment_ns), trace_(trace) {}
  ~Poller() { Finish(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Add(std::shared_ptr<Probe> p) {
    std::lock_guard<std::mutex> lock(mu_);
    probes_.push_back(std::move(p));
    ++version_;
  }
  void Start() { thread_ = std::thread([this] { Loop(); }); }
  /// Declares the input finished and waits until every expected result has
  /// been polled (or nothing arrived for kStallNs).
  void Finish() {
    push_done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  int64_t done_ns() const { return done_ns_; }
  /// Results of the standing continuous queries polled so far.
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  /// Open loop: latencies bucketed by the send time's segment.
  std::vector<std::vector<int64_t>>& latencies_ns() { return latencies_ns_; }
  uint64_t polls() const { return polls_; }
  uint64_t empty_polls() const { return empty_polls_; }
  std::vector<int64_t>& poll_ns() { return poll_ns_; }

 private:
  static constexpr int64_t kStallNs = 5'000'000'000;

  void AddLatency(int64_t now, int64_t sent) {
    const size_t seg = static_cast<size_t>(
        std::max<int64_t>(0, sent - (*due_ns_)[0]) / segment_ns_);
    if (seg >= latencies_ns_.size()) latencies_ns_.resize(seg + 1);
    latencies_ns_[seg].push_back(now - sent);
  }

  /// Polls one handle dry; true if anything arrived.
  bool Drain(Probe& p) {
    const int64_t now = NowNs();
    bool any = false;
    const int n = p.spec != nullptr ? p.spec->n_ids : 1;
    if (p.egress != nullptr) {
      Delivery d;
      for (;;) {
        bool got;
        if (trace_ && (polls_ & 63) == 0) {
          const int64_t t0 = NowNs();
          got = p.egress->Poll(&d);
          poll_ns_.push_back(NowNs() - t0);
        } else {
          got = p.egress->Poll(&d);
        }
        ++polls_;
        if (!got) {
          ++empty_polls_;
          break;
        }
        any = true;
        const Tuple& t = d.tuple;
        if (!t.valid() || !t.IsData()) continue;  // punctuations
        int64_t ids[2] = {0, 0};
        int64_t sent = 0;
        for (int i = 0; i < n; ++i) {
          ids[i] = t.at(i).AsInt64();
          sent = std::max(sent, t.at(n + i).AsInt64());
        }
        p.got.Add(ResultHash(0, ids, n));
        if (p.spec != nullptr) {
          delivered_.fetch_add(1, std::memory_order_release);
        } else {
          const auto& rows = w_.rows[0];
          if (ids[0] < 0 || size_t(ids[0]) >= rows.size() ||
              !p.churn_range.Match(rows[ids[0]])) {
            ++p.unsound;
          }
        }
        if (due_ns_ != nullptr) AddLatency(now, sent);
      }
    }
    if (p.windows != nullptr) {
      WindowResult wr;
      for (;;) {
        const bool got = p.windows->Poll(&wr);
        ++polls_;
        if (!got) {
          ++empty_polls_;
          break;
        }
        any = true;
        ++p.windows_got;
        for (const Tuple& t : wr.tuples) {
          int64_t ids[2] = {t.at(0).AsInt64(), n > 1 ? t.at(1).AsInt64() : 0};
          p.got.Add(ResultHash(wr.t, ids, n));
        }
        p.frontier.store(wr.t, std::memory_order_release);
        if (due_ns_ != nullptr && wr.t >= 0 &&
            size_t(wr.t) < w_.wm_batch.size() &&
            w_.wm_batch[wr.t] < due_ns_->size()) {
          AddLatency(now, (*due_ns_)[w_.wm_batch[wr.t]]);
        }
      }
    }
    return any;
  }

  void Loop() {
    std::vector<std::shared_ptr<Probe>> local;
    uint64_t seen = UINT64_MAX;
    int64_t last_progress = NowNs();
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (seen != version_) {
          local = probes_;
          seen = version_;
        }
      }
      bool progress = false;
      for (auto& p : local) progress |= Drain(*p);
      const int64_t now = NowNs();
      if (progress) last_progress = now;
      if (done_ns_ == 0 &&
          std::all_of(local.begin(), local.end(),
                      [](const auto& p) { return p->Complete(); }) &&
          !local.empty()) {
        done_ns_ = now;
      }
      if (push_done_.load(std::memory_order_acquire)) {
        if (done_ns_ != 0) {
          for (auto& p : local) Drain(*p);  // late extras, if any
          return;
        }
        if (now - last_progress > kStallNs) return;  // results missing
      }
      // An idle client naps instead of spinning, leaving the cores to the
      // engine (the nap adds at most ~70 us to a result's latency).
      if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  const Workload& w_;
  const std::vector<int64_t>* due_ns_;
  const int64_t segment_ns_;
  const bool trace_;
  std::mutex mu_;
  std::vector<std::shared_ptr<Probe>> probes_;  // guarded by mu_
  uint64_t version_ = 0;                        // guarded by mu_
  std::atomic<bool> push_done_{false};
  std::atomic<uint64_t> delivered_{0};
  // Owned by the poller thread until Finish() returns.
  int64_t done_ns_ = 0;
  std::vector<std::vector<int64_t>> latencies_ns_;
  std::vector<int64_t> poll_ns_;
  uint64_t polls_ = 0;
  uint64_t empty_polls_ = 0;
  std::thread thread_;  // last: joins before the members above go away
};

// --- One round ------------------------------------------------------------------

struct RoundConfig {
  bool open_loop = false;
  bool trace = false;
  size_t shards = 0;  // 0 = the workload's own
  MetricsRegistryRef registry;  // shared across a traced phase
  Spans* spans = nullptr;
  std::filesystem::path scratch;  // spool/checkpoint root (durable only)
};

struct RoundResult {
  double setup_s = 0;
  double seconds = 0;  // push start -> last expected result polled
  uint64_t rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Drops drops;
  std::vector<std::vector<int64_t>> latencies_ns;  // per send-time segment
  uint64_t polls = 0, empty_polls = 0;
  uint64_t threads = 0;
  int64_t stem_live = 0;
};

/// Sleeps until ~80 us before `due` (sleep overshoot is ~60 us), then
/// yields: the generator keeps its schedule without holding a core.
void WaitUntil(int64_t due) {
  for (;;) {
    const int64_t left = due - NowNs();
    if (left <= 0) return;
    if (left > 100'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 80'000));
    } else {
      std::this_thread::yield();
    }
  }
}

RoundResult RunRound(const Workload& w, const RoundConfig& cfg, int round) {
  RoundResult res;
  TelegraphCQ::Options opts;
  // Deep queues (64k tuples; 300 ms of fanout input in the open loop) so a
  // scheduling stall of the shared host is absorbed rather than turned into
  // back-pressure drops or window-input sheds.
  opts.executor.queue_capacity = kQueueCapacity;
  opts.egress_capacity = kQueueCapacity;
  opts.executor.num_eos = w.num_eos;
  opts.executor.shards = cfg.shards != 0 ? cfg.shards : w.shards;
  opts.trace.enabled = cfg.trace;
  opts.trace.sample_period = 64;
  std::filesystem::path dir;
  if (w.durable) {
    dir = cfg.scratch / ("round" + std::to_string(round));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir / "spool");
    std::filesystem::create_directories(dir / "ckpt");
    opts.spool_dir = (dir / "spool").string();
    opts.checkpoint_dir = (dir / "ckpt").string();
  }
  Spans* spans = cfg.spans;
  auto timed = [spans](std::vector<int64_t> Spans::*field, auto&& fn) {
    if (spans == nullptr) return fn();
    const int64_t t0 = NowNs();
    auto r = fn();
    (spans->*field).push_back(NowNs() - t0);
    return r;
  };

  std::vector<int64_t> due_ns;
  const int64_t interval_ns =
      static_cast<int64_t>(double(kBatchRows) * 1e9 / w.offered_rps);
  Poller poller(w, cfg.open_loop ? &due_ns : nullptr,
                interval_ns * int64_t(kSegmentBatches), cfg.trace);
  std::vector<std::shared_ptr<Probe>> standing;
  // Every churned query in submission order; [churn_live_from, end) are live.
  std::vector<std::shared_ptr<Probe>> churn;
  std::vector<GlobalQueryId> churn_ids;
  size_t churn_live_from = 0;
  size_t churn_next = 0;
  uint64_t ops = 0, failed_ops = 0;

  auto submit_churn = [&](TelegraphCQ* server) {
    const Range& r = w.churn_pool[churn_next++ % w.churn_pool.size()];
    ++ops;
    auto h = timed(&Spans::submit_ns, [&] {
      return server->Submit("SELECT id, sent FROM S WHERE " + r.Sql());
    });
    if (!h.ok()) {
      std::fprintf(stderr, "churn submit failed: %s\n",
                   h.status().ToString().c_str());
      ++failed_ops;
      return;
    }
    auto p = std::make_shared<Probe>();
    p->churn_range = r;
    p->egress = h->results;
    poller.Add(p);
    churn.push_back(p);
    churn_ids.push_back(h->id);
  };

  const int64_t setup0 = NowNs();
  auto server = std::make_unique<TelegraphCQ>(opts, cfg.registry);
  for (size_t s = 0; s < w.streams.size(); ++s) {
    ++ops;
    auto defined =
        server->DefineStream(w.streams[s], StreamFields(), w.stream_opts[s]);
    if (!defined.ok()) {
      std::fprintf(stderr, "define failed: %s\n",
                   defined.status().ToString().c_str());
      ++failed_ops;
    }
  }
  for (const QuerySpec& spec : w.queries) {
    ++ops;
    auto h = timed(&Spans::submit_ns, [&] { return server->Submit(spec.sql); });
    if (!h.ok()) {
      std::fprintf(stderr, "submit failed: %s: %s\n", spec.sql.c_str(),
                   h.status().ToString().c_str());
      ++failed_ops;
      continue;
    }
    auto p = std::make_shared<Probe>();
    p->spec = &spec;
    p->egress = h->results;
    p->windows = h->windows;
    p->frontier.store(spec.before_first_t);
    standing.push_back(p);
    poller.Add(p);
  }
  for (size_t i = 0; i < w.churn_live; ++i) submit_churn(server.get());
  server->Start();
  res.setup_s = double(NowNs() - setup0) * 1e-9;
  const Drops before = Drops::From(server->Introspect().metrics);

  const size_t nb = w.schedule.size();
  if (cfg.open_loop) {
    const int64_t start = NowNs() + 1'000'000;
    due_ns.resize(nb);
    for (size_t b = 0; b < nb; ++b) due_ns[b] = start + int64_t(b) * interval_ns;
  }
  poller.Start();
  const int64_t push0 = NowNs();
  uint64_t failed_rows = 0;
  bool stalled = false;  // results stopped coming: stop waiting this round
  // Waits until `ready()` holds; after 5 s without it, stops waiting for the
  // rest of the round (the missing results then count as failed).
  auto wait_for = [&](size_t b, auto&& ready) {
    const int64_t give_up = NowNs() + 5'000'000'000;
    while (!stalled && !ready()) {
      if (NowNs() > give_up) {
        std::fprintf(stderr, "round %d: results stalled at batch %zu\n", round,
                     b);
        stalled = true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  };
  for (size_t b = 0; b < nb; ++b) {
    const BatchRef& br = w.schedule[b];
    if (cfg.open_loop) WaitUntil(due_ns[b]);
    if (b >= kMaxInflightBatches) {
      const uint64_t owed = w.cum_results[b - kMaxInflightBatches];
      wait_for(b, [&] { return poller.delivered() >= owed; });
    }
    if (!cfg.open_loop && !w.wm_batch.empty()) {
      // Keep at most lag_ts timestamps of unfired windows outstanding so
      // the windowed inputs never overflow (they shed, not block).
      const Timestamp need = w.batch_max_ts[b] - w.lag_ts;
      for (const auto& p : standing) {
        if (p->windows == nullptr) continue;
        const Timestamp until = std::min(need, p->spec->last_t);
        wait_for(b, [&] {
          return p->frontier.load(std::memory_order_acquire) >= until;
        });
      }
    }
    int64_t sent;
    if (cfg.open_loop) {
      // Latency counts from the schedule, so a late generator shows in it.
      sent = due_ns[b];
      if (spans != nullptr) spans->gen_late_ns.push_back(NowNs() - sent);
    } else {
      sent = NowNs();
    }
    const std::vector<Row>& rows = w.rows[br.stream];
    using Builder = Result<TelegraphCQ::BatchBuilder>;
    auto batch = timed(&Spans::build_ns, [&]() -> Builder {
      auto built = server->NewBatch(w.streams[br.stream]);
      if (!built.ok()) return built;
      for (uint32_t i = br.begin; i < br.end; ++i) {
        const Row& r = rows[i];
        Status st = built->Append(r.ts, {Value::Int64(sent), Value::Int64(r.id),
                                         Value::Int64(r.k), Value::Int64(r.v)});
        if (!st.ok()) return st;
      }
      return built;
    });
    const bool pushed =
        batch.ok() && timed(&Spans::push_ns, [&] {
                        return server->PushBuilt(std::move(*batch));
                      }).ok();
    if (!pushed) failed_rows += br.end - br.begin;
    res.rows += br.end - br.begin;
    if (b == nb / 2) res.threads = ProcStatus("Threads");
    const bool midway = b % kSegmentBatches == kSegmentBatches / 2;
    if (midway && churn_live_from < churn.size()) {
      ++ops;
      const GlobalQueryId oldest = churn_ids[churn_live_from++];
      Status st =
          timed(&Spans::cancel_ns, [&] { return server->Cancel(oldest); });
      if (!st.ok()) {
        std::fprintf(stderr, "cancel failed: %s\n", st.ToString().c_str());
        ++failed_ops;
      }
      submit_churn(server.get());
    }
    // Never near the end: a windowed query whose loop has finished stops
    // draining its input, and Checkpoint() would wait on it.
    if (midway && w.durable && b + kSegmentBatches / 2 < nb) {
      ++ops;
      auto epoch =
          timed(&Spans::checkpoint_ns, [&] { return server->Checkpoint(); });
      if (!epoch.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     epoch.status().ToString().c_str());
        ++failed_ops;
      }
    }
  }
  poller.Finish();
  res.seconds = double(poller.done_ns() - push0) * 1e-9;
  if (poller.done_ns() == 0) res.seconds = double(NowNs() - push0) * 1e-9;

  const TelegraphCQ::Introspection view = server->Introspect();
  for (const auto& [name, value] : view.metrics.gauges) {
    if (name.rfind("tcq_stem_live_entries", 0) == 0) res.stem_live += value;
  }
  server->Stop();
  server.reset();
  // Hand the round's freed heap back now: otherwise the next round's server
  // construction pays for consolidating it (30 ms after a join round).
  // Spool and checkpoint files stay until the run ends: deleting them
  // between rounds made later rounds slower.
  malloc_trim(0);

  res.drops = Drops::From(view.metrics).Minus(before);

  // Failures: rejected pushes and facade calls, engine drops, and every
  // result missing from or extra to the reference.
  uint64_t mismatched = 0;
  uint64_t expected = 0;
  for (const auto& p : standing) {
    const QuerySpec& spec = *p->spec;
    expected += spec.expect.count + spec.expect_windows;
    uint64_t diff = spec.expect.count > p->got.count
                        ? spec.expect.count - p->got.count
                        : p->got.count - spec.expect.count;
    if (diff == 0 && p->got.sum != spec.expect.sum) diff = 1;
    diff += spec.expect_windows > p->windows_got
                ? spec.expect_windows - p->windows_got
                : p->windows_got - spec.expect_windows;
    if (diff != 0) {
      std::fprintf(stderr,
                   "round %d: %s: got %" PRIu64 " results/%" PRIu64
                   " windows, want %" PRIu64 "/%" PRIu64 "%s\n",
                   round, spec.sql.c_str(), p->got.count, p->windows_got,
                   spec.expect.count, spec.expect_windows,
                   p->got.count == spec.expect.count ? " (checksum differs)"
                                                     : "");
    }
    mismatched += diff;
  }
  uint64_t unsound = 0;
  for (const auto& p : churn) unsound += p->unsound;
  res.attempted = res.rows + expected + ops;
  res.failed =
      failed_rows + failed_ops + res.drops.Total() + mismatched + unsound;
  if (res.failed != 0) {
    std::fprintf(stderr,
                 "round %d: failed rows %" PRIu64 ", ops %" PRIu64
                 ", drops %" PRIu64 ", mismatched %" PRIu64
                 ", unsound %" PRIu64 "\n",
                 round, failed_rows, failed_ops, res.drops.Total(), mismatched,
                 unsound);
  }
  res.latencies_ns = std::move(poller.latencies_ns());
  res.polls = poller.polls();
  res.empty_polls = poller.empty_polls();
  if (spans != nullptr) {
    spans->poll_ns.insert(spans->poll_ns.end(), poller.poll_ns().begin(),
                          poller.poll_ns().end());
  }
  return res;
}

/// Appends the latency quantile (us) of each of the round's full segments.
void SegmentQuantiles(const RoundResult& r, double q, std::vector<double>* out) {
  for (const std::vector<int64_t>& seg : r.latencies_ns) {
    if (seg.size() >= kMinSegmentSamples) {
      out->push_back(Quantile(NsToUnit(seg, 1e3), q));
    }
  }
}

/// The rounds of one kind.
struct Phase {
  std::vector<RoundResult> rounds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Drops drops;
  double elapsed_s = 0;

  std::vector<double> Throughputs() const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(double(r.rows) / r.seconds);
    return v;
  }
  /// Latency quantile of every full segment of every round, in us.
  std::vector<double> LatencyQuantiles(double q) const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) SegmentQuantiles(r, q, &v);
    return v;
  }
  size_t LatencySamples() const {
    size_t n = 0;
    for (const RoundResult& r : rounds) {
      for (const auto& seg : r.latencies_ns) {
        if (seg.size() >= kMinSegmentSamples) n += seg.size();
      }
    }
    return n;
  }
};

void RunOneRound(const Workload& w, const RoundConfig& cfg, Phase* ph,
                 int* round_counter) {
  const int64_t t0 = NowNs();
  RoundResult r = RunRound(w, cfg, (*round_counter)++);
  std::vector<double> p50, p99;
  SegmentQuantiles(r, 0.50, &p50);
  SegmentQuantiles(r, 0.99, &p99);
  std::fprintf(stderr,
               "round %d: %s%s: setup %.3f ms, %.0f rows/s, %zu latency "
               "segments, median p50 %.1f us, median p99 %.1f us\n",
               *round_counter - 1, cfg.open_loop ? "open" : "closed",
               cfg.trace ? " traced" : "", r.setup_s * 1e3,
               double(r.rows) / r.seconds, p50.size(), Median(p50),
               Median(p99));
  ph->attempted += r.attempted;
  ph->failed += r.failed;
  ph->drops.Add(r.drops);
  ph->rounds.push_back(std::move(r));
  ph->elapsed_s += double(NowNs() - t0) * 1e-9;
}

/// Rounds of one kind until `budget_s` has elapsed (at least `min_rounds`).
Phase RunPhase(const Workload& w, const RoundConfig& cfg, double budget_s,
               int min_rounds, int* round_counter) {
  Phase ph;
  while (int(ph.rounds.size()) < min_rounds || ph.elapsed_s < budget_s) {
    RunOneRound(w, cfg, &ph, round_counter);
  }
  return ph;
}

/// Rounds of two kinds, interleaved so each gets `share_a` : `share_b` of
/// `budget_s` (at least `min_rounds` each). A burst of host contention then
/// hits both kinds alike instead of all rounds of one.
std::pair<Phase, Phase> RunInterleaved(const Workload& w, const RoundConfig& a,
                                       const RoundConfig& b, double share_a,
                                       double share_b, double budget_s,
                                       int min_rounds, int* round_counter) {
  Phase pa, pb;
  while (int(pa.rounds.size()) < min_rounds ||
         int(pb.rounds.size()) < min_rounds ||
         pa.elapsed_s + pb.elapsed_s < budget_s) {
    const bool run_a = pa.elapsed_s * share_b <= pb.elapsed_s * share_a;
    RunOneRound(w, run_a ? a : b, run_a ? &pa : &pb, round_counter);
  }
  return {std::move(pa), std::move(pb)};
}

// --- Registry readers for the per-layer table -------------------------------------

/// A histogram family merged across labels (same power-of-two buckets), so
/// its ApproxQuantile covers every instance.
MetricsSnapshot::HistogramData Family(const MetricsSnapshot& s,
                                      const std::string& prefix) {
  std::map<uint64_t, uint64_t> buckets;  // le -> count, ascending
  MetricsSnapshot::HistogramData h;
  h.name = prefix;
  for (const auto& d : s.histograms) {
    if (d.name.rfind(prefix, 0) != 0) continue;
    h.count += d.count;
    h.sum += d.sum;
    for (const auto& [le, c] : d.buckets) buckets[le] += c;
  }
  h.buckets.assign(buckets.begin(), buckets.end());
  return h;
}

double HistQuantile(const MetricsSnapshot& s, const std::string& prefix,
                    double q) {
  return double(Family(s, prefix).ApproxQuantile(q));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Stage(const char* name) {
  return MetricName("tcq_trace_span_us", "stage", name);
}

// --- Output ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else {
      return false;
    }
  }
  return (a->workload == "fanout" || a->workload == "join" ||
          a->workload == "windows") &&
         a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload fanout|join|windows --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA]\n");
    return 2;
  }
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  Workload w = args.workload == "fanout" ? MakeFanout(args.seed)
               : args.workload == "join" ? MakeJoin(args.seed, cores)
                                         : MakeWindows(args.seed);
  if (Status st = ComputeReferences(&w); !st.ok()) {
    std::fprintf(stderr, "reference: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::filesystem::path scratch =
      std::filesystem::path(".bench_build") / "e2ebench" / "tmp" /
      (w.name + "-" + std::to_string(::getpid()));
  int round = 0;
  const double S = args.seconds;
  const auto [steal0, ticks0] = HostCpuTicks();
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::string extra;  // additional provenance fields

  if (!args.trace) {
    RoundConfig closed;
    closed.scratch = scratch;
    RoundConfig open = closed;
    open.open_loop = true;
    auto [c, o] = RunInterleaved(w, closed, open, 0.45, 0.55, S, 3, &round);
    attempted = c.attempted + o.attempted;
    failed = c.failed + o.failed;
    std::vector<double> setups;
    for (const Phase* ph : {&c, &o}) {
      for (const RoundResult& r : ph->rounds) setups.push_back(r.setup_s);
    }
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"throughput_rps", Median(c.Throughputs()), "rows/s"},
        {"latency_p50_us", Median(o.LatencyQuantiles(0.50)), "us"},
        {"rss_peak_mb", double(ProcStatus("VmHWM")) / 1024.0, "MB"},
    };
    extra = ", \"rounds_closed\": " + std::to_string(c.rounds.size()) +
            ", \"rounds_open\": " + std::to_string(o.rounds.size()) +
            ", \"latency_samples\": " + std::to_string(o.LatencySamples()) +
            ", \"latency_p95_us\": " + Num(Median(o.LatencyQuantiles(0.95))) +
            ", \"latency_p99_us\": " + Num(Median(o.LatencyQuantiles(0.99))) +
            ", \"failed_frac\": " + Num(Ratio(double(failed), double(attempted)));
  } else {
    const bool join = w.name == "join";
    const double share = join ? 0.25 * S : S / 3;
    RoundConfig base;
    base.scratch = scratch;
    Spans closed_spans, open_spans;
    RoundConfig tc = base;
    tc.trace = true;
    tc.registry = std::make_shared<MetricsRegistry>();
    tc.spans = &closed_spans;
    auto [untraced, traced] =
        RunInterleaved(w, base, tc, 0.5, 0.5, 2 * share, 3, &round);
    RoundConfig to = base;
    to.trace = true;
    to.open_loop = true;
    to.registry = std::make_shared<MetricsRegistry>();
    to.spans = &open_spans;
    Phase open = RunPhase(w, to, share, 2, &round);
    Phase single;
    if (join) {
      RoundConfig one = base;
      one.shards = 1;
      single = RunPhase(w, one, share, 3, &round);
    }
    for (const Phase* ph : {&untraced, &traced, &open, &single}) {
      attempted += ph->attempted;
      failed += ph->failed;
    }
    const MetricsSnapshot cs = tc.registry->Snapshot();
    const MetricsSnapshot os = to.registry->Snapshot();
    uint64_t rows_c = 0, rows_o = 0, threads = 0;
    int64_t stem_live = 0;
    for (const RoundResult& r : traced.rounds) {
      rows_c += r.rows;
      threads = std::max(threads, r.threads);
      stem_live = std::max(stem_live, r.stem_live);
    }
    uint64_t polls = 0, empty_polls = 0;
    for (const RoundResult& r : open.rounds) {
      rows_o += r.rows;
      polls += r.polls;
      empty_polls += r.empty_polls;
    }
    const double krows_c = double(rows_c) / 1000, krows_o = double(rows_o) / 1000;
    Spans all_spans = closed_spans;
    all_spans.Append(open_spans);
    auto us = [](const std::vector<int64_t>& ns, double q) {
      return Quantile(NsToUnit(ns, 1e3), q);
    };
    auto ms = [](const std::vector<int64_t>& ns, double q) {
      return Quantile(NsToUnit(ns, 1e6), q);
    };
    // Shard ingest skew: busiest shard over the mean across shard counters.
    std::vector<double> shard_ingest;
    for (const auto& [name, v] : cs.counters) {
      if (name.rfind("tcq_shard_ingest_total", 0) == 0) {
        shard_ingest.push_back(double(v));
      }
    }
    double skew = 0;
    if (!shard_ingest.empty()) {
      double sum = 0;
      for (double v : shard_ingest) sum += v;
      skew = Ratio(*std::max_element(shard_ingest.begin(), shard_ingest.end()),
                   sum / double(shard_ingest.size()));
    }
    const double decisions =
        double(cs.CounterFamilySum("tcq_shared_eddy_routing_decisions_total"));
    const double reused = double(
        cs.CounterFamilySum("tcq_shared_eddy_routing_decisions_reused_total"));
    const double probes = double(cs.CounterFamilySum("tcq_stem_probes_total"));
    const double tput_untraced = Median(untraced.Throughputs());
    const double tput_traced = Median(traced.Throughputs());
    const double tput_single = join ? Median(single.Throughputs()) : 0;
    const uint64_t ckpt_epochs = cs.CounterValue("tcq_checkpoint_epochs_total");
    Drops drops = traced.drops;
    drops.Add(open.drops);

    // Each layer's share of a sampled tuple's traced time (open loop).
    struct StageShare {
      const char* layer;
      std::vector<const char*> stages;
    };
    const StageShare layers[] = {{"fjords", {"enqueue", "queue_wait"}},
                                 {"cacq", {"hop"}},
                                 {"stem", {"stem_build", "stem_probe"}},
                                 {"egress", {"egress_emit"}}};
    double traced_total = 0;
    std::map<std::string, double> layer_us;
    for (const StageShare& l : layers) {
      for (const char* s : l.stages) {
        const double sum = double(Family(os, Stage(s)).sum);
        layer_us[l.layer] += sum;
        traced_total += sum;
      }
    }

    metrics = {
        {"server.push_us_p50", us(closed_spans.push_ns, 0.50), "us"},
        {"server.push_us_p99", us(closed_spans.push_ns, 0.99), "us"},
        {"server.build_us_p50", us(closed_spans.build_ns, 0.50), "us"},
        {"query.submit_ms_p50", ms(all_spans.submit_ns, 0.50), "ms"},
        {"query.cancel_ms_p50", ms(all_spans.cancel_ns, 0.50), "ms"},
        {"fjords.queue_wait_us_p50",
         HistQuantile(os, "tcq_queue_wait_us", 0.50), "us"},
        {"fjords.queue_wait_us_p99",
         HistQuantile(os, "tcq_queue_wait_us", 0.99), "us"},
        {"fjords.enqueue_us_p50",
         HistQuantile(cs, Stage("enqueue"), 0.50), "us"},
        {"fjords.enqueue_blocked_per_krow",
         Ratio(double(cs.CounterFamilySum("tcq_queue_enqueue_blocked_total")),
               krows_c),
         "count"},
        {"fjords.time_share", Ratio(layer_us["fjords"], traced_total),
         "fraction"},
        {"exec.eo_idle_backoffs_per_krow",
         Ratio(double(os.CounterFamilySum("tcq_eo_idle_backoffs_total")),
               krows_o),
         "count"},
        {"exec.du_quanta_per_krow",
         Ratio(double(cs.CounterFamilySum("tcq_du_quanta_total")), krows_c),
         "count"},
        {"exec.shard_ingest_skew", skew, "ratio"},
        {"exec.threads", double(threads), "count"},
        {"exec.join_speedup_vs_1shard", Ratio(tput_untraced, tput_single),
         "ratio"},
        {"exec.throughput_nshard_rps", join ? tput_untraced : 0, "rows/s"},
        {"exec.throughput_1shard_rps", tput_single, "rows/s"},
        {"exec.dropped_unrouted", double(drops.unrouted), "count"},
        {"exec.dropped_backpressure", double(drops.backpressure), "count"},
        {"cacq.routing_decisions_per_row", Ratio(decisions, double(rows_c)),
         "count"},
        {"cacq.decisions_reused_frac", Ratio(reused, decisions), "fraction"},
        {"cacq.module_invocations_per_row",
         Ratio(double(cs.CounterFamilySum(
                   "tcq_shared_eddy_module_invocations_total")),
               double(rows_c)),
         "count"},
        {"cacq.hop_us_p50", HistQuantile(cs, Stage("hop"), 0.50),
         "us"},
        {"cacq.hops_per_tuple_p50",
         HistQuantile(cs, "tcq_trace_eddy_hops", 0.50), "count"},
        {"cacq.time_share", Ratio(layer_us["cacq"], traced_total), "fraction"},
        {"stem.build_us_p50",
         HistQuantile(cs, Stage("stem_build"), 0.50), "us"},
        {"stem.probe_us_p50",
         HistQuantile(cs, Stage("stem_probe"), 0.50), "us"},
        {"stem.matches_per_probe",
         Ratio(double(cs.CounterFamilySum("tcq_stem_matches_total")), probes),
         "count"},
        {"stem.live_entries", double(stem_live), "count"},
        {"stem.time_share", Ratio(layer_us["stem"], traced_total), "fraction"},
        {"window.fired", double(cs.CounterFamilySum("tcq_window_fired_total")),
         "count"},
        {"window.late_tuples", double(drops.late), "count"},
        {"window.input_dropped", double(drops.window_input), "count"},
        {"egress.emit_us_p50",
         HistQuantile(os, Stage("egress_emit"), 0.50), "us"},
        {"egress.shed", double(drops.egress_shed), "count"},
        {"egress.empty_poll_frac",
         Ratio(double(empty_polls), double(polls)), "fraction"},
        {"egress.poll_us_p50", us(all_spans.poll_ns, 0.50), "us"},
        {"egress.time_share", Ratio(layer_us["egress"], traced_total),
         "fraction"},
        {"storage.checkpoint_ms_p50", ms(all_spans.checkpoint_ns, 0.50), "ms"},
        {"storage.checkpoint_bytes",
         Ratio(double(cs.CounterValue("tcq_checkpoint_bytes")),
               double(ckpt_epochs)),
         "bytes"},
        {"storage.spool_append_failed", double(drops.spool_failed), "count"},
        {"obs.trace_e2e_us_p50",
         HistQuantile(os, "tcq_trace_e2e_us", 0.50), "us"},
        {"obs.bench_latency_p50_us", Median(open.LatencyQuantiles(0.50)),
         "us"},
        {"obs.trace_overhead_ratio", Ratio(tput_traced, tput_untraced),
         "ratio"},
        {"obs.untraced_throughput_rps", tput_untraced, "rows/s"},
        {"obs.traced_throughput_rps", tput_traced, "rows/s"},
        {"bench.gen_late_us_p99", us(open_spans.gen_late_ns, 0.99), "us"},
        {"bench.latency_p95_us", Median(open.LatencyQuantiles(0.95)), "us"},
        {"bench.latency_p99_us", Median(open.LatencyQuantiles(0.99)), "us"},
    };

    // The full stage/module table, for reading alongside the metrics.
    std::string table = "{\"layer_table\": {\"workload\": \"" + w.name +
                        "\", \"stages\": {";
    bool first = true;
    for (const char* s : {"enqueue", "queue_wait", "hop", "stem_build",
                          "stem_probe", "egress_emit", "e2e"}) {
      const auto h = Family(os, Stage(s));
      table += std::string(first ? "" : ", ") + "\"" + s +
               "\": {\"spans\": " + std::to_string(h.count) +
               ", \"mean_us\": " + Num(Ratio(double(h.sum), double(h.count))) +
               ", \"p50_us\": " + Num(double(h.ApproxQuantile(0.5))) +
               ", \"share\": " +
               Num(std::strcmp(s, "e2e") == 0
                       ? 0
                       : Ratio(double(h.sum), traced_total)) +
               "}";
      first = false;
    }
    table += "}, \"modules\": {";
    first = true;
    for (const auto& d : os.histograms) {
      if (d.name.rfind("tcq_trace_module_us", 0) != 0) continue;
      // tcq_trace_module_us{module="<name>"}: keep the label value.
      const size_t q0 = d.name.find('"'), q1 = d.name.rfind('"');
      if (q0 == std::string::npos || q1 <= q0) continue;
      table += std::string(first ? "" : ", ") + "\"" +
               d.name.substr(q0 + 1, q1 - q0 - 1) + "\": " +
               Num(Ratio(double(d.sum), traced_total));
      first = false;
    }
    table += "}}}";
    std::printf("%s\n", table.c_str());
    extra = ", \"rounds_untraced\": " + std::to_string(untraced.rounds.size()) +
            ", \"rounds_traced\": " + std::to_string(traced.rounds.size()) +
            ", \"rounds_open\": " + std::to_string(open.rounds.size()) +
            ", \"latency_samples\": " + std::to_string(open.LatencySamples());
  }
  std::filesystem::remove_all(scratch);
  const auto [steal1, ticks1] = HostCpuTicks();
  extra += ", \"host_steal_frac\": " +
           Num(Ratio(double(steal1 - steal0), double(ticks1 - ticks0)));

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"host_cores\": %zu, \"git_sha\": "
      "\"%s\", \"build_type\": \"%s\", \"rows_per_round\": %" PRIu64
      ", \"offered_rate_rps\": %s, \"shards\": %zu%s}}\n",
      w.name.c_str(), args.seed, Num(S).c_str(), int(args.trace), cores,
      args.git_sha.c_str(), TCQ_E2E_BUILD_TYPE, w.total_rows(),
      Num(w.offered_rps).c_str(), w.shards, extra.c_str());
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcq::e2e

int main(int argc, char** argv) { return tcq::e2e::Main(argc, argv); }
