#!/usr/bin/env bash
# Bench smoke for the batched pipeline: runs the batched-vs-per-tuple
# comparisons in bench_fjords (queue batch transfer), bench_cacq_scaling
# (shared-eddy batched ingest), and bench_grouped_filter (columnar MatchBatch
# vs per-row scalar probes) and merges the results into BENCH_batching.json
# at the repo root, including the speedup ratios the acceptance criteria
# read (>= 2x batch-64-vs-1 on fjords/cacq, >= 5x columnar-vs-scalar on the
# grouped filter at 256 queries). It also records (ungated) the ns/row of
# 64-row columnar batches through a metered push fjord, and whether they
# arrive with their ColumnStore intact.
#
# Usage: scripts/bench_batching.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

if [[ ! -x "$BUILD/bench/bench_fjords" || ! -x "$BUILD/bench/bench_cacq_scaling" \
   || ! -x "$BUILD/bench/bench_grouped_filter" ]]; then
  echo "benchmarks not built; run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

MIN_TIME="${TCQ_BENCH_MIN_TIME:-0.3}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/bench/bench_fjords" \
  --benchmark_filter='BM_QueueBatchTransfer' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/fjords.json"

"$BUILD/bench/bench_fjords" \
  --benchmark_filter='BM_ColumnarSegmentTransfer' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/segment.json"

"$BUILD/bench/bench_cacq_scaling" \
  --benchmark_filter='BM_SharedCACQBatchedIngest' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/cacq.json"

"$BUILD/bench/bench_grouped_filter" \
  --benchmark_filter='BM_GroupedFilterBatch(Columnar|Scalar)' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/gf.json"

python3 - "$TMP/fjords.json" "$TMP/cacq.json" "$TMP/gf.json" \
  "$TMP/segment.json" <<'PY'
import json, sys

def load(path, prefix):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        batch = int(b.get("batch_size", 0)) or int(name.rsplit("/", 1)[-1])
        rows[batch] = {
            "name": name,
            "batch_size": batch,
            "items_per_second": b.get("items_per_second"),
            "cpu_time_ms": b.get("cpu_time") if b.get("time_unit") == "ms"
                           else b.get("cpu_time", 0) / 1e6,
        }
    out = {"results": [rows[k] for k in sorted(rows)]}
    if 1 in rows and 64 in rows:
        out["speedup_64_vs_1"] = rows[64]["items_per_second"] / rows[1]["items_per_second"]
    return out

def load_grouped_filter(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        kind = "columnar" if "Columnar" in name else "scalar"
        queries = int(name.rsplit("/", 1)[-1])
        rows.setdefault(queries, {})[kind] = {
            "name": name,
            "items_per_second": b.get("items_per_second"),
        }
    out = {"results": []}
    for q in sorted(rows):
        entry = {"queries": q}
        entry.update(rows[q])
        col = rows[q].get("columnar", {}).get("items_per_second")
        sca = rows[q].get("scalar", {}).get("items_per_second")
        if col and sca:
            entry["speedup_columnar_vs_scalar"] = col / sca
        out["results"].append(entry)
    ratios = [e["speedup_columnar_vs_scalar"] for e in out["results"]
              if "speedup_columnar_vs_scalar" in e]
    if ratios:
        out["speedup_columnar_vs_scalar_peak"] = max(ratios)
    return out

def load_segment(path):
    with open(path) as f:
        doc = json.load(f)
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "aggregate":
            return {"name": b["name"], "rows_per_batch": 64,
                    "ns_per_row": b.get("ns_per_row"),
                    "columns_kept": b.get("columns_kept")}
    return {}

report = {
    "fjords_queue_batch_transfer": load(sys.argv[1], "fjords"),
    "fjords_columnar_segment_transfer": load_segment(sys.argv[4]),
    "cacq_batched_ingest": load(sys.argv[2], "cacq"),
    "grouped_filter_batch_probe": load_grouped_filter(sys.argv[3]),
}
with open("BENCH_batching.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

ok = True
for key in ("fjords_queue_batch_transfer", "cacq_batched_ingest"):
    ratio = report[key].get("speedup_64_vs_1")
    status = "n/a" if ratio is None else f"{ratio:.2f}x"
    print(f"{key}: batch-64 vs batch-1 speedup = {status}")
    if ratio is None or ratio < 2.0:
        ok = False
gf_ratio = report["grouped_filter_batch_probe"].get(
    "speedup_columnar_vs_scalar_peak")
status = "n/a" if gf_ratio is None else f"{gf_ratio:.2f}x"
print(f"grouped_filter_batch_probe: columnar vs scalar peak = {status}")
if gf_ratio is None or gf_ratio < 5.0:
    ok = False
seg = report["fjords_columnar_segment_transfer"]
if seg.get("ns_per_row") is not None:
    print(f"fjords_columnar_segment_transfer: {seg['ns_per_row']:.2f} ns/row, "
          f"columns kept {seg['columns_kept']:.2f}")
print("wrote BENCH_batching.json")
sys.exit(0 if ok else 1)
PY
