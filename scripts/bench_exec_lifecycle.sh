#!/usr/bin/env bash
# Bench smoke for the query-class lifecycle: runs bench_exec_lifecycle and
# distills BENCH_exec_lifecycle.json at the repo root with
#   * the bridging-merge pause (ms) at 1 and 4 shards per class and 1k and
#     10k SteM entries per stream (recorded, not gated),
#   * post-GC vs routed ingest cost,
#   * the rebalance gain on the skewed 2-EO workload (drain-time ratio,
#     acceptance: rebalance on must migrate and must not be slower),
#   * the idle-wake latency: one row into a drained server with parked EOs
#     until a spinning Poll sees it, p50/p99 over 1k rows (recorded, not
#     gated).
#
# Usage: scripts/bench_exec_lifecycle.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

if [[ ! -x "$BUILD/bench/bench_exec_lifecycle" ]]; then
  echo "benchmarks not built; run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/bench/bench_exec_lifecycle" \
  --benchmark_format=json >"$TMP/lifecycle.json"

python3 - "$TMP/lifecycle.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

merge, post_gc, rebalance, idle_wake = [], {}, {}, {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b["name"]
    if name.startswith("BM_MergePause"):
        merge.append({
            "shards": int(b["shards"]),
            "stem_entries_per_stream": int(b["stem_entries_per_stream"]),
            "pause_ms": b["real_time"],
        })
    elif name.startswith("BM_PostGcIngest"):
        key = "routed" if b.get("routed") else "post_gc_unrouted"
        post_gc[key] = {
            "batch_us": b["real_time"],
            "items_per_second": b.get("items_per_second"),
        }
    elif name.startswith("BM_IdleWake"):
        idle_wake = {"p50_us": b["p50_us"], "p99_us": b["p99_us"],
                     "samples": 1000}
    elif name.startswith("BM_RebalanceGain"):
        key = "rebalance_on" if b.get("rebalance") else "rebalance_off"
        rebalance[key] = {
            "drain_ms": b["real_time"],
            "migrations": int(b.get("migrations", 0)),
        }

report = {
    "merge_pause": sorted(
        merge, key=lambda r: (r["shards"], r["stem_entries_per_stream"])),
    "post_gc_ingest": post_gc,
    "rebalance_skewed_2eo": rebalance,
    "idle_wake": idle_wake,
}
ok = True
if "rebalance_on" in rebalance and "rebalance_off" in rebalance:
    gain = rebalance["rebalance_off"]["drain_ms"] / rebalance["rebalance_on"]["drain_ms"]
    report["rebalance_skewed_2eo"]["gain"] = gain
    migrated = rebalance["rebalance_on"]["migrations"] >= 1
    print(f"rebalance gain (drain off/on) = {gain:.2f}x, "
          f"migrations = {rebalance['rebalance_on']['migrations']}")
    # Gate: the pass must actually migrate, and must not slow the drain
    # down materially (on a single-core runner the parallelism gain is
    # bounded, so >=0.9x tolerates scheduling noise).
    if not migrated or gain < 0.9:
        ok = False
else:
    ok = False
if idle_wake:
    print(f"idle wake p50 = {idle_wake['p50_us']:.1f} us, "
          f"p99 = {idle_wake['p99_us']:.1f} us")
for row in report["merge_pause"]:
    print(f"merge pause @ {row['shards']} shard(s), "
          f"{row['stem_entries_per_stream']} entries/stream "
          f"= {row['pause_ms']:.3f} ms")

with open("BENCH_exec_lifecycle.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print("wrote BENCH_exec_lifecycle.json")
sys.exit(0 if ok else 1)
PY
