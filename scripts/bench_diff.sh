#!/usr/bin/env bash
# Compares the last two records in BENCH_micro.json (the JSONL perf
# trajectory that scripts/bench.sh appends to) and reports per-metric
# deltas, so a PR's kernel/serving numbers are read against the previous
# run instead of eyeballed in isolation.
#
# Direction is inferred from the metric name: throughputs and speedups
# (`*_per_sec`, `*speedup*`, `relative_throughput`) are better-higher;
# timings (`*_ns`, `*_seconds`, `overhead_ns`, and unit rates such as the
# detectors record's `ms_per_series` and `*_ns_per_elem`) are
# better-lower. The conv record's per-case fields go by the same
# suffixes: `infer_ns`, `backward_ns` and `backward_train_ns` (backward
# at the 64-window training batch) are better-lower, and their
# `infer_gflop_per_sec`, `backward_gflop_per_sec` and
# `backward_train_gflop_per_sec` rates better-higher. Millisecond leaves
# (`*_ms`, and per thread count `*_ms_t1`/`*_ms_tn`, such as the train
# record's `step_forward_ms_t1`) and allocation counts (`*allocations*`)
# are better-lower. A `_q1`/`_q3` suffix marks a quartile of the metric
# it follows and takes that metric's direction. A metric missing
# from the older record is skipped. Config fields (shapes, thread
# counts, request counts) are compared only to warn when the two runs
# measured different workloads.
#
# A >10% move in the worse direction is a RED FLAG and the script exits
# nonzero — wire it as a non-fatal (continue-on-error) CI step: bench
# numbers from shared runners are advisory, the exit code is a nudge to
# look, not a gate.
#
# Usage:
#   scripts/bench_diff.sh                # diff repo-root BENCH_micro.json
#   scripts/bench_diff.sh path/to.json   # diff another trajectory file
set -euo pipefail
cd "$(dirname "$0")/.."

FILE="${1:-BENCH_micro.json}"

python3 - "$FILE" <<'EOF'
import json, sys

path = sys.argv[1]
try:
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
except FileNotFoundError:
    print(f"bench_diff: {path} not found — nothing to diff")
    sys.exit(0)

if len(records) < 2:
    print(f"bench_diff: {path} holds {len(records)} record(s); need 2 — nothing to diff")
    sys.exit(0)

prev, curr = records[-2], records[-1]

HIGHER = ("_per_sec", "speedup", "relative_throughput")

def direction(key):
    if any(h in key for h in HIGHER):
        return "higher"
    leaf = key.rsplit(".", 1)[-1]
    for quartile in ("_q1", "_q3"):
        leaf = leaf.removesuffix(quartile)
    if leaf.endswith("_ns") or "seconds" in leaf:
        return "lower"
    if leaf.endswith(("_ms", "_ms_t1", "_ms_tn")) or "allocations" in leaf:
        return "lower"
    if leaf.startswith("ms_per_") or leaf.endswith("_ns_per_elem"):
        return "lower"
    return None

def flatten(node, prefix, out):
    if isinstance(node, dict):
        for k, v in node.items():
            out = flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            label = v.get("case", v.get("mode", str(i))) if isinstance(v, dict) else str(i)
            out = flatten(v, f"{prefix}[{label}]", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out

a, b = flatten(prev, "", {}), flatten(curr, "", {})
shared = [k for k in b if k in a]

red_flags, deltas, config_drift = [], [], []
for key in shared:
    old, new = a[key], b[key]
    d = direction(key)
    if d is None:
        if old != new and not key.endswith("max_abs_diff"):
            config_drift.append(f"  {key}: {old:g} -> {new:g}")
        continue
    if old == 0.0:
        continue
    pct = (new - old) / abs(old) * 100.0
    worse = (d == "higher" and pct < 0) or (d == "lower" and pct > 0)
    line = f"  {key}: {old:.4g} -> {new:.4g}  ({pct:+.1f}%)"
    deltas.append(line)
    if worse and abs(pct) > 10.0:
        red_flags.append(line)

print(f"bench_diff: {path} — record {len(records)-1} vs {len(records)} ({len(deltas)} metrics)")
for line in deltas:
    print(line)
if config_drift:
    print("config drift (the two runs measured different workloads):")
    for line in config_drift:
        print(line)
if red_flags:
    print(f"RED FLAG: {len(red_flags)} metric(s) regressed >10%:")
    for line in red_flags:
        print(line)
    sys.exit(1)
print("bench_diff: no >10% regressions")
EOF
