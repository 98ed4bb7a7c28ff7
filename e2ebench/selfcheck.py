#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark: schema and layer sum, not absolute times.

    python3 e2ebench/selfcheck.py

Runs every workload of BENCHMARK.json in the benchmark's --short mode (tiny job
lists), once untraced and once traced, and fails unless:
  * the last output line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct is true and nothing failed;
  * the metrics are exactly the end_to_end (untraced) or per_layer (traced)
    metrics of BENCHMARK.json, each with its declared unit;
  * on the session workloads, optimizer self time plus the session's
    testbench time sums to each session's own wall time within 3%
    (layers.sum_error_max);
  * the testbench share of glova-behavioral stays below 1%.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYER_SUM_TOLERANCE = 0.03


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, result, declared):
    where = f"{workload} trace={trace}"
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correct is {result.get('correct')}")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: attempted {result.get('attempted')} failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"{where}: missing {sorted(set(want) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {name} printed as {got}, declared unit {unit}")
    if trace and workload != "mc-signoff":
        err = metrics.get("layers.sum_error_max", {}).get("value", 1.0)
        if err > LAYER_SUM_TOLERANCE:
            errors.append(f"{where}: layer sum off by {err:.3%} of a session's wall time")
    if trace and workload == "glova-behavioral":
        share = metrics.get("testbench.share", {}).get("value", 1.0)
        if share >= 0.01:
            errors.append(f"{where}: testbench share {share:.3%} is not below 1%")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            try:
                errors += check(w["name"], trace, run(w["name"], trace), declared)
            except (AssertionError, ValueError, IndexError, subprocess.SubprocessError) as e:
                errors.append(str(e))
            print(f"selfcheck: {w['name']} trace={trace} done", flush=True)
    for e in errors:
        print(f"selfcheck: FAIL {e}")
    print("selfcheck: ok" if not errors else f"selfcheck: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
