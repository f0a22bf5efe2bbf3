"""Smoke-size self-test of the benchmark (not collected by the tier-1 tests).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with --smoke (tiny inputs, one-second
runs), untraced and traced, and checks that

- the last stdout line is the result object with exactly the contract keys,
  and every output check of the run passed;
- every metric BENCHMARK.json names is emitted, finite, and carries its unit;
- in the span dump of the traced run, every self time is >= 0 and the
  children of a span lie inside it and never cover more than its duration;
- run.py exits non-zero without a result in a directory that holds only
  BENCHMARK.json and perfbench/.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import collections
import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SLACK = 1e-9  # seconds of float rounding allowed in span arithmetic


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"checks failed: {proc.stderr[-2000:]}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {set(metrics) ^ {m['name'] for m in wanted}}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{m['name']}: value {value!r}")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
    return problems


def check_spans(path: Path) -> list[str]:
    with open(path, newline="") as f:
        spans = list(csv.DictReader(f, delimiter="\t"))
    if not spans:
        return [f"{path.name}: no spans"]
    by_id = {s["id"]: s for s in spans}
    covered = collections.defaultdict(float)
    problems = []
    for s in spans:
        start, end = float(s["start"]), float(s["end"])
        if float(s["self_s"]) < -SLACK:
            problems.append(f"span {s['id']} {s['name']}: self time {s['self_s']}")
        parent = by_id.get(s["parent"])
        if parent is not None:
            covered[s["parent"]] += end - start
            if start < float(parent["start"]) or end > float(parent["end"]):
                problems.append(f"span {s['id']} {s['name']} lies outside its parent")
    for sid, child_time in covered.items():
        parent = by_id[sid]
        if child_time > float(parent["end"]) - float(parent["start"]) + SLACK:
            problems.append(f"span {sid} {parent['name']}: children cover {child_time} s")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def report(what: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {what}" + "".join(
            f"\n    {p}" for p in problems[:10]), flush=True)

    for workload in (w["name"] for w in bench["workloads"]):
        report(f"{workload} end-to-end metrics",
               check_result(run(ROOT, workload, 0), bench["end_to_end"]))
        report(f"{workload} per-layer metrics",
               check_result(run(ROOT, workload, 1), bench["per_layer"]))
        report(f"{workload} span nesting",
               check_spans(ROOT / ".perfbench_work" / f"trace-{workload}-seed{SEED}.tsv"))

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        report("no result without the sources",
               [] if proc.returncode != 0 and '"metrics"' not in proc.stdout
               else [f"exit code {proc.returncode}, stdout {proc.stdout[-300:]!r}"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
