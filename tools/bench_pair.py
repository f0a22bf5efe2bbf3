"""Benchmark two commits on one machine and write the record as JSON.

    python3 tools/bench_pair.py --parent REV --change REV --out BENCH_<n>.json

Each commit is exported with `git archive` into its own temporary directory.
For every workload in BENCHMARK.json the script runs PAIRS pairs of
`python3 perfbench/run.py --workload W --seed 42 --seconds S`, with the
workload's run_seconds as S, one run of each commit per pair; the commit
that goes first alternates from pair to pair. Then it times PAIRS pairs of
the acceptance Monte Carlo test (test_04) the same way, by pytest's JUnit
report. Last, one short traced run per commit and workload (`--trace 1
--seconds TRACE_SECONDS`) records the per-layer metrics under `layers`.
The record keeps every result line as run.py printed it, next to
the machine facts run.py logged for that run (versions and load average),
and for each commit the median and quartiles (inclusive method) of every
end-to-end metric and of test_04's time, plus the machine and the command
that wrote it, and each commit's line count of src/noisycfmm/*.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_04 = "tests/test_acceptance.py::test_04_priced_noise_is_truthful"
SEED = 42
PAIRS = 10  # runs per side and workload
TRACE_SECONDS = 5  # the traced run: per-layer metrics, not timed against the other side
SIDES = ("parent", "change")


def export(rev: str, into: Path) -> str:
    """Write the tree of rev into a fresh directory; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def src_lines(tree: Path) -> int:
    """Lines in the package sources, src/noisycfmm/*.py, of an exported tree (as wc -l)."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "noisycfmm").glob("*.py"))


def run_workload(
    tree: Path, workload: str, seed: int, seconds: float, trace: int = 0,
) -> tuple[dict, str]:
    """run.py's result line and the machine facts it logs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    facts = next((line.split("; ", 1)[1] for line in proc.stderr.splitlines()
                  if line.startswith(f"{workload}: seed")), "")
    return json.loads(proc.stdout.strip().splitlines()[-1]), facts


def time_test_04(tree: Path) -> float:
    report = tree / "junit.xml"
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", TEST_04,
         f"--junitxml={report}"],
        cwd=tree, check=True, capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    return float(ET.parse(report).find(".//testcase").get("time"))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def pair_order(k: int) -> tuple[str, ...]:
    """The sides in the order pair k runs them; the first alternates."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def spread(values: list[float]) -> dict:
    """Median and quartiles of one metric over a side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs of one side."""
    return {
        name: {**spread([r["result"]["metrics"][name]["value"] for r in runs]),
               "unit": runs[0]["result"]["metrics"][name]["unit"]}
        for name in metrics
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    record: dict = {
        "command": " ".join(["python3", "tools/bench_pair.py", *(argv or sys.argv[1:])]),
        "machine": {"cpu": cpu_model(), "platform": platform.platform()},
        "commits": {}, "src_lines": {}, "pairs": PAIRS,
        "runs": {side: {w: [] for w in workloads} for side in SIDES},
        "test_04_s": {side: [] for side in SIDES},
        "layers": {side: {} for side in SIDES},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            record["commits"][side] = export(getattr(args, side), trees[side])
            record["src_lines"][side] = src_lines(trees[side])
        for workload in workloads:
            for k in range(PAIRS):
                for side in pair_order(k):
                    print(f"{side}: {workload} {k + 1}/{PAIRS}", file=sys.stderr, flush=True)
                    result, facts = run_workload(
                        trees[side], workload, SEED, bench["run_seconds"]
                    )
                    record["runs"][side][workload].append({"result": result, "facts": facts})
        for k in range(PAIRS):
            for side in pair_order(k):
                record["test_04_s"][side].append(time_test_04(trees[side]))
        for workload in workloads:
            for side in SIDES:
                print(f"{side}: {workload} traced", file=sys.stderr, flush=True)
                record["layers"][side][workload], _ = run_workload(
                    trees[side], workload, SEED, TRACE_SECONDS, trace=1
                )
    record["summary"] = {
        side: {
            **{w: summarize(record["runs"][side][w], metrics) for w in workloads},
            "test_04_s": spread(record["test_04_s"][side]),
        }
        for side in SIDES
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
