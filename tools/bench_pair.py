"""Benchmark two commits on one machine and write the record as JSON.

    python3 tools/bench_pair.py --parent REV --change REV --out BENCH_<n>.json

Each commit is exported with `git archive` into its own temporary directory.
In each, the script runs `python3 perfbench/run.py --workload W --seed 42
--seconds S` for every workload in BENCHMARK.json, with its run_seconds as
S, alternating between the two commits, then the acceptance Monte Carlo
test (test_04) of each, timed by pytest's JUnit report. The record holds
every result line as run.py printed it, next to the machine facts run.py
logged for that run (versions and load average), the machine, and the
command that wrote it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_04 = "tests/test_acceptance.py::test_04_priced_noise_is_truthful"
SEED = 42


def export(rev: str, into: Path) -> str:
    """Write the tree of rev into a fresh directory; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """run.py's result line and the machine facts it logs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sides = ("parent", "change")
    record: dict = {
        "command": " ".join(["python3", "tools/bench_pair.py", *(argv or sys.argv[1:])]),
        "machine": {"cpu": cpu_model(), "platform": platform.platform()},
        "commits": {}, "runs": {side: {} for side in sides}, "test_04_s": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side in sides:
            record["commits"][side] = export(getattr(args, side), trees[side])
        for k, workload in enumerate(workloads):
            for side in sides if k % 2 == 0 else sides[::-1]:
                print(f"{side}: {workload}", file=sys.stderr, flush=True)
                result, facts = run_workload(trees[side], workload, SEED, bench["run_seconds"])
                record["runs"][side][workload] = {"result": result, "facts": facts}
        for side in sides:
            record["test_04_s"][side] = time_test_04(trees[side])
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
