"""Benchmark two commits on one machine and write the record as JSON.

    python3 tools/bench_pair.py --parent REV --change REV --out BENCH_<n>.json

Each commit is exported with `git archive` into its own temporary directory.
For every workload in BENCHMARK.json the script runs PAIRS pairs of
`python3 perfbench/run.py --workload W --seed 42 --seconds S`, with the
workload's run_seconds as S, one run of each commit per pair; the commit
that goes first alternates from pair to pair. Then it times PAIRS pairs of
the acceptance Monte Carlo test (test_04) the same way, by pytest's JUnit
report; PAIRS pairs of each estimate in ESTIMATES, one estimate timed in a
fresh process, with the mean it returns: an LMSR chase (the golden
`lmsr_chasing` config of tests/golden_mc.json at LMSR_CHASE_REPLICAS
replicas) and an early-stopping chase (test_batch's `chasing-starved` config
at 64 rounds and STARVED_CHASE_REPLICAS replicas, whose replicas stop at
different rounds); and TIER1_PAIRS pairs of the whole tier-1 suite by the
wall time of its pytest process. Last, TRACED_RUNS pairs of short traced runs
per workload (`--trace 1 --seconds TRACE_SECONDS`), alternating the same
way, give the per-layer metrics: `layers` keeps the median of each over a
commit's traced runs, as one traced run cannot place a 10 % change. The
record keeps every result line as run.py printed it, next to the machine
facts run.py logged for that run (versions and load average) and the run's
wall time and CPU time (`wall_s`, `cpu_s`: user plus system, of run.py and
the processes it waited for), so a run whose wall time outgrows its CPU time
points at the host. It keeps each estimate's times and means
(`lmsr_chase_s`, `lmsr_chase_mean`, `starved_chase_s`, `starved_chase_mean`)
and, for each commit, the median and quartiles (inclusive method) of every
end-to-end metric, of test_04's time, of each estimate's time and of the
tier-1 time (`tier1_s`), plus the machine and the command that wrote it, and
each commit's line count of src/noisycfmm/*.py. Last, `verdict` judges each
workload's end-to-end metrics pair by pair (see verdict()).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TEST_04 = "tests/test_acceptance.py::test_04_priced_noise_is_truthful"
SEED = 42
PAIRS = 10  # runs per side and workload
TIER1_PAIRS = 3  # runs per side of the tier-1 suite, about 16 s each
TRACE_SECONDS = 5  # a traced run: per-layer metrics, not timed against the other side
TRACED_RUNS = 5  # traced runs per side and workload; layers keeps their medians
SIDES = ("parent", "change")
LMSR_CHASE_REPLICAS = 10**4
STARVED_CHASE_REPLICAS = 4096
# one estimate of a config in a fresh process; prints its time and mean
ESTIMATE = """
from time import perf_counter
from noisycfmm import (
    ExperimentConfig, PrivacySpec, StrategyConfig, TradingCurve, estimate_excess_profit,
)
config = ExperimentConfig({config})
t0 = perf_counter()
mean = estimate_excess_profit(config).mean
print(perf_counter() - t0, repr(mean))
"""
ESTIMATES = {
    # tests/golden_mc.json's lmsr_chasing arm
    "lmsr_chase": f"""
    curve=TradingCurve.lmsr(1.5), initial_x=50.0, true_price=0.8,
    privacy=PrivacySpec(0.0, 0.5, 2.0), strategy=StrategyConfig("noise_chasing", max_rounds=8),
    replicas={LMSR_CHASE_REPLICAS}, seed={SEED},
""",
    # tests/test_batch.py's chasing-starved case at 64 rounds: the hidden account
    # runs dry, so the replicas stop at different rounds
    "starved_chase": f"""
    curve=TradingCurve.constant_product(1e4), initial_x=100.0, true_price=1.5,
    privacy=PrivacySpec(0.0, 2.0, 2.0), strategy=StrategyConfig("noise_chasing", max_rounds=64),
    replicas={STARVED_CHASE_REPLICAS}, seed={SEED}, hidden_x=1.5,
""",
}


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


def run_workload(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """run.py's result line, the machine facts it logs, and its wall and CPU time."""
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    wall, after = perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    facts = next((line.split("; ", 1)[1] for line in proc.stderr.splitlines()
                  if line.startswith(f"{workload}: seed")), "")
    return {
        "result": json.loads(proc.stdout.strip().splitlines()[-1]), "facts": facts,
        "wall_s": wall,
        "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
    }


def time_test_04(tree: Path) -> float:
    report = tree / "junit.xml"
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", TEST_04,
         f"--junitxml={report}"],
        cwd=tree, check=True, capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    return float(ET.parse(report).find(".//testcase").get("time"))


def time_estimate(tree: Path, config: str) -> tuple[float, float]:
    """Seconds of one estimate of ESTIMATES' config in a fresh process, and its mean."""
    out = subprocess.run(
        [sys.executable, "-c", ESTIMATE.format(config=config)], cwd=tree, check=True,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"},
    ).stdout.split()
    return float(out[0]), float(out[1])


def time_tier1(tree: Path) -> float:
    """Wall time of one tier-1 run, the command ROADMAP.md names, in a fresh process."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, check=True, capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    return perf_counter() - t0


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


def median_layers(results: list[dict]) -> dict:
    """Each per-layer metric's median over the traced runs of one side and workload."""
    metrics = results[0]["metrics"]
    return {
        "runs": len(results), "correct": all(r["correct"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": metrics[name]["unit"]}
            for name in metrics
        },
    }


def verdict(record: dict, end_to_end: list[dict]) -> dict:
    """Each workload's end-to-end metrics judged on the record's own pairs.

    Pair k holds run k of each side. ``wins`` counts the pairs the change
    has better by the metric's direction; a tie counts for neither side.
    ``gap`` is the change's median less the parent's, and ``spread`` the
    parent's quartile spread (q3 - q1). The change ``gains`` when it wins at
    least nine pairs in ten and its median is better by more than the
    spread. It stays ``within_bound`` unless its median is worse than the
    parent's by more than the metric's bound, a share of the parent's median.
    The metric is ``unresolved`` when the parent's spread, as a share of its
    median, exceeds that bound, so the bound cannot tell a change from the
    host's noise, unless every run of the change is better than every run of
    the parent.
    """
    out: dict = {}
    for workload in record["runs"]["parent"]:
        out[workload] = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            parent, change = (
                [r["result"]["metrics"][name]["value"] for r in record["runs"][side][workload]]
                for side in SIDES
            )
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            base, ours = spread(parent), spread(change)
            gap = ours["median"] - base["median"]
            better_by = -gap if lower else gap
            worse_share = -better_by / abs(base["median"]) if base["median"] else 0.0
            width = base["q3"] - base["q1"]
            wide = width > metric["bound"] * abs(base["median"])
            all_better = max(change) < min(parent) if lower else min(change) > max(parent)
            out[workload][name] = {
                "pairs": len(parent), "wins": wins, "gap": gap, "spread": width,
                "gains": wins >= 0.9 * len(parent) and better_by > width,
                "within_bound": worse_share <= metric["bound"],
                "unresolved": wide and not all_better,
            }
    return out


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
        **{f"{name}_{what}": {side: [] for side in SIDES}
           for name in ESTIMATES for what in ("s", "mean")},
        "tier1_s": {side: [] for side in SIDES},
    }
    traced: dict = {side: {w: [] for w in workloads} for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            record["commits"][side] = export(getattr(args, side), trees[side])
            record["src_lines"][side] = src_lines(trees[side])
        for workload in workloads:
            for k in range(PAIRS):
                for side in pair_order(k):
                    print(f"{side}: {workload} {k + 1}/{PAIRS}", file=sys.stderr, flush=True)
                    record["runs"][side][workload].append(
                        run_workload(trees[side], workload, SEED, bench["run_seconds"])
                    )
        for k in range(PAIRS):
            for side in pair_order(k):
                record["test_04_s"][side].append(time_test_04(trees[side]))
        for name, config in ESTIMATES.items():
            for k in range(PAIRS):
                for side in pair_order(k):
                    print(f"{side}: {name} {k + 1}/{PAIRS}", file=sys.stderr, flush=True)
                    seconds, mean = time_estimate(trees[side], config)
                    record[f"{name}_s"][side].append(seconds)
                    record[f"{name}_mean"][side].append(mean)
        for k in range(TIER1_PAIRS):
            for side in pair_order(k):
                print(f"{side}: tier-1 {k + 1}/{TIER1_PAIRS}", file=sys.stderr, flush=True)
                record["tier1_s"][side].append(time_tier1(trees[side]))
        for workload in workloads:
            for k in range(TRACED_RUNS):
                for side in pair_order(k):
                    print(f"{side}: {workload} traced {k + 1}/{TRACED_RUNS}", file=sys.stderr,
                          flush=True)
                    traced[side][workload].append(run_workload(
                        trees[side], workload, SEED, TRACE_SECONDS, trace=1
                    )["result"])
    record["layers"] = {
        side: {w: median_layers(traced[side][w]) for w in workloads} for side in SIDES
    }
    record["summary"] = {
        side: {
            **{w: summarize(record["runs"][side][w], metrics) for w in workloads},
            "test_04_s": spread(record["test_04_s"][side]),
            **{f"{name}_s": spread(record[f"{name}_s"][side]) for name in ESTIMATES},
            "tier1_s": spread(record["tier1_s"][side]),
        }
        for side in SIDES
    }
    record["verdict"] = verdict(record, bench["end_to_end"])
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
