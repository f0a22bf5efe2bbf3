"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mc_arms --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout: noisycfmm is imported from ./src, and
scratch files go to ./.perfbench_work. The workloads, metric names and units
are those of ./BENCHMARK.json.

A run builds the inputs from the seed, repeats fixed-size passes of the
workload for --seconds (at least two passes), and checks every output of
every pass. --trace 0 prints the end-to-end metrics. --trace 1 prints the
per-layer metrics: the same untraced passes, then one more pass with tracing
installed from perfbench/tracing.py, whose spans are written to
./.perfbench_work/trace-<workload>-seed<seed>.tsv. Progress, machine facts
and any failed check go to stderr; the last stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 2
# One caller, one thread: cap the numpy/BLAS pools before numpy loads. The
# cap reaches every child process through the environment. HiGHS, as scipy
# ships it, solves on the calling thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no reference comparison (for selftest.py)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def input_seed(seed: int, recorded: dict | None, span: int) -> int:
    """First recorded input seed at or after seed % span, wrapping around.

    reference.json leaves out the seeds whose outputs failed a check when it
    was recorded, with the reason; see perfbench/NOTES.md.
    """
    start = seed % span
    if recorded is None:
        return start
    for k in range(span):
        if str((start + k) % span) in recorded:
            return (start + k) % span
    raise RuntimeError("reference.json records no input seed")


def setup_probe(args: argparse.Namespace) -> float:
    """Import noisycfmm and build the inputs in a fresh process; returns seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def machine_facts() -> str:
    import numpy
    import scipy

    load = os.getloadavg()
    return (f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {numpy.__version__},"
            f" scipy {scipy.__version__}, load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "noisycfmm" / "__init__.py").is_file():
        print(f"run.py: no noisycfmm sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    recorded = None
    if not args.smoke:
        recorded = json.loads((HERE / "reference.json").read_text())[args.workload]["seeds"]
    seed = input_seed(args.seed, recorded, workloads.SEED_SPAN)
    reference = None if recorded is None else recorded[str(seed)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            t0 = perf_counter()
            import noisycfmm

            workloads.WORKLOADS[args.workload](noisycfmm, seed, work, args.smoke)
            print(perf_counter() - t0)
            return 0
        result = measure(args, bench, workloads, seed, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, bench, workloads, seed, reference, work) -> dict:
    log = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
    import noisycfmm

    log(f"{args.workload}: seed {args.seed} -> input seed {seed}; {machine_facts()}")
    workload = workloads.WORKLOADS[args.workload](noisycfmm, seed, work, args.smoke)
    passes, attempted, failed, problems = [], 0, 0, []

    def check(done) -> None:
        nonlocal attempted, failed
        checked = workload.check(done, passes[0], reference)
        attempted += checked.attempted
        failed += checked.failed
        problems.extend(checked.problems)

    start = perf_counter()
    while len(passes) < MIN_PASSES or (
        perf_counter() - start + statistics.median(p.wall for p in passes) <= args.seconds
    ):
        passes.append(workload.run_pass())
        check(passes[-1])
        if len(passes) > 1:
            passes[-1].outputs = None  # only the first pass's outputs are compared again
    wall_s = workloads.stage_time(passes, *passes[0].times)
    median_pass = statistics.median(p.wall for p in passes)
    log(f"{args.workload}: {len(passes)} passes; pass time {wall_s:.4f} s by stage_time, "
        f"median pass {median_pass:.4f} s")

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run_pass(tracer.set_stage)
        finally:
            tracer.uninstall()
        check(traced)
        tracer.write_spans(ROOT / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.tsv")
        values = dict.fromkeys(workloads.DETAIL_NAMES, 0.0)
        values.update(workload.detail(passes))
        values.update(workload.layer_extras(traced))
        values.update(tracer.layer_metrics())
        values["trace.overhead_ratio"] = traced.wall / median_pass
        values["failed_ops_ratio"] = failed / attempted
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_ratio": (attempted - failed) / attempted,
        }
        wanted = bench["end_to_end"]
    log(f"{args.workload}: setup probes {[round(s, 4) for s in setup]} s; "
        f"{attempted} operations checked, {failed} failed")
    for problem in problems[:20]:
        log(f"FAILED {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


if __name__ == "__main__":
    sys.exit(main())
