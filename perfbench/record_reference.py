"""Record perfbench/reference.json, the outputs that run.py checks against.

    python3 perfbench/record_reference.py mc_arms quote_grid cli_design

Run it from the root of a checkout of the commit whose outputs are the
reference. For each input seed in range(SEED_SPAN) it builds the workload's
inputs, runs one pass, checks it as run.py does (with no reference yet) and
records the pass's reference entry. A seed whose outputs fail a check is
left out of "seeds" and listed under "excluded" with the failed checks;
run.py maps a run's seed to the next recorded seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def main(names: list[str]) -> int:
    from run import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import noisycfmm
    import workloads

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            seeds, excluded = {}, {}
            for seed in range(workloads.SEED_SPAN):
                workload = workloads.WORKLOADS[name](noisycfmm, seed, work, False)
                done = workload.run_pass()
                checked = workload.check(done, done, None)
                if checked.failed:
                    excluded[str(seed)] = checked.problems
                else:
                    seeds[str(seed)] = workload.reference_entry(done)
                print(f"{name} seed {seed}: {checked.problems or 'ok'}", file=sys.stderr, flush=True)
            reference[name] = {"seeds": seeds, "excluded": excluded}
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
