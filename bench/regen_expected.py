"""Regenerate ``bench/expected.json``, the pinned cells of every workload.

    python3 bench/regen_expected.py

Each workload's pass runs once per seed in ``SEEDS`` on the scalar
reference model (``fastpath=False``, ``native=False``), so the reference
never comes from the replay tiers the benchmark times. Seed 7 is held out:
nothing was tuned against it.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, isolate_environment

SEEDS = (42, 7)


def main() -> int:
    isolate_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from measure import ACCESSES, EXPECTED_PATH, WORKLOADS, run_pass, set_up
    from passes import Config

    seeds = {}
    for seed in SEEDS:
        config = Config(ACCESSES, seed, fast=False)
        seeds[str(seed)] = {}
        for name, workload in WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
            try:
                __, __, prep = set_up(workload, config, work / "cache")
                sample = run_pass(workload, config, work / "pass", prep)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            seeds[str(seed)][name] = dict(sorted(sample.cells.items()))
            print(f"seed {seed} {name}: {len(sample.cells)} cells "
                  f"in {sample.duration:.1f} s", flush=True)
    EXPECTED_PATH.write_text(json.dumps(
        {"accesses": ACCESSES, "seeds": seeds}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
