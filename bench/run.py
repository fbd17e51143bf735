"""End-to-end benchmark of the paper pipeline, from the root of a checkout:

    python3 bench/run.py --workload cold_f6 --seed 42 --seconds 15 --trace 0

Runs one workload (see ``passes.py``) for ``--seconds`` in this process and
one thread, checks every simulated value it produced, and prints each metric
as ``name value unit``. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--spans-out FILE`` also writes the traced passes' spans to FILE.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent


def isolate_environment() -> None:
    """One compute thread, and no ``REPRO_SIM_*`` toggle from the caller,
    so every run measures the program's default paths."""
    for name in [n for n in os.environ if n.startswith("REPRO_SIM_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src'} does not hold the program",
              file=sys.stderr)
        return 2
    isolate_environment()
    # A terminated run still removes its work directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import measure

    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure.run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        reference=measure.load_reference(args.workload, args.seed,
                                        measure.ACCESSES),
        import_s=time.perf_counter() - STARTED,
    )
    for problem in result.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.spans_out is not None:
        args.spans_out.write_text(json.dumps(result.spans))
    print(report(result,
                 measure.PER_LAYER if args.trace else measure.END_TO_END))
    return 0


def report(result, declared) -> str:
    """Every metric as ``name value unit``, then the JSON line with the
    ``declared`` metrics."""
    lines = [f"workload {result.workload} seed {result.seed} accesses "
             f"{result.accesses} passes {result.passes}"]
    if result.verified:
        lines.append("reference verified")
    else:
        lines.append(f"reference unverified result_digest {result.digest}")
    lines += [f"{name} {value} {unit}"
              for name, (value, unit) in result.metrics.items()]
    lines.append(f"error_rate {result.failed / result.attempted} fraction")
    lines.append(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                    if name in declared},
    }))
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
