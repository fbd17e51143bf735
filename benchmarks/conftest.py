"""Shared infrastructure for the experiment benches.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
experiment index). Output goes three ways: printed (visible with ``-s``),
written to ``benchmarks/results/<id>.txt``, and CSV to
``benchmarks/results/<id>.csv`` — so EXPERIMENTS.md can be refreshed from
the files regardless of pytest's capture settings.

Each workload's LLC stream is recorded once, under LRU on the 4MB machine,
and replayed against both LLC geometries. Under the inclusive LLC that is
exact only at 4MB: LLC victims back-invalidate private copies, so the 8MB
LLC would change later private misses and with them the stream. Measured
against the online 8MB hierarchy, LRU replay stays within 0.09% on every
app (200K accesses, seed 42).

Parallel/caching knobs (both optional):

* ``REPRO_SIM_JOBS=N`` — prefetch every workload's stream across N worker
  processes before the benches start (results are bit-identical to serial).
* ``REPRO_SIM_CACHE_DIR=DIR`` — persist recorded streams across bench runs
  in DIR, so only the first run on a machine pays the hierarchy pass.
"""

import os
from pathlib import Path

import pytest

from repro.analysis.csvout import write_csv
from repro.analysis.tables import render_table
from repro.common.config import profile
from repro.sim.experiment import AUTO_CACHE_DIR, CACHE_DIR_ENV, shared_context
from repro.sim.parallel import jobs_from_env

BENCH_ACCESSES = 200_000
BENCH_SEED = 42

GEOMETRY_4MB = profile("scaled-4mb").llc
GEOMETRY_8MB = profile("scaled-8mb").llc

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def context():
    """The session-wide experiment context (streams recorded once)."""
    cache_dir = AUTO_CACHE_DIR if os.environ.get(CACHE_DIR_ENV) else None
    ctx = shared_context("scaled-4mb", BENCH_ACCESSES, BENCH_SEED,
                         cache_dir=cache_dir)
    jobs = jobs_from_env(default=1)
    if jobs > 1:
        ctx.prefetch(jobs=jobs)
    return ctx


def emit(experiment_id, headers, rows, title, float_digits=4):
    """Print and persist one experiment's table; returns the rendered text."""
    text = render_table(headers, rows, float_digits=float_digits, title=title)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")
    write_csv(RESULTS_DIR / f"{experiment_id}.csv", headers, rows)
    return text


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
