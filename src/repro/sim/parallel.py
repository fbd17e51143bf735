"""Parallel experiment engine.

The experiment matrix — (workload, policy, capacity) cells — is
embarrassingly parallel: every cell replays a recorded LLC stream that is
fully determined by (machine, seed, access budget), so cells can run in any
process, in any order, and must produce bit-identical results. This module
fans the matrix out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* each worker process builds one :class:`ExperimentContext` mirroring the
  parent's configuration (same machine, seed, budget, disk cache);
* a worker records — or loads from the persistent disk cache — each
  workload's stream once per process, then replays every policy a cell
  asks for;
* cells return compact result records (plain dataclasses), and the parent
  reassembles them in submission order, so output never depends on
  scheduling.

``jobs <= 1`` executes the identical cell functions inline in the parent —
the serial and parallel paths share one implementation, which is what makes
the bit-identical guarantee structural rather than aspirational.

Fault tolerance: by default (``fail_fast=True``) any cell error aborts the
run, exactly as before. With ``fail_fast=False`` each failing cell is
retried up to ``retries`` times with exponential backoff — including cells
lost to a *dying worker process*, which breaks the pool and forces a pool
rebuild — and a cell that exhausts its budget (or exceeds ``timeout``
seconds after dispatch) yields a :class:`~repro.sim.results.CellFailure`
in its result slot instead of aborting the sweep. Failures are recorded in
the active telemetry run's manifest and event log.
"""

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError, SimulationError
from repro.sim import telemetry
from repro.sim.results import CellFailure, PolicyComparison

DEFAULT_JOBS_ENV = "REPRO_SIM_JOBS"
"""Environment variable supplying a default worker count."""

DEFAULT_RETRIES = 1
"""Extra attempts granted to a failing cell in graceful mode."""

DEFAULT_BACKOFF = 0.25
"""Base delay (seconds) before retrying a failed cell; doubles per retry."""

MAX_BACKOFF = 30.0
"""Ceiling (seconds) on any single retry delay.

The exponential ``backoff * 2**(attempts-1)`` schedule is unbounded; with
a high ``--retries`` budget the tail delays would otherwise stall a sweep
for minutes per cell. Both the serial sleep and the pool's ``not_before``
deadlines clamp to this ceiling.
"""


def retry_delay(backoff: float, attempts: int) -> float:
    """The capped exponential delay before retry number ``attempts``.

    ``attempts`` is the number of attempts already made (>= 1). Shared by
    the serial loop (which sleeps it) and the pool path (which turns it
    into a ``not_before`` deadline) so both schedules stay identical.
    """
    return min(backoff * (2 ** (attempts - 1)), MAX_BACKOFF)

FAULT_ENV = "REPRO_SIM_FAULT_INJECT"
"""Fault-injection hook (tests only): ``kind:workload:mode``.

``mode`` is one of ``raise`` (the cell raises a :class:`SimulationError`
every time), ``exit`` (the executing process dies via ``os._exit`` —
breaking the pool, exactly like a segfault or an OOM kill), or ``flaky``
(the cell raises once, then succeeds on retry; requires
:data:`FAULT_STATE_ENV` to point at a scratch directory for the
fired-once marker), or ``hang`` (the cell sleeps 5 s before proceeding —
long enough to trip a short ``timeout`` without racing worker start-up).
``workload`` may be ``*``.
"""

FAULT_STATE_ENV = "REPRO_SIM_FAULT_STATE"
"""Scratch directory holding ``flaky`` fault markers (shared by workers)."""


def _maybe_inject_fault(cell: "ExperimentCell") -> None:
    """Crash or raise on behalf of the test-only fault-injection hook."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    try:
        kind, workload, mode = spec.split(":")
    except ValueError:
        raise ConfigError(
            f"{FAULT_ENV}={spec!r}: expected 'kind:workload:mode'"
        ) from None
    if cell.kind != kind or workload not in ("*", cell.workload):
        return
    if mode == "exit":
        os._exit(17)
    if mode == "hang":
        time.sleep(5.0)
        return
    if mode == "flaky":
        state_dir = os.environ.get(FAULT_STATE_ENV)
        if not state_dir:
            raise ConfigError(f"{FAULT_ENV} mode 'flaky' needs {FAULT_STATE_ENV}")
        marker = os.path.join(
            state_dir, f"fired-{cell.kind}-{cell.workload}"
        )
        try:
            # Atomic create-once: the first attempt (in whichever process)
            # claims the marker and fails; every later attempt succeeds.
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        raise SimulationError(
            f"injected flaky fault in cell ({cell.kind}, {cell.workload})"
        )
    if mode == "raise":
        raise SimulationError(
            f"injected fault in cell ({cell.kind}, {cell.workload})"
        )
    raise ConfigError(f"{FAULT_ENV}={spec!r}: unknown mode {mode!r}")


def normalize_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: None/0 means "use every core"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


def jobs_from_env(default: int = 1) -> int:
    """Worker count from :data:`DEFAULT_JOBS_ENV` (benches route through
    this so ``REPRO_SIM_JOBS=4 pytest benchmarks`` parallelises recording)."""
    raw = os.environ.get(DEFAULT_JOBS_ENV)
    if not raw:
        return default
    try:
        return normalize_jobs(int(raw))
    except ValueError:
        raise ConfigError(f"{DEFAULT_JOBS_ENV}={raw!r} is not an integer") from None


def scaled_geometry(geometry: CacheGeometry, factor: float) -> CacheGeometry:
    """The LLC geometry with capacity scaled by ``factor`` (same ways/block).

    ``CacheGeometry`` requires a power-of-two set count and a capacity that
    is a multiple of ``ways * block_bytes``, so arbitrary factors cannot be
    honoured exactly: the scaled set count is snapped to the nearest power
    of two (ties round up, floor one set). Power-of-two factors such as
    0.5/1/2/4 are exact; fractional factors like 0.3 or 0.75 land on the
    closest valid geometry instead of silently truncating the capacity into
    an invalid one.

    Raises:
        ConfigError: if ``factor`` is not a positive finite number.
    """
    if not isinstance(factor, (int, float)) or isinstance(factor, bool):
        raise ConfigError(f"capacity factor must be a number, got {factor!r}")
    if not math.isfinite(factor) or factor <= 0:
        raise ConfigError(f"capacity factor must be positive and finite, got {factor!r}")
    target = geometry.num_sets * factor
    if target <= 1:
        num_sets = 1
    else:
        lower = 1 << int(math.floor(math.log2(target)))
        upper = lower * 2
        # Nearest power of two by linear distance; exact targets stay put,
        # midpoints round up (the larger LLC is the conservative choice).
        num_sets = upper if (upper - target) <= (target - lower) else lower
    size_bytes = num_sets * geometry.ways * geometry.block_bytes
    return CacheGeometry(size_bytes, geometry.ways, geometry.block_bytes)


@dataclass(frozen=True)
class ExperimentCell:
    """One schedulable unit of the experiment matrix.

    ``kind`` selects the analysis; ``params`` is the kind-specific
    parameter tuple (hashable and picklable). Cells are pure functions of
    (context configuration, workload, params).
    """

    kind: str
    workload: str
    params: tuple = ()


def execute_cell(context, cell: ExperimentCell):
    """Run one cell against ``context``. Shared by serial and worker paths."""
    _maybe_inject_fault(cell)
    if cell.kind in ("fuzz", "fuzz_full"):
        # Fuzz cells carry their whole scenario in params and build their
        # own machines; they must dispatch before the artifact fetch, whose
        # registry lookup would reject the scenario id as a workload name.
        from repro.sim import fuzz

        if cell.kind == "fuzz":
            return fuzz.execute_fuzz_cell(context, cell)
        return fuzz.execute_fuzz_full_cell(context, cell)
    artifacts = context.artifacts(cell.workload)
    if cell.kind == "record":
        return cell.workload, artifacts
    if cell.kind == "compare":
        policies, include_opt = cell.params
        return context.compare_policies(
            cell.workload, list(policies), include_opt=include_opt
        )
    if cell.kind == "oracle":
        from repro.oracle.runner import shared_fill_fraction

        base, mode, release, turnovers = cell.params
        study = context.oracle_study(
            cell.workload, base=base, mode=mode, release=release,
            horizon_turnovers=turnovers,
        )
        return study, shared_fill_fraction(
            artifacts.stream, context.geometry, base, context.seed,
            context.fastpath,
        )
    if cell.kind == "sweep":
        from repro.oracle.runner import run_oracle_study

        factor, base, turnovers = cell.params
        return run_oracle_study(
            artifacts.stream, scaled_geometry(context.geometry, factor),
            base=base, horizon_turnovers=turnovers, seed=context.seed,
            fastpath=context.fastpath,
        )
    if cell.kind == "sweep_grid":
        from repro.oracle.runner import run_oracle_study_grid

        factors, base, turnovers = cell.params
        return run_oracle_study_grid(
            artifacts.stream,
            [scaled_geometry(context.geometry, factor) for factor in factors],
            base=base, horizon_turnovers=turnovers, seed=context.seed,
            fastpath=context.fastpath,
        )
    if cell.kind == "inspect":
        from repro.sim.probes import inspect_workload

        policy, probe_names = cell.params
        return inspect_workload(
            context, cell.workload, policy=policy,
            probes=list(probe_names) if probe_names else None,
        )
    if cell.kind == "predict":
        from repro.predictors.harness import PredictorHarness
        from repro.predictors.registry import make_predictor
        from repro.sim.multipass import run_policy_on_stream

        (predictor_name,) = cell.params
        harness = PredictorHarness(make_predictor(predictor_name))
        run_policy_on_stream(
            artifacts.stream, context.geometry, "lru",
            seed=context.seed, observers=(harness,),
            fastpath=context.fastpath,
        )
        return harness.matrix
    raise ConfigError(f"unknown experiment cell kind {cell.kind!r}")


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------

_WORKER_CONTEXT = None


def _init_worker(
    machine, target_accesses, seed, workloads, cache_dir, fastpath=None,
    telemetry_dir=None,
) -> None:
    """Build this worker's context once; cells then share its stream cache.

    ``telemetry_dir`` attaches the worker to the parent's run so its stage
    spans land in the shared event log (appends are line-atomic).
    """
    from repro.sim.experiment import ExperimentContext

    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ExperimentContext(
        machine, target_accesses=target_accesses, seed=seed,
        workloads=workloads, cache_dir=cache_dir, fastpath=fastpath,
    )
    if telemetry_dir is not None:
        telemetry.set_current(telemetry.attach_worker(telemetry_dir))


def _run_cell(cell: ExperimentCell):
    return execute_cell(_WORKER_CONTEXT, cell)


def _cell_failure(cell: ExperimentCell, error: BaseException,
                  attempts: int) -> CellFailure:
    failure = CellFailure(
        kind=cell.kind, workload=cell.workload, params=cell.params,
        error_type=type(error).__name__, error=str(error) or repr(error),
        attempts=attempts,
    )
    telemetry.emit("cell_failed", cell_kind=failure.kind,
                   workload=failure.workload, error_type=failure.error_type,
                   error=failure.error, attempts=failure.attempts)
    return failure


def _emit_cell_done(cell: ExperimentCell, duration: float) -> None:
    """Per-cell completion event: the progress heartbeat `runs tail` renders."""
    telemetry.emit("cell_done", cell_kind=cell.kind, workload=cell.workload,
                   duration_s=round(duration, 6))


def _record_cell_summary(results: List) -> None:
    """Fold the cells' outcome into the active run manifest, if any."""
    recorder = telemetry.current()
    if recorder is None or recorder.role != "main":
        return
    failures = [r for r in results if isinstance(r, CellFailure)]
    recorder.update_manifest(
        cells={
            "total": len(results),
            "completed": len(results) - len(failures),
            "failed": len(failures),
        },
        failures=[failure.as_dict() for failure in failures],
    )


def _run_cells_serial(
    context, cells: List[ExperimentCell], fail_fast: bool,
    retries: int, backoff: float,
) -> List:
    results = []
    for cell in cells:
        if fail_fast:
            started = time.perf_counter()
            results.append(execute_cell(context, cell))
            _emit_cell_done(cell, time.perf_counter() - started)
            continue
        attempts = 0
        while True:
            attempts += 1
            started = time.perf_counter()
            try:
                results.append(execute_cell(context, cell))
                _emit_cell_done(cell, time.perf_counter() - started)
                break
            except Exception as error:
                if attempts > retries:
                    results.append(_cell_failure(cell, error, attempts))
                    break
                telemetry.emit("cell_retry", cell_kind=cell.kind,
                               workload=cell.workload, attempt=attempts,
                               error_type=type(error).__name__)
                time.sleep(retry_delay(backoff, attempts))
    return results


class CellTimeoutError(SimulationError):
    """A cell missed its completion deadline (parent-side bookkeeping)."""


def _run_cells_pool(
    context, cells: List[ExperimentCell], jobs: int, fail_fast: bool,
    retries: int, timeout: Optional[float], backoff: float,
) -> List:
    """Fan cells out over a process pool, surviving worker deaths.

    Submission is windowed to ``jobs`` outstanding futures so a dispatched
    cell starts (nearly) immediately — which is what makes ``timeout``,
    measured from dispatch, a deadline on the cell itself rather than on
    its queueing luck. A dead worker breaks the whole
    :class:`ProcessPoolExecutor`; the loop absorbs that by rebuilding the
    pool and re-dispatching every unfinished cell, charging one attempt to
    each (the victim cannot be told apart from its queued pool-mates).
    Every cell implicated in a break is *quarantined*: its retries run
    solo, so a second crash identifies the true victim unambiguously and
    an innocent pool-mate cannot be starved by a deterministic crasher —
    which matters now that grid replay makes cells few and large (a
    two-workload sweep is two cells, both always in flight together).
    """
    recorder = telemetry.current()
    initargs = (
        context.machine, context.target_accesses, context.seed,
        list(context.workload_list), context.cache_dir, context.fastpath,
        str(recorder.run_dir) if recorder is not None else None,
    )
    max_workers = min(jobs, len(cells))

    def make_pool():
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=_init_worker,
            initargs=initargs,
        )

    if fail_fast:
        retries = 0
    results: List = [None] * len(cells)
    queue = list(range(len(cells)))  # indices awaiting (re-)dispatch
    queue.reverse()  # pop() dispatches in submission order
    attempts = [0] * len(cells)
    not_before = [0.0] * len(cells)  # backoff deadlines
    pending: Dict = {}  # future -> (index, dispatch monotonic time)
    quarantine: set = set()  # crash-implicated indices; re-dispatched solo
    executor = make_pool()

    def fail_or_retry(index: int, error: BaseException) -> None:
        cell = cells[index]
        if fail_fast:
            raise error
        if attempts[index] > retries:
            results[index] = _cell_failure(cell, error, attempts[index])
            return
        telemetry.emit("cell_retry", cell_kind=cell.kind,
                       workload=cell.workload, attempt=attempts[index],
                       error_type=type(error).__name__)
        not_before[index] = time.monotonic() + retry_delay(
            backoff, attempts[index]
        )
        queue.append(index)

    try:
        while queue or pending:
            now = time.monotonic()
            while queue and len(pending) < max_workers:
                # Dispatch backoff-ready cells first; if everything queued
                # is still backing off and nothing is running, just wait
                # out the nearest deadline.
                if pending and quarantine.intersection(
                    idx for idx, __ in pending.values()
                ):
                    break  # a quarantined cell runs solo; nothing joins it
                ready = [i for i in reversed(queue) if not_before[i] <= now]
                if pending:
                    # Quarantined cells wait for an idle pool (solo run).
                    ready = [i for i in ready if i not in quarantine]
                if not ready:
                    if pending:
                        break
                    wait_for = min(not_before[i] for i in queue) - now
                    time.sleep(max(wait_for, 0.0))
                    now = time.monotonic()
                    continue
                index = ready[0]
                queue.remove(index)
                attempts[index] += 1
                pending[executor.submit(_run_cell, cells[index])] = (index, now)
            if not pending:
                continue
            poll = 0.1 if timeout is not None else None
            done, __ = wait(set(pending), timeout=poll,
                            return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                index, dispatched = pending.pop(future)
                error = future.exception()
                if error is None:
                    results[index] = future.result()
                    _emit_cell_done(cells[index],
                                    time.monotonic() - dispatched)
                elif isinstance(error, BrokenProcessPool):
                    # The pool is gone; every sibling future is dead too.
                    pending[future] = (index, 0.0)
                    broken = True
                    break
                else:
                    fail_or_retry(index, error)
            if broken:
                telemetry.emit("pool_broken", pending=len(pending))
                if fail_fast:
                    raise SimulationError(
                        "a worker process died (crash or kill); rerun "
                        "without --fail-fast to complete with partial "
                        "results"
                    )
                executor.shutdown(wait=False, cancel_futures=True)
                for future, (index, __) in pending.items():
                    quarantine.add(index)
                    fail_or_retry(
                        index,
                        SimulationError("worker process died mid-cell"),
                    )
                pending.clear()
                executor = make_pool()
                continue
            if timeout is not None:
                now = time.monotonic()
                for future in [f for f, (__, t0) in pending.items()
                               if now - t0 > timeout]:
                    index, t0 = pending.pop(future)
                    future.cancel()  # a running cell keeps its worker busy
                    fail_or_retry(index, CellTimeoutError(
                        f"cell ({cells[index].kind}, {cells[index].workload}) "
                        f"exceeded {timeout}s deadline"
                    ))
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return results


def run_cells(
    context,
    cells: Sequence[ExperimentCell],
    jobs: Optional[int] = 1,
    fail_fast: bool = True,
    retries: int = DEFAULT_RETRIES,
    timeout: Optional[float] = None,
    backoff: float = DEFAULT_BACKOFF,
) -> List:
    """Execute ``cells`` and return their results in submission order.

    ``jobs <= 1`` runs inline on ``context`` (populating its caches);
    otherwise a process pool fans out and the parent's in-memory cache is
    left untouched. Either way the returned records are bit-identical.

    Args:
        fail_fast: True (default) aborts on the first cell error, exactly
            as the engine always behaved. False degrades gracefully: each
            failing cell is retried, then replaced by a
            :class:`~repro.sim.results.CellFailure` in its result slot
            while every other cell still completes.
        retries: extra attempts per failing cell (graceful mode only).
        timeout: per-cell completion deadline in seconds, measured from
            dispatch to a worker (graceful parallel mode only; ``None``
            disables). A timed-out cell is retried like any failure, but
            its still-running attempt keeps occupying one worker slot.
        backoff: base retry delay; doubles with each retry of a cell.
    """
    jobs = normalize_jobs(jobs)
    cells = list(cells)
    if timeout is not None and timeout <= 0:
        raise ConfigError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    telemetry.emit("cells_start", total=len(cells), jobs=jobs,
                   fail_fast=fail_fast, retries=retries, timeout=timeout)
    if jobs <= 1 or len(cells) <= 1:
        results = _run_cells_serial(context, cells, fail_fast, retries, backoff)
    else:
        results = _run_cells_pool(
            context, cells, jobs, fail_fast, retries, timeout, backoff
        )
    failed = sum(isinstance(r, CellFailure) for r in results)
    telemetry.emit("cells_done", total=len(results), failed=failed)
    _record_cell_summary(results)
    return results


# ----------------------------------------------------------------------
# Matrix helpers (what the CLI and benches actually call)
# ----------------------------------------------------------------------

def _sorted_by_workload(cells: List[ExperimentCell]) -> List[ExperimentCell]:
    """Group same-workload cells adjacently (stream-recording locality)
    without reordering the caller-visible result mapping."""
    return sorted(cells, key=lambda cell: cell.workload)


def prefetch_artifacts(
    context, names: Iterable[str], jobs: Optional[int] = 1, **run_kwargs
) -> List[Tuple[str, object]]:
    """Record/load artifacts for many workloads in parallel."""
    cells = [ExperimentCell("record", name) for name in names]
    return run_cells(context, cells, jobs=jobs, **run_kwargs)


def compare_many(
    context,
    workloads: Iterable[str],
    policies: Sequence[str],
    include_opt: bool = False,
    jobs: Optional[int] = 1,
    **run_kwargs,
) -> Dict[str, PolicyComparison]:
    """Policy comparisons for many workloads, keyed by workload.

    ``run_kwargs`` (``fail_fast``/``retries``/``timeout``/``backoff``)
    forward to :func:`run_cells`; in graceful mode a failed workload's
    value is its :class:`~repro.sim.results.CellFailure` — use
    :func:`repro.sim.results.split_failures` to partition. Same for the
    other ``*_many`` helpers.
    """
    workloads = list(workloads)
    cells = [
        ExperimentCell("compare", name, (tuple(policies), include_opt))
        for name in workloads
    ]
    results = run_cells(context, cells, jobs=jobs, **run_kwargs)
    return dict(zip(workloads, results))


def oracle_many(
    context,
    workloads: Iterable[str],
    base: str = "lru",
    mode: str = "both",
    release: str = "budget",
    turnovers: float = 1.75,
    jobs: Optional[int] = 1,
    **run_kwargs,
) -> Dict[str, object]:
    """Oracle studies for many workloads, keyed by workload.

    Each value is a ``(study, shared fill fraction)`` pair: the fraction
    (:func:`repro.oracle.runner.shared_fill_fraction`) is computed in the
    same cell, over the same stream.
    """
    workloads = list(workloads)
    cells = [
        ExperimentCell("oracle", name, (base, mode, release, turnovers))
        for name in workloads
    ]
    results = run_cells(context, cells, jobs=jobs, **run_kwargs)
    return dict(zip(workloads, results))


def sweep_many(
    context,
    workloads: Iterable[str],
    factors: Sequence[float],
    base: str = "lru",
    turnovers: float = 1.75,
    jobs: Optional[int] = 1,
    **run_kwargs,
) -> Dict[Tuple[float, str], object]:
    """Capacity-sweep oracle studies keyed by (factor, workload).

    Each workload is ONE ``sweep_grid`` cell evaluating the whole factor
    axis in a single pass over its stream
    (:func:`repro.oracle.runner.run_oracle_study_grid` shares the
    geometry-invariant passes across capacity points), so parallelism is
    per-stream rather than per capacity cell. The returned mapping is
    unchanged: bit-identical studies keyed by ``(factor, workload)`` in the
    historical order; a failed workload's :class:`CellFailure` occupies
    every one of its factor slots.
    """
    workloads = list(workloads)
    factors = tuple(factors)
    keys = [(factor, name) for factor in factors for name in workloads]
    cells = _sorted_by_workload([
        ExperimentCell("sweep_grid", name, (factors, base, turnovers))
        for name in workloads
    ])
    results = run_cells(context, cells, jobs=jobs, **run_kwargs)
    by_workload = {}
    for cell, result in zip(cells, results):
        if isinstance(result, CellFailure):
            by_workload[cell.workload] = {f: result for f in factors}
        else:
            by_workload[cell.workload] = dict(zip(factors, result))
    return {(factor, name): by_workload[name][factor] for factor, name in keys}


def inspect_many(
    context,
    workloads: Iterable[str],
    policy: str = "lru",
    probes: Optional[Sequence[str]] = None,
    jobs: Optional[int] = 1,
    **run_kwargs,
) -> Dict[str, object]:
    """Probe reports for many workloads, keyed by workload.

    Probe summaries are plain data (:class:`repro.sim.probes.ProbeReport`
    is picklable), so workers serialize their payloads back to the parent
    exactly like every other cell record; ``probes=None`` lets each cell
    pick the policy's default probe set.
    """
    workloads = list(workloads)
    cells = [
        ExperimentCell(
            "inspect", name, (policy, tuple(probes) if probes else ())
        )
        for name in workloads
    ]
    results = run_cells(context, cells, jobs=jobs, **run_kwargs)
    return dict(zip(workloads, results))


def predict_many(
    context,
    workloads: Iterable[str],
    predictors: Sequence[str],
    jobs: Optional[int] = 1,
    **run_kwargs,
) -> Dict[Tuple[str, str], object]:
    """Predictor confusion matrices keyed by (workload, predictor)."""
    workloads = list(workloads)
    keys = [(name, predictor) for name in workloads for predictor in predictors]
    cells = [
        ExperimentCell("predict", name, (predictor,))
        for name, predictor in keys
    ]
    results = run_cells(context, cells, jobs=jobs, **run_kwargs)
    return dict(zip(keys, results))
