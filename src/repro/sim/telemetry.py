"""Structured run telemetry for the experiment engine.

Every telemetry-enabled run gets its own directory under the *runs root*
(``<persistent cache dir>/runs`` by default, so run records live next to
the stream cache they describe) containing exactly two files:

* ``manifest.json`` — one JSON document describing the run: machine digest
  and geometry, workload set, seeds, access budget, policy list, library
  versions, which fast-path tiers were in effect, wall time, final
  status, and a per-cell failure record for every experiment cell that was
  retried out or timed out. Written atomically (temp file + rename) and
  rewritten as the run progresses, so a crashed run leaves its last
  consistent manifest behind.
* ``events.jsonl`` — an append-only event log, one JSON object per line.
  Stage spans (trace generation, hierarchy recording, replays, oracle
  passes) record wall time and access/hit/miss counters; cache events
  record which tier (memory / disk / fresh recording) served an artifact;
  failure events record retries and worker deaths as they happen. Worker
  processes append to the same file — each line is written with a single
  ``write`` of a short buffer, which POSIX keeps atomic in append mode, so
  concurrent writers interleave lines, never bytes.

The module keeps one process-wide *current* :class:`RunTelemetry`;
instrumentation points (:mod:`repro.sim.experiment`,
:mod:`repro.sim.engine`, :mod:`repro.sim.parallel`) call the no-op-safe
:func:`emit`/:func:`span` helpers so that disabled telemetry costs one
``None`` check per stage — never per access. Telemetry never changes
results: it only observes counters the simulators already maintain, and
``--no-telemetry`` runs are byte-identical on stdout.
"""

import dataclasses
import json
import os
import platform
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.stats import RunningStats

TELEMETRY_FORMAT_VERSION = 1
"""Bumped when the manifest/event schema changes incompatibly."""

EVENT_SCHEMA_VERSION = 1
"""Stamped on every event line as ``schema_version``.

Events written before this field existed carry no marker and count as
version 1. Readers must *tolerate* higher versions — a newer writer's
log yields a one-line warning (see :func:`read_events`'s ``on_future``),
never a traceback — so old tooling can still tail a live campaign
written by a newer release.
"""

RUNS_DIRNAME = "runs"
MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"

RUNS_DIR_ENV = "REPRO_SIM_RUNS_DIR"
"""Environment variable overriding the default runs root."""


def default_runs_root() -> Path:
    """The run-record directory: next to the persistent stream cache."""
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return Path(env).expanduser()
    from repro.sim.experiment import default_cache_dir

    return default_cache_dir() / RUNS_DIRNAME


def resolve_runs_root(
    root: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Path:
    """Map a user-facing runs-root spec to a concrete directory.

    Explicit ``root`` wins; otherwise a resolved ``cache_dir`` hosts a
    ``runs/`` subdirectory; otherwise the machine-wide default applies.
    """
    if root is not None:
        return Path(root).expanduser()
    if cache_dir is not None:
        return Path(cache_dir).expanduser() / RUNS_DIRNAME
    return default_runs_root()


class RunTelemetry:
    """Writes one run's manifest and event log.

    The parent process creates one via :func:`create_run` (``role="main"``);
    worker processes attach to the same directory via :func:`attach_worker`
    and only append events — the manifest belongs to the parent.
    """

    def __init__(self, run_dir: Union[str, Path], role: str = "main"):
        self.run_dir = Path(run_dir)
        self.run_id = self.run_dir.name
        self.role = role
        self.events_path = self.run_dir / EVENTS_NAME
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self._manifest: Dict = {}
        self._started = time.time()
        # Monotonic twin of _started: wall-clock deltas skew under NTP
        # steps, so durations are measured on this clock and reported as
        # ``duration_s`` (``wall_sec`` stays for older readers).
        self._mono_started = time.monotonic()
        self._sinks: List = []

    def attach_sink(self, sink) -> None:
        """Mirror events and manifest rewrites into ``sink`` (best effort).

        A sink implements ``on_event(record)``, ``on_manifest(text,
        manifest)`` and ``close()``; the end-to-end benchmark's span
        tracer (``bench/spans.py``) attaches through this hook. The JSONL
        files stay the durable source of truth: a sink is fed *after* the
        file write, and a sink that raises is detached with a one-line
        warning instead of failing the run.
        """
        self._sinks.append(sink)

    def close_sinks(self) -> None:
        """Flush and detach every attached sink (end of run)."""
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            try:
                sink.close()
            except Exception as error:  # pragma: no cover - defensive
                self._warn_sink(sink, error)

    def _feed_sinks(self, method: str, *payload) -> None:
        for sink in list(self._sinks):
            try:
                getattr(sink, method)(*payload)
            except Exception as error:
                self._sinks.remove(sink)
                self._warn_sink(sink, error)

    @staticmethod
    def _warn_sink(sink, error) -> None:
        import sys

        print(
            f"warning: telemetry sink {type(sink).__name__} failed "
            f"({type(error).__name__}: {error}); detached — the JSONL "
            f"log is unaffected",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------

    def event(self, kind: str, /, **fields) -> None:
        """Append one event line (best effort: a full disk or a deleted
        run directory must never fail the experiment itself)."""
        record = {"t": round(time.time(), 6), "pid": os.getpid(),
                  "role": self.role, "kind": kind,
                  "schema_version": EVENT_SCHEMA_VERSION}
        record.update(fields)
        line = json.dumps(record, sort_keys=False) + "\n"
        try:
            with open(self.events_path, "a", encoding="utf-8") as handle:
                handle.write(line)
        except OSError:
            pass
        self._feed_sinks("on_event", record)

    @contextmanager
    def span(self, stage: str, /, **fields) -> Iterator[Dict]:
        """Time a stage and emit one ``span`` event when it exits.

        Yields a mutable dict; anything the caller adds to it (access
        counts, cache tiers, hit/miss counters) lands in the event. A
        stage that raises is still recorded, with ``error`` set.
        """
        extras: Dict = {}
        start = time.perf_counter()
        try:
            yield extras
        except BaseException as error:
            extras.setdefault("error", type(error).__name__)
            raise
        finally:
            # perf_counter is monotonic, so wall_sec and duration_s agree
            # here; both are written so span readers key on one field name
            # (duration_s) regardless of which writer produced the event.
            wall = time.perf_counter() - start
            self.event("span", stage=stage, wall_sec=round(wall, 6),
                       duration_s=round(wall, 6), **fields, **extras)

    # ------------------------------------------------------------------
    # Manifest (parent only)
    # ------------------------------------------------------------------

    def update_manifest(self, **fields) -> None:
        """Merge ``fields`` into the manifest and rewrite it atomically.

        The temp file is fsynced before the rename so a crash right after
        ``os.replace`` cannot publish an empty or torn manifest, and it is
        unlinked in a ``finally`` so a failed write (disk full) cannot
        leak ``tmp{pid}-manifest.json`` behind — ``runs list`` sweeps any
        orphans an outright *kill* still leaves
        (:func:`sweep_orphan_manifests`).
        """
        if self.role != "main":
            return
        self._manifest.update(fields)
        payload = json.dumps(self._manifest, indent=2, sort_keys=False,
                             default=str)
        tmp = self.manifest_path.with_name(
            f"tmp{os.getpid()}-{MANIFEST_NAME}"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.manifest_path)
        except OSError:
            pass
        finally:
            try:
                tmp.unlink()  # no-op after a successful replace
            except OSError:
                pass
        self._feed_sinks("on_manifest", payload + "\n", dict(self._manifest))

    @property
    def manifest(self) -> Dict:
        """The manifest as last written by this process."""
        return dict(self._manifest)

    def finish(self, status: str = "completed", **fields) -> None:
        """Seal the manifest with the final status and total run time.

        ``duration_s`` is the monotonic-clock duration (immune to NTP
        steps mid-run); ``wall_sec`` keeps the wall-clock delta older
        readers expect.
        """
        duration = round(time.monotonic() - self._mono_started, 6)
        self.update_manifest(
            status=status, wall_sec=round(time.time() - self._started, 6),
            duration_s=duration,
            finished=_isoformat(time.time()), **fields,
        )
        self.event("run_finished", status=status, duration_s=duration)
        self.close_sinks()


# ----------------------------------------------------------------------
# Process-wide current run
# ----------------------------------------------------------------------

_CURRENT: Optional[RunTelemetry] = None


def current() -> Optional[RunTelemetry]:
    """The active run recorder of this process, or None."""
    return _CURRENT


def set_current(telemetry: Optional[RunTelemetry]) -> None:
    """Install (or clear, with None) the process-wide recorder."""
    global _CURRENT
    _CURRENT = telemetry


@contextmanager
def activate(telemetry: Optional[RunTelemetry]) -> Iterator[Optional[RunTelemetry]]:
    """Scope ``telemetry`` as the process-wide recorder."""
    previous = current()
    set_current(telemetry)
    try:
        yield telemetry
    finally:
        set_current(previous)


def emit(kind: str, /, **fields) -> None:
    """Append an event to the active run, if any (no-op otherwise)."""
    telemetry = _CURRENT
    if telemetry is not None:
        telemetry.event(kind, **fields)


@contextmanager
def span(stage: str, /, **fields) -> Iterator[Dict]:
    """Span on the active run; yields a throwaway dict when disabled.

    The disabled path is one global read and one dict allocation per
    *stage* — instrumentation points sit outside per-access loops, so
    telemetry overhead is bounded by stage count, not access count.
    """
    telemetry = _CURRENT
    if telemetry is None:
        yield {}
        return
    with telemetry.span(stage, **fields) as extras:
        yield extras


# ----------------------------------------------------------------------
# Run creation / attachment
# ----------------------------------------------------------------------

def create_run(
    root: Optional[Union[str, Path]] = None,
    command: str = "",
    argv: Optional[List[str]] = None,
) -> RunTelemetry:
    """Allocate a fresh run directory and write the seed manifest.

    Directory allocation is race-safe under concurrent creators: the
    candidate id embeds the pid and the creating ``mkdir`` is exclusive,
    so two processes (or two threads' retries) can never share a run dir.
    The runs root itself is created with ``exist_ok=True`` — parallel
    workers racing to create it is the expected case, not an error.
    """
    root = resolve_runs_root(root)
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    attempt = 0
    while True:
        suffix = "" if attempt == 0 else f"-{attempt}"
        run_dir = root / f"{stamp}-p{os.getpid()}{suffix}"
        try:
            run_dir.mkdir(parents=False, exist_ok=False)
            break
        except FileExistsError:
            attempt += 1
    telemetry = RunTelemetry(run_dir, role="main")
    telemetry.update_manifest(
        format_version=TELEMETRY_FORMAT_VERSION,
        event_schema_version=EVENT_SCHEMA_VERSION,
        run_id=telemetry.run_id,
        command=command,
        argv=list(argv) if argv is not None else None,
        started=_isoformat(telemetry._started),
        host=platform.node(),
        platform=platform.platform(),
        python_version=platform.python_version(),
        status="running",
    )
    telemetry.event("run_started", command=command)
    return telemetry


def attach_worker(run_dir: Union[str, Path]) -> RunTelemetry:
    """A worker-process view of an existing run (events only)."""
    return RunTelemetry(run_dir, role="worker")


def describe_environment(context=None) -> Dict:
    """Library-version and tier fields for the manifest.

    ``context`` (an :class:`~repro.sim.experiment.ExperimentContext`)
    contributes machine digest, workloads, seed, budget, and the resolved
    fast-path gate.
    """
    import numpy

    import repro
    from repro.sim.fastpath import fastpath_enabled
    from repro.sim.nativepath import native_enabled

    fields: Dict = {
        "repro_version": repro.__version__,
        "numpy_version": numpy.__version__,
        "native_backend": native_enabled(),
    }
    if context is not None:
        from repro.sim.experiment import machine_digest

        fields.update(
            machine=context.machine.name,
            machine_digest=machine_digest(context.machine),
            llc=context.geometry.describe(),
            num_cores=context.machine.num_cores,
            workloads=list(context.workload_list),
            seed=context.seed,
            target_accesses=context.target_accesses,
            cache_dir=str(context.cache_dir) if context.cache_dir else None,
            fastpath=fastpath_enabled(context.fastpath),
        )
    return fields


# ----------------------------------------------------------------------
# Inspection (backs ``repro-sim runs list/show``)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RunInfo:
    """One run directory's manifest, as found on disk."""

    run_id: str
    path: Path
    manifest: Dict

    @property
    def status(self) -> str:
        return self.manifest.get("status", "unknown")


def list_runs(
    root: Optional[Union[str, Path]] = None,
    on_error=None,
) -> List[RunInfo]:
    """Every readable run under ``root``, oldest first.

    Unreadable, half-written, or structurally wrong manifests (valid JSON
    that is not an object counts — a crashed atomic rewrite cannot produce
    one, but a stray editor can) yield a ``status="corrupt"`` placeholder
    instead of raising — listing must survive crashed runs. ``on_error``,
    when given, is called as ``on_error(manifest_path, detail)`` once per
    corrupt manifest so CLIs can surface a one-line warning.
    """
    root = resolve_runs_root(root)
    if not root.is_dir():
        return []
    runs = []
    for run_dir in sorted(path for path in root.iterdir() if path.is_dir()):
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.exists():
            continue
        detail = None
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as error:
            manifest, detail = None, f"unreadable manifest ({error})"
        except ValueError:
            detail = "corrupt manifest (not valid JSON)"
            manifest = None
        if not isinstance(manifest, dict):
            if detail is None:
                detail = "corrupt manifest (not a JSON object)"
            manifest = {"status": "corrupt"}
            if on_error is not None:
                on_error(manifest_path, detail)
        else:
            version = manifest.get("format_version")
            if (isinstance(version, int)
                    and version > TELEMETRY_FORMAT_VERSION
                    and on_error is not None):
                # A newer writer's manifest still lists — fields we know
                # keep their meaning; the warning flags the rest.
                on_error(
                    manifest_path,
                    f"manifest format v{version} is newer than this "
                    f"reader (v{TELEMETRY_FORMAT_VERSION}); unknown "
                    f"fields ignored",
                )
        runs.append(RunInfo(run_id=run_dir.name, path=run_dir, manifest=manifest))
    return runs


_MANIFEST_TMP_MARKER = re.compile(r"^tmp\d+-" + re.escape(MANIFEST_NAME) + r"$")
"""Per-process temp name used by :meth:`RunTelemetry.update_manifest`.

A run killed between writing its temp manifest and the atomic rename
leaves ``tmp{pid}-manifest.json`` behind (the in-process ``finally``
cannot fire on SIGKILL); the sweep below mirrors what the stream cache's
maintenance helpers do for ``tmp{pid}-*`` artifacts.
"""

_ORPHAN_GRACE_SEC = 60.0
"""Minimum age before a temp manifest counts as orphaned.

A live run's atomic rewrite holds its temp file for microseconds; anything
younger than the grace period might belong to an in-flight writer and is
left alone.
"""


def orphan_manifest_tmps(
    root: Optional[Union[str, Path]] = None,
    min_age_sec: float = _ORPHAN_GRACE_SEC,
) -> List[Path]:
    """Orphaned ``tmp{pid}-manifest.json`` files under ``root``'s run dirs."""
    root = resolve_runs_root(root)
    if not root.is_dir():
        return []
    cutoff = time.time() - min_age_sec
    orphans: List[Path] = []
    for run_dir in sorted(path for path in root.iterdir() if path.is_dir()):
        for path in sorted(run_dir.glob(f"tmp*-{MANIFEST_NAME}")):
            if not _MANIFEST_TMP_MARKER.match(path.name):
                continue
            try:
                if path.stat().st_mtime <= cutoff:
                    orphans.append(path)
            except OSError:
                continue  # vanished mid-scan: someone else swept it
    return orphans


def sweep_orphan_manifests(
    root: Optional[Union[str, Path]] = None,
    min_age_sec: float = _ORPHAN_GRACE_SEC,
) -> List[Path]:
    """Delete orphaned manifest temp files; returns the paths removed.

    ``runs list`` calls this so a crashed run cannot leak temp manifests
    forever (the same contract ``cache info``/``clear`` honour for the
    stream cache's ``tmp{pid}-*`` artifacts).
    """
    removed: List[Path] = []
    for path in orphan_manifest_tmps(root, min_age_sec=min_age_sec):
        try:
            path.unlink()
            removed.append(path)
        except OSError:
            pass
    return removed


def load_run(
    run_id: str, root: Optional[Union[str, Path]] = None
) -> RunInfo:
    """The manifest of one run; unique prefixes of the id are accepted."""
    runs = list_runs(root)
    matches = [run for run in runs if run.run_id == run_id]
    if not matches:
        matches = [run for run in runs if run.run_id.startswith(run_id)]
    if not matches:
        raise ConfigError(
            f"no run {run_id!r} under {resolve_runs_root(root)}"
        )
    if len(matches) > 1:
        raise ConfigError(
            f"run id {run_id!r} is ambiguous: "
            f"{[run.run_id for run in matches]}"
        )
    return matches[0]


def parse_event_line(raw: bytes) -> Optional[Dict]:
    """One ``events.jsonl`` line as an event dict, or ``None``.

    The one parser behind every reader of the log (:func:`read_events`,
    :func:`quick_event_summary`, :mod:`repro.sim.tail`), so they agree on
    what a damaged log holds. Invalid UTF-8 is replaced, not fatal: a
    worker killed mid-write (or a disk hiccup) can leave arbitrary bytes,
    and a line whose damage sits inside a string still parses. Blank,
    malformed and non-object lines all yield ``None``.
    """
    try:
        event = json.loads(raw.strip().decode("utf-8", errors="replace"))
    except ValueError:
        return None
    return event if isinstance(event, dict) else None


def read_events(
    run_dir: Union[str, Path], on_error=None, on_future=None
) -> List[Dict]:
    """Parse a run's event log, skipping torn or malformed lines.

    A line a killed worker never finished is data loss already — dropping
    it beats refusing to show the rest of the run. Non-object JSON lines
    are dropped the same way (every consumer treats events as dicts).
    ``on_error``, when given, is called once as ``on_error(path, count)``
    if any lines were skipped — or if the log itself is unreadable
    (``count=0`` then) — so CLIs can print a one-line warning.

    Events stamped with a ``schema_version`` newer than this reader's
    :data:`EVENT_SCHEMA_VERSION` are still returned (known fields keep
    their meaning across versions); ``on_future``, when given, is called
    once as ``on_future(path, max_version)`` so CLIs can warn without a
    traceback.
    """
    path = Path(run_dir) / EVENTS_NAME
    if not path.exists():
        return []
    events = []
    malformed = 0
    future_version = 0
    try:
        # Binary mode: lines split on "\n" only, as the writer emits them
        # (json.dumps escapes every control character, so a raw "\r" is
        # damage inside one line, not a line break).
        with open(path, "rb") as handle:
            for raw in handle:
                if not raw.strip():
                    continue
                event = parse_event_line(raw)
                if event is None:
                    malformed += 1
                    continue
                version = event.get("schema_version", EVENT_SCHEMA_VERSION)
                if (isinstance(version, int)
                        and version > EVENT_SCHEMA_VERSION):
                    future_version = max(future_version, version)
                events.append(event)
    except OSError:
        if on_error is not None:
            on_error(path, 0)
        return events
    if malformed and on_error is not None:
        on_error(path, malformed)
    if future_version and on_future is not None:
        on_future(path, future_version)
    return events


def summarize_spans(events: List[Dict]) -> Dict[str, RunningStats]:
    """Aggregate span wall times per stage (for ``runs show``).

    Tolerant of malformed span events (non-numeric or missing wall times
    from torn writes): a bad event is skipped, never fatal.
    """
    stages: Dict[str, RunningStats] = {}
    for event in events:
        if not isinstance(event, dict) or event.get("kind") != "span":
            continue
        try:
            # duration_s is the monotonic-clock field; wall_sec is its
            # pre-versioning name (same value for span events).
            wall = float(event.get("duration_s",
                                   event.get("wall_sec", 0.0)))
        except (TypeError, ValueError):
            continue
        stage = event.get("stage", "?")
        if not isinstance(stage, str):
            stage = repr(stage)
        stages.setdefault(stage, RunningStats()).add(wall)
    return stages


REPLAY_SPAN_STAGES = ("replay", "replay_grid", "inspect_replay")
"""Span stages that each record one replay (or one LRU grid walk)."""


def summarize_replays(events: List[Dict]) -> Dict[Tuple[str, ...], int]:
    """Replay spans counted by ``(tier, backend, reason)`` (``runs show``).

    A field a span predates counts as ``""``, so old logs still summarize.
    """
    counts: Dict[Tuple[str, ...], int] = {}
    for event in events:
        if (isinstance(event, dict) and event.get("kind") == "span"
                and event.get("stage") in REPLAY_SPAN_STAGES):
            key = tuple(str(event.get(name, ""))
                        for name in ("tier", "backend", "reason"))
            counts[key] = counts.get(key, 0) + 1
    return counts


EVENT_SUMMARY_EXACT_BYTES = 64 * 1024
"""Logs up to this size are line-counted exactly by the quick summary."""

EVENT_SUMMARY_TAIL_BYTES = 4 * 1024
"""Bytes read from the end of a large log for the last-event probe."""


def quick_event_summary(
    run_dir: Union[str, Path],
    exact_bytes: int = EVENT_SUMMARY_EXACT_BYTES,
    tail_bytes: int = EVENT_SUMMARY_TAIL_BYTES,
) -> Dict:
    """Bounded-cost event-log summary for ``runs list``.

    Reads at most ``exact_bytes`` (small logs: exact line count) or one
    ``tail_bytes`` slice (large logs: count extrapolated from the tail's
    mean line length, marked ``approx``), so listing a 1000-run root costs
    megabytes, not the gigabytes a full re-read of every ``events.jsonl``
    would. The last event is the last line :func:`parse_event_line`
    accepts.

    Returns ``{"events": int, "approx": bool, "last_kind": str|None,
    "last_t": float|None}``; a missing or unreadable log yields zero
    events.
    """
    path = Path(run_dir) / EVENTS_NAME
    summary: Dict = {"events": 0, "approx": False,
                     "last_kind": None, "last_t": None}
    try:
        size = path.stat().st_size
    except OSError:
        return summary
    if size == 0:
        return summary
    try:
        with open(path, "rb") as handle:
            if size <= exact_bytes:
                data = handle.read(exact_bytes + 1)
                tail = data
                count = data.count(b"\n")
                if data and not data.endswith(b"\n"):
                    count += 1  # torn final line still represents an event
            else:
                handle.seek(size - tail_bytes)
                tail = handle.read(tail_bytes)
                lines = tail.count(b"\n")
                if lines:
                    mean_line = len(tail) / lines
                    count = max(int(size / mean_line), lines)
                else:
                    count = 1
                summary["approx"] = True
    except OSError:
        return summary
    summary["events"] = count
    # Last complete line of the tail slice -> last event kind/time.
    complete = tail.rsplit(b"\n", 2)
    for chunk in reversed(complete):
        event = parse_event_line(chunk)
        if event is not None:
            summary["last_kind"] = event.get("kind")
            try:
                summary["last_t"] = float(event["t"])
            except (KeyError, TypeError, ValueError):
                pass
            break
    return summary


def _isoformat(timestamp: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(timestamp))
