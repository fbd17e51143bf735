"""Live campaign tailing: follow a run's event stream as it happens.

``repro-sim runs tail <run-id>`` follows the run's ``events.jsonl`` the
way ``tail -f`` would — but parsed: stage spans render with their
monotonic durations, cell completions render as ``cells done/total``
progress against the ``cells_start`` denominator, and cell failures and
retries surface loudly the moment their event lands. ``fuzz run`` and
the parallel engine print nothing until a campaign ends, so this is the
only way to watch one live. Multi-hour fuzz fleets are the sizing
target: the follower holds only a file offset and a torn-line remainder
(constant memory however long the log grows), and each poll reads
exactly the appended bytes. Lines go through
:func:`telemetry.parse_event_line`, the parser ``runs show`` and
``runs list`` use, so all three agree on a damaged log.

The follower exits when it sees ``run_finished`` (exit status mirrors
the run's: 0 for ``completed*``, 1 otherwise), when ``follow`` is off and
the log is drained, or when ``timeout`` seconds pass — a SIGKILLed run
never writes ``run_finished``, so an unbounded follow would hang forever.
Before it stops it parses the remainder too: a final line that lost its
newline is still the run's last event.
"""

import sys
import time
from pathlib import Path
from typing import Dict, Optional, TextIO, Union

from repro.sim.telemetry import EVENTS_NAME, parse_event_line

POLL_SECONDS = 0.5


class _TailState:
    """Progress counters accumulated across the event stream."""

    def __init__(self) -> None:
        self.total_cells = 0
        self.done_cells = 0
        self.failed_cells = 0
        self.finished_status: Optional[str] = None


def _render(event: Dict, state: _TailState) -> Optional[str]:
    kind = event.get("kind")
    if kind == "run_started":
        return f"run started: {event.get('command', '?')}"
    if kind == "cells_start":
        state.total_cells = _as_int(event.get("total"))
        state.done_cells = 0
        state.failed_cells = 0
        return (f"dispatching {state.total_cells} cell(s) "
                f"(jobs={event.get('jobs', '?')})")
    if kind == "cell_done":
        state.done_cells += 1
        wall = event.get("duration_s", event.get("wall_sec"))
        wall_text = f" in {wall:.2f}s" if isinstance(wall, (int, float)) \
            else ""
        return (f"cell {state.done_cells}/{state.total_cells or '?'}"
                f" ok: ({event.get('cell_kind', '?')},"
                f" {event.get('workload', '?')}){wall_text}")
    if kind == "cell_retry":
        return (f"RETRY ({event.get('cell_kind', '?')},"
                f" {event.get('workload', '?')}) attempt"
                f" {event.get('attempt', '?')}:"
                f" {event.get('error_type', '?')}")
    if kind == "cell_failed":
        state.failed_cells += 1
        return (f"FAILED ({event.get('cell_kind', '?')},"
                f" {event.get('workload', '?')}) after"
                f" {event.get('attempts', '?')} attempt(s):"
                f" {event.get('error_type', '?')}: {event.get('error', '')}")
    if kind == "cells_done":
        return (f"cells complete: {event.get('total', '?')} total,"
                f" {event.get('failed', 0)} failed")
    if kind == "pool_broken":
        return (f"WORKER POOL BROKE ({event.get('pending', '?')} cell(s)"
                f" re-dispatched)")
    if kind == "span":
        duration = event.get("duration_s", event.get("wall_sec"))
        duration_text = f"{duration:.3f}s" \
            if isinstance(duration, (int, float)) else "?"
        workload = event.get("workload")
        scope = f" [{workload}]" if workload else ""
        return f"stage {event.get('stage', '?')}{scope}: {duration_text}"
    if kind == "fuzz_campaign_start":
        return (f"fuzz campaign: {event.get('scenarios', '?')} scenario(s),"
                f" seed {event.get('seed', '?')}")
    if kind == "run_finished":
        state.finished_status = str(event.get("status", "unknown"))
        return f"run finished: {state.finished_status}"
    return None


def _show(raw: bytes, state: _TailState, out: TextIO) -> None:
    """Render one log line; torn or malformed lines print nothing."""
    event = parse_event_line(raw)
    if event is None:
        return
    line = _render(event, state)
    if line is not None:
        print(line, file=out, flush=True)


def tail_run(
    run_dir: Union[str, Path],
    follow: bool = True,
    timeout: Optional[float] = None,
    out: Optional[TextIO] = None,
    sleep=time.sleep,
    clock=time.monotonic,
) -> int:
    """Follow one run's event log; returns the process exit status.

    ``sleep``/``clock`` are injectable for tests.
    """
    out = out if out is not None else sys.stdout
    path = Path(run_dir) / EVENTS_NAME
    state = _TailState()
    offset = 0
    remainder = b""
    deadline = clock() + timeout if timeout is not None else None

    while True:
        chunk = b""
        try:
            size = path.stat().st_size
            if size < offset:  # truncated/rotated underneath us: restart
                offset = 0
                remainder = b""
            if size > offset:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
                    offset = handle.tell()
        except OSError:
            pass  # not written yet, or vanished: keep polling
        if chunk:
            lines = (remainder + chunk).split(b"\n")
            remainder = lines.pop()  # b"" after a complete final line
            for raw in lines:
                _show(raw, state, out)
        drained = not follow and not chunk
        timed_out = (state.finished_status is None and not drained
                     and deadline is not None and clock() >= deadline)
        if state.finished_status is not None or drained or timed_out:
            _show(remainder, state, out)
        if state.finished_status is not None:
            return 0 if state.finished_status.startswith("completed") else 1
        if drained:
            return 0
        if timed_out:
            print("tail: timeout reached; run still in flight",
                  file=out, flush=True)
            return 0
        if not chunk:
            sleep(POLL_SECONDS)


def _as_int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0
