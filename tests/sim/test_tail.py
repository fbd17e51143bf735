"""``runs tail``: live event-log following, and one parser for every reader.

The load-bearing contracts:

* **progress** — spans, cell completions, failures and retries render as
  they land, and the exit status mirrors the run's ``run_finished``;
* **bounded** — a follow stops on ``run_finished``, on a drained log
  under ``follow=False``, or at the timeout, never hangs;
* **one parser** — :func:`telemetry.read_events` (``runs show``),
  :func:`telemetry.quick_event_summary` (``runs list``) and the tail
  agree on what a damaged log holds (hypothesis drives the damage via
  :func:`tests.strategies.event_log_corruptions`).
"""

import io
import json

import pytest
from hypothesis import given

from repro.sim import telemetry
from repro.sim.tail import tail_run
from tests.strategies import event_log_corruptions, telemetry_events

STARTED = {"kind": "run_started", "command": "compare"}
SPAN = {"kind": "span", "stage": "replay", "duration_s": 0.5}
FAILED = {"kind": "run_finished", "status": "failed"}


def _lines(*events) -> bytes:
    return b"".join(json.dumps(event).encode() + b"\n" for event in events)


def _write_events(run_dir, events):
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / telemetry.EVENTS_NAME).write_bytes(_lines(*events))


def _kinds(run_dir, on_error=None):
    return [event.get("kind")
            for event in telemetry.read_events(run_dir, on_error=on_error)]


class TestTail:
    def test_tail_renders_progress_and_exit_status(self, tmp_path):
        run_dir = tmp_path / "r1"
        _write_events(run_dir, [
            {"kind": "run_started", "command": "compare"},
            {"kind": "cells_start", "total": 2, "jobs": 1},
            {"kind": "cell_done", "cell_kind": "compare", "workload": "w",
             "duration_s": 0.25},
            {"kind": "cell_failed", "cell_kind": "compare",
             "workload": "x", "attempts": 3, "error_type": "ValueError",
             "error": "boom"},
            {"kind": "cells_done", "total": 2, "failed": 1},
            {"kind": "run_finished", "status": "completed_with_failures"},
        ])
        out = io.StringIO()
        status = tail_run(run_dir, follow=False, out=out)
        text = out.getvalue()
        assert status == 0  # completed_with_failures still completed
        assert "cell 1/2 ok" in text
        assert "FAILED (compare, x)" in text
        assert "run finished: completed_with_failures" in text

    def test_tail_failed_run_exits_nonzero(self, tmp_path):
        run_dir = tmp_path / "r1"
        _write_events(run_dir, [FAILED])
        assert tail_run(run_dir, follow=False, out=io.StringIO()) == 1

    def test_tail_skips_torn_lines_and_follows_appends(self, tmp_path):
        run_dir = tmp_path / "r1"
        _write_events(run_dir, [{"kind": "run_started", "command": "x"}])
        events_path = run_dir / telemetry.EVENTS_NAME
        with open(events_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "torn')  # no newline: mid-write

        def append_rest(_seconds):
            with open(events_path, "a", encoding="utf-8") as handle:
                handle.write(' event"}\n')
                handle.write(json.dumps({"kind": "run_finished",
                                         "status": "completed"}) + "\n")

        out = io.StringIO()
        assert tail_run(run_dir, follow=True, out=out,
                        sleep=append_rest) == 0
        assert "run finished: completed" in out.getvalue()

    def test_tail_timeout_returns_cleanly(self, tmp_path):
        run_dir = tmp_path / "r1"
        _write_events(run_dir, [{"kind": "run_started", "command": "x"}])
        ticks = iter([0.0, 0.0, 10.0, 20.0, 30.0])
        out = io.StringIO()
        status = tail_run(run_dir, follow=True, timeout=5.0, out=out,
                          sleep=lambda _s: None,
                          clock=lambda: next(ticks))
        assert status == 0
        assert "timeout" in out.getvalue()


class TestOneParser:
    """Each damaged log below once read differently in each reader."""

    @pytest.mark.parametrize("follow", [False, True])
    def test_unterminated_final_line_is_the_last_event(self, tmp_path,
                                                       follow):
        # The failed run's `run_finished` lost its trailing newline.
        (tmp_path / telemetry.EVENTS_NAME).write_bytes(
            _lines(STARTED, SPAN) + json.dumps(FAILED).encode())
        assert _kinds(tmp_path) == ["run_started", "span", "run_finished"]
        summary = telemetry.quick_event_summary(tmp_path)
        assert summary["last_kind"] == "run_finished"
        out = io.StringIO()
        ticks = iter([0.0, 0.0, 10.0])  # follow=True stops at timeout
        status = tail_run(tmp_path, follow=follow, timeout=5.0, out=out,
                          sleep=lambda _s: None, clock=lambda: next(ticks))
        assert status == 1
        assert out.getvalue().endswith("run finished: failed\n")

    def test_invalid_utf8_inside_a_string_is_replaced(self, tmp_path):
        (tmp_path / telemetry.EVENTS_NAME).write_bytes(
            _lines(STARTED)
            + b'{"kind": "span", "stage": "re\xffplay", "duration_s": 0.5}\n')
        events = telemetry.read_events(tmp_path)
        assert [event["kind"] for event in events] == ["run_started", "span"]
        assert events[1]["stage"] == "re\ufffdplay"
        assert telemetry.quick_event_summary(tmp_path)["last_kind"] == "span"
        out = io.StringIO()
        assert tail_run(tmp_path, follow=False, out=out) == 0
        assert "stage re\ufffdplay: 0.500s" in out.getvalue()

    def test_carriage_return_is_damage_not_a_line_break(self, tmp_path):
        # The writer escapes every control character, so a raw "\r" can
        # only be damage inside one line.
        (tmp_path / telemetry.EVENTS_NAME).write_bytes(
            _lines(STARTED) + json.dumps(SPAN).encode() + b"\r"
            + _lines(FAILED))
        errors = []
        assert _kinds(tmp_path, on_error=lambda path, count:
                      errors.append(count)) == ["run_started"]
        assert errors == [1]
        summary = telemetry.quick_event_summary(tmp_path)
        assert summary["last_kind"] == "run_started"
        assert tail_run(tmp_path, follow=False, out=io.StringIO()) == 0

    @given(events=telemetry_events(min_size=1),
           corruption=event_log_corruptions())
    def test_corrupt_event_logs_never_fail(self, tmp_path_factory, events,
                                           corruption):
        run_dir = tmp_path_factory.mktemp("run")
        _write_events(run_dir, events)
        events_path = run_dir / telemetry.EVENTS_NAME
        kind, payload = corruption
        data = events_path.read_bytes()
        if kind == "truncate":
            events_path.write_bytes(data[:max(1, int(len(data) * payload))])
        else:
            events_path.write_bytes(data + payload)
        survived = telemetry.read_events(run_dir)
        # Nothing is invented: the original events survive as a prefix
        # (appended garbage may parse as extra events).
        prefix = survived[:len(events)]
        assert prefix == list(events)[:len(prefix)]
        if kind == "truncate":
            assert len(survived) <= len(events)
        else:
            assert len(survived) >= len(events)
        # The tail sees the same events: its exit status follows the last
        # `run_finished` that survived, and each `cell_done` renders once.
        out = io.StringIO()
        status = tail_run(run_dir, follow=False, out=out)
        finished = [str(event.get("status", "unknown")) for event in survived
                    if event.get("kind") == "run_finished"]
        assert status == (1 if finished
                          and not finished[-1].startswith("completed")
                          else 0)
        rendered_ok = [line for line in out.getvalue().splitlines()
                       if line.startswith("cell ") and " ok: (" in line]
        assert len(rendered_ok) == sum(
            event.get("kind") == "cell_done" for event in survived)
