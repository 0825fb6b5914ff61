"""Closed-loop op runner with an in-process per-op deadline.

The deadline is an ITIMER_REAL interval timer whose SIGALRM handler raises
``Deadline``.  Tracking and fitting loop in Python, so the exception lands
within one solve of the deadline; no extra process or thread is started.
``Deadline`` derives from BaseException so that no ``except Exception`` in
the program can swallow it.
"""
from __future__ import annotations

import signal
import sys
import time
from dataclasses import dataclass


class Deadline(BaseException):
    pass


def _on_alarm(signum, frame):
    raise Deadline


@dataclass
class OpResult:
    kind: str
    seconds: float  # the program's time; the gate is timed apart, in check_s
    ok: bool
    timed_out: bool
    reason: str
    output: object = None
    check_s: float = 0.0


class Runner:
    """Runs ops one after another, each under the same deadline."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, _on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def run(self, op) -> OpResult:
        """Time op.run() under the deadline, then judge its output with op.check()."""
        stdout, stderr = sys.stdout, sys.stderr
        timed_out = False
        output = None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
            try:
                output = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            reason = ""
        except Deadline:
            timed_out = True
            reason = f"deadline {self.deadline_s:g} s exceeded"
        except Exception as exc:  # a raising op is a failed op, never a crashed run
            reason = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        # an interrupted op may not have restored redirected streams
        sys.stdout, sys.stderr = stdout, stderr
        check_start = time.perf_counter()
        if not reason:
            try:
                reason = op.check(output)
            except (ValueError, IndexError, TypeError) as exc:  # output the gate cannot read
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        check_s = time.perf_counter() - check_start
        return OpResult(op.kind, elapsed, not reason, timed_out, reason, output, check_s)

    def loop(self, ops, seconds: float, limit: int | None = None, on_op=None) -> tuple[list[OpResult], float]:
        """Issue ops in order (cycling) until `seconds` of program time pass or `limit` ops ran.

        Returns the results and the wall time of the loop less the time
        spent in the gates.
        """
        results = []
        start = time.perf_counter()
        checks = 0.0
        i = 0
        while (limit is None and time.perf_counter() - start - checks < seconds) or (limit is not None and i < limit):
            op = ops[i % len(ops)]
            if on_op is not None:
                on_op(i, op)
            res = self.run(op)
            res.output = None  # judged already; keeping it would grow the process
            checks += res.check_s
            results.append(res)
            i += 1
        return results, time.perf_counter() - start - checks
