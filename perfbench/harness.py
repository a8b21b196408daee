"""Run state shared by the workloads: timing, spans, operations and checks.

An operation is one call into the program (a library function or one CLI
line).  It fails when it raises, exits nonzero, or when a check on its
output fails; a failed operation never stops the run.  Checks run outside
every timed interval.

The speed of a shared host drifts by tens of percent over minutes, so a
fixed reference workload (no library code) is timed about twice a second
between timed intervals (several times in a row after a long one), and
times are reported at reference speed: measured time x REFERENCE_S /
mean reference time of the same period.  Each CPU of the host switches
between a fast and a slow state (about 1.5x apart) every second or so,
independently of the other CPU, so the run process pins itself and its
children to one CPU, and the factor uses the mean (linear in the share of
slow time) rather than the median, which jumps between the two states.
Set-up is timed in child processes before the passes, and its reference
times are taken between them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction

# reference_work() time on the host the benchmark was written on
# (Intel Xeon, 2 vCPUs, Python 3.11)
REFERENCE_S = 0.035
PROBE_EVERY_S = 0.5


class OpFailed(Exception):
    """Raised by Run.call after recording a failed operation."""


class Tracer:
    """Spans (name, start, end, parent, op id), kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.active = False

    def span(self, name: str, op: str):
        return self._span(name, op) if self.active else nullcontext()

    @contextmanager
    def _span(self, name, op):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, op_prefix: str = "") -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[4].startswith(op_prefix)]

    def as_json(self) -> list[dict]:
        child_time = Counter()
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op, "self": end - start - child_time[i]}
                for i, (name, start, end, parent, op) in enumerate(self.spans)]


class Run:
    """Counts operations, pass times, item latencies and the artifact digest."""

    def __init__(self):
        self.tracer = Tracer()
        self.attempted = 0
        self.failed_ops: set[tuple[str, str]] = set()
        self.reasons: Counter[str] = Counter()
        self.wrong = 0
        self.pass_time = 0.0
        self.items: list[float] = []
        self.digest = hashlib.sha256()
        self.record_artifacts = False
        self.peak_child_rss_kb = 0
        # this process's ru_maxrss at the end of the last timed block: if the
        # final peak is higher, untimed work (checks, extras) set it
        self.timed_rss_kb = 0
        self.probes: list[float] = []
        self._last_probe = time.perf_counter() - PROBE_EVERY_S

    def call(self, name: str, op: str, fn, *args, **kwargs):
        """One operation; records a failure and raises OpFailed if it raises."""
        self.attempted += 1
        try:
            with self.tracer.span(name, op):
                return fn(*args, **kwargs)
        except Exception as exc:  # any exception is a failed operation
            self._fail(name, op, f"{type(exc).__name__}: {_first_line(exc)}")
            raise OpFailed from exc

    def check(self, name: str, op: str, label: str, fn) -> None:
        """Independent check of an operation's output; runs untimed."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a check that raises has failed
            label += f" ({type(exc).__name__}: {_first_line(exc)})"
            ok = False
        if not ok:
            self.wrong += 1
            self._fail(name, op, f"wrong output: {label}")

    def _fail(self, name, op, reason):
        self.failed_ops.add((name, op))
        self.reasons[f"{name}: {reason}"] += 1

    @contextmanager
    def timed(self, name: str, op: str, item: bool = False):
        """Timed part of a pass; an OpFailed inside ends the block quietly.

        With ``item`` the block's duration is one latency sample, whether or
        not an operation in it failed.
        """
        # after a long item, catch up to about one probe per PROBE_EVERY_S
        due = int((time.perf_counter() - self._last_probe) / PROBE_EVERY_S)
        for _ in range(min(due, 8)):
            self.probes.append(reference_time())
            self._last_probe = time.perf_counter()
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, op):
                yield
        except OpFailed:
            pass
        finally:
            dt = time.perf_counter() - t0
            self.pass_time += dt
            if item:
                self.items.append(dt)
            self.timed_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def artifact(self, label: str, data: str | bytes) -> None:
        """Adds a pass-0 artifact to the reproducibility digest."""
        if self.record_artifacts:
            if isinstance(data, str):
                data = data.encode()
            self.digest.update(f"{label}:{len(data)}:".encode())
            self.digest.update(data)


def speed_factor(probes: list[float]) -> float:
    """Multiplier that turns measured times into reference-speed times."""
    return REFERENCE_S / statistics.fmean(probes) if probes else 1.0


def reference_time() -> float:
    """Seconds that one reference_work() takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def reference_work():
    """Fixed pure-Python work: big-int fractions, small containers, a loop."""
    acc = Fraction(0)
    table = {}
    for k in range(1, 2500):
        acc += Fraction(1, k)
        table[k] = (k, str(k), [k] * 3)
    s = 0
    for k in range(150_000):
        s += k * k % 7
    return acc, s, len(table)


def _first_line(exc) -> str:
    text = str(exc).strip().splitlines()
    return text[0][:120] if text else ""


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx
