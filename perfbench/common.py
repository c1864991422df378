"""Operation timing and shared helpers for the workloads."""

from __future__ import annotations

import bisect
import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

_KERNEL_ROWS = np.random.default_rng(0).normal(size=(4096, 8))
_KERNEL_VEC = np.arange(8.0)


def speed_kernel() -> float:
    """A fixed mix of interpreter work, small numpy calls and a batched
    distance test, the three kinds of work the program does; about 1.5 ms."""
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i)
    for _ in range(150):
        s += float(np.dot(_KERNEL_VEC, _KERNEL_VEC))
    for k in range(4):
        d = _KERNEL_ROWS - _KERNEL_ROWS[k]
        s += float((np.sqrt((d * d).sum(axis=1)) < 3.0).sum())
    return s


class SpeedProbe:
    """The machine's speed, sampled between operations.

    A shared machine's speed drifts by a fifth or more over tens of seconds,
    on every core at once, which would swamp any change to the program.  So
    before each operation the probe times `speed_kernel` once for every
    INTERVAL_S that passed since its last sample (up to NEAREST // 2 times),
    so that a long operation has samples right before and right after it.
    An operation's time is scaled by REFERENCE_S over the median kernel time
    of the NEAREST samples around it: the time the operation would take on
    the machine at its reference speed.  The kernel does not touch the
    program, so a faster program still reads faster by the same share.
    """

    INTERVAL_S = 0.05
    NEAREST = 21
    REFERENCE_S = 1.5e-3  # the kernel's median time on the reference machine

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each sample (perf_counter)
        self.costs: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        speed_kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.costs.append(t1 - t0)
        self._last = t1

    def tick(self) -> None:
        idle = min(time.perf_counter() - self._last, self.NEAREST // 2 * self.INTERVAL_S)
        for _ in range(int(idle / self.INTERVAL_S)):
            self.sample()

    def factor(self, t: float) -> float:
        """Reference over local speed at time t: multiply a time by it."""
        i = bisect.bisect(self.times, t)
        hi = min(len(self.costs), max(i + self.NEAREST // 2 + 1, self.NEAREST))
        lo = max(0, hi - self.NEAREST)
        return self.REFERENCE_S / statistics.median(self.costs[lo:hi])


@dataclass
class Op:
    kind: str  # "solve" or "query"
    start: float  # perf_counter at the start
    seconds: float  # as measured
    failed: bool
    scaled: float = math.nan  # at the reference speed, see SpeedProbe


class Recorder:
    """Times each operation; an operation that raises has failed.

    The class of an operation (solve or query) is fixed by the input list it
    comes from, never by how the program settled it.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[Op] = []
        self.speed = SpeedProbe()
        self._reported: set[str] = set()

    def run(self, kind: str, label: str, fn, failed=None):
        """Run fn() as one timed operation; returns (result, failed)."""
        self.speed.tick()
        scope = self.tracer.op(label) if self.tracer is not None else nullcontext()
        with scope:
            t0 = time.perf_counter()
            try:
                result = fn()
                bad = bool(failed(result)) if failed is not None else False
            except Exception:  # an operation that raises counts as failed, and the run goes on
                if label not in self._reported:
                    self._reported.add(label)
                    traceback.print_exc(file=sys.stderr)
                result, bad = None, True
            seconds = time.perf_counter() - t0
        self.ops.append(Op(kind, t0, seconds, bad))
        return result, bad

    def scale(self) -> None:
        """Set every operation's time at the reference speed; call once at the end."""
        self.speed.tick()
        for op in self.ops:
            op.scaled = op.seconds * self.speed.factor(op.start + 0.5 * op.seconds)

    def latencies(self, kind: str) -> list[float]:
        """Scaled seconds of every operation of this kind that did not fail."""
        return [op.scaled for op in self.ops if op.kind == kind and not op.failed]


class Checks:
    """Collects failed output checks; the run is correct when none failed."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def close(self, a, b, tol: float, what: str) -> None:
        diff = float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
        self.expect(diff <= tol, f"{what}: off by {diff:.3e} (tolerance {tol:g})")


def rng_for(seed: int, stream: int, round_no: int) -> np.random.Generator:
    """Independent generator per input stream and round, so one list never
    moves another and no round repeats the inputs of an earlier one."""
    return np.random.default_rng([int(seed), int(stream), int(round_no)])


def unit_in_span(rng: np.random.Generator, dims: int = 3) -> np.ndarray:
    """Random unit 7-vector in the span of e1..e_dims (the sampling subsphere)."""
    v = np.zeros(7)
    v[:dims] = rng.normal(size=dims)
    return v / np.linalg.norm(v)


def unit_near(rng: np.random.Generator, axis: np.ndarray, angle: float, dims: int = 3) -> np.ndarray:
    """Unit at the given angle from `axis`, turned in the span of e1..e_dims."""
    w = np.zeros(7)
    w[:dims] = rng.normal(size=dims)
    w -= (w @ axis) * axis
    w /= np.linalg.norm(w)
    return np.cos(angle) * axis + np.sin(angle) * w
