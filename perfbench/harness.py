"""Timing against a reference kernel, and the pass loop.

The benchmark host is a shared two-core machine whose speed swings by
up to 1.8x, often within a second; process CPU time swings with it.
So host time is measured in short segments, each between two runs of
a fixed reference kernel, and every segment is rescaled to the host
speed at which the kernel takes :data:`REF_NOMINAL_S`::

    normalized = raw * REF_NOMINAL_S / mean(kernel before, kernel after)

Segments end at operation boundaries and, inside an operation, at the
first fluid step after :data:`SEGMENT_S` host seconds (see
:meth:`RefClock.tick`).  Kernel runs are left out of both raw and
normalized time.  The kernel is benchmark code, not program code, so a
change to the program moves normalized time as it moves raw time.
Set-up is timed the same way by startclock.py.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

import numpy as np

#: Reference-kernel time (seconds) that defines the nominal host speed.
#: Close to the kernel's time in the host's fast phase, so normalized
#: seconds read like wall seconds on an uncontended host.
REF_NOMINAL_S = 0.0036
#: Host seconds between kernel runs inside an operation.
SEGMENT_S = 0.1

_REF_A = np.linspace(1.0, 2.0, 16384)
_REF_B = np.linspace(2.0, 1.0, 16384)


def _kernel_once() -> float:
    """One pass of the reference kernel; returns its host seconds.

    Mixes interpreter work (dict updates in a loop) with numpy calls on
    16k-element arrays, the two kinds of work the simulator does.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(8000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        acc += len(table)
    a = _REF_A.copy()
    for _ in range(100):
        np.minimum(a, _REF_B, out=a)
        a *= 1.0001
        a += 0.001
        acc += float(a.sum())
        np.cumsum(a[:1024])
    return time.perf_counter() - t0


def ref_kernel() -> float:
    """Host seconds of the reference kernel right now (best of two)."""
    return min(_kernel_once(), _kernel_once())


@dataclass
class Timed:
    """One timed operation: its output, raw and normalized host seconds."""

    output: Any
    raw_s: float
    norm_s: float
    error: BaseException | None = None


class RefClock:
    """Times operations back to back in kernel-delimited segments.

    The kernel run that ends one operation starts the next.  With
    ``split_ops`` false, segments end only at operation boundaries
    (traced passes use this, so no kernel runs inside a span).
    """

    def __init__(self, split_ops: bool = True) -> None:
        _kernel_once()  # first call pays numpy's one-time dispatch set-up
        self.split_ops = split_ops
        self._last = ref_kernel()
        self._active = False
        self._start = self._raw = self._norm = 0.0

    def rebase(self) -> None:
        """Re-measure the kernel (after untimed work between operations)."""
        self._last = ref_kernel()

    def tick(self) -> None:
        """Called on every fluid step: end the segment if it is long enough."""
        if self._active and time.perf_counter() - self._start >= SEGMENT_S:
            self._split()

    def _split(self) -> None:
        raw = time.perf_counter() - self._start
        after = ref_kernel()
        self._raw += raw
        self._norm += raw * REF_NOMINAL_S / (0.5 * (self._last + after))
        self._last = after
        self._start = time.perf_counter()

    def time(self, op: Callable[[], Any]) -> Timed:
        """Run ``op`` once; an exception is captured, not raised."""
        error: BaseException | None = None
        output = None
        self._raw = self._norm = 0.0
        self._active = self.split_ops
        self._start = time.perf_counter()
        try:
            output = op()
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        self._active = False
        self._split()
        return Timed(output, self._raw, self._norm, error)


@dataclass
class PassResult:
    """One pass over a workload's operations."""

    raw_s: float = 0.0
    norm_s: float = 0.0
    sim_s: float = 0.0


def run_pass(
    ops: list[Callable[[], Any]],
    clock: RefClock,
    sim_clock: Any,
    check: Callable[[int, Timed], None],
) -> PassResult:
    """Time every operation of one pass.

    ``check(i, timed)`` sees each operation's output right after it
    runs, outside the timed region; the output is dropped after that,
    and garbage is collected before every operation, so each starts
    from the same heap and no operation's garbage counts in the next
    one's time or memory.
    """
    result = PassResult()
    sim_before = sim_clock.seconds
    for i, op in enumerate(ops):
        gc.collect()
        clock.rebase()
        timed = clock.time(op)
        result.raw_s += timed.raw_s
        result.norm_s += timed.norm_s
        check(i, timed)
        timed.output = None
    result.sim_s = sim_clock.seconds - sim_before
    return result


def median_of(values: list[float]) -> float:
    """Median, the statistic every reported time uses."""
    return float(median(values))
