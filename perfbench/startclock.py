"""Set-up time from process start, rescaled like every other time.

Set-up is mostly imports, so :class:`SetupClock` sits on
``sys.meta_path``: at the first import after every :data:`SEGMENT_S`
host seconds it ends a segment with a run of an interpreter-only
reference kernel (numpy is not loaded yet when set-up starts).  Each
segment is rescaled as in harness.py, here to the host speed at which
this kernel takes :data:`KERNEL_NOMINAL_S`.  This module imports
nothing outside the standard library.
"""

from __future__ import annotations

import os
import sys
import time

#: Interpreter-kernel time (seconds) that defines the nominal host speed.
KERNEL_NOMINAL_S = 0.0013
#: Host seconds between kernel runs during set-up.
SEGMENT_S = 0.1


def _kernel_once() -> float:
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(8000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        acc += len(table)
    return time.perf_counter() - t0


def kernel() -> float:
    """Host seconds of the interpreter kernel right now (best of two)."""
    return min(_kernel_once(), _kernel_once())


def process_age() -> float:
    """Host seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class SetupClock:
    """Host and rescaled seconds from process start until :meth:`stop`.

    The time before the clock was made (interpreter start-up) is read
    from the process start time and rescaled by the first kernel run.
    """

    def __init__(self) -> None:
        self._last = kernel()
        try:
            self.raw_s = process_age()
        except (OSError, ValueError, IndexError, AttributeError):
            self.raw_s = 0.0  # no procfs: count from here
        self.norm_s = self.raw_s * KERNEL_NOMINAL_S / self._last
        self._start = time.perf_counter()
        sys.meta_path.insert(0, self)

    def find_spec(self, name: str, path: object = None, target: object = None) -> None:
        """Import hook: end the segment if it is long enough; find nothing."""
        if time.perf_counter() - self._start >= SEGMENT_S:
            self._split()
        return None

    def _split(self) -> None:
        raw = time.perf_counter() - self._start
        after = kernel()
        self.raw_s += raw
        self.norm_s += raw * KERNEL_NOMINAL_S / (0.5 * (self._last + after))
        self._last = after
        self._start = time.perf_counter()

    def stop(self) -> None:
        """End the last segment and leave the import system as it was."""
        self._split()
        sys.meta_path.remove(self)
