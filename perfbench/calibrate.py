"""Host-speed calibration of end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts:
on a 2-core sandbox a fixed compress loop ran at rates whose
quartile spread over 18-30 s windows was 0.21-0.28 of the median, with
slow phases lasting tens of seconds, so a whole run can fall into one.
Timed on the calling thread's CPU clock, a fixed kernel of standard
library work (string splitting, dictionary counting, a regex scan,
zlib and LZMA compression: the kinds of work the program does) slows
with the host and not with the program, and the ratio of the two
rates had a spread of 0.055 on the same windows.

So a ``Calibrator`` runs the kernel at a fixed cadence through each
timed phase (``tick``, called between operations, never inside a timed
one) and every end-to-end time is reported at the reference speed:
multiplied by ``REFERENCE_S`` over the kernel's mean time in that
phase.  A change to the program moves the reported times as much as it
moves the wall times; a change of host speed during or between runs
does not.  The kernel uses the thread's CPU clock, so the program's own
background threads (which only hold the GIL) do not inflate it.
"""

from __future__ import annotations

import lzma
import random
import re
import statistics
import time
import zlib
from typing import List

#: The kernel's CPU time on the host the reference was taken on (a 2-core
#: sandbox VM); reported times are scaled to that speed.
REFERENCE_S = 0.0165

_WORDS = ("read", "write", "state", "ERROR", "INFO", "block", "node", "file", "code", "user")
_RNG = random.Random(0)
_LINES = [
    f"{_RNG.randrange(10**6)} {_RNG.choice(_WORDS)} {_RNG.choice(_WORDS)}:{_RNG.randrange(1000)}"
    f" /p/{_RNG.randrange(50)}/x.log T{_RNG.randrange(10**5)}"
    for _ in range(1500)
]
_TEXT = "\n".join(_LINES)
_BYTES = _TEXT.encode()
_PAIR = re.compile(r"(\w+):(\d+)")


def kernel() -> int:
    """A fixed unit of standard-library work (about 17 ms at the reference)."""
    counts: dict = {}
    for line in _LINES:
        for token in line.split(" "):
            counts[token] = counts.get(token, 0) + 1
    pairs = _PAIR.findall(_TEXT)
    packed = zlib.compress(_BYTES, 6)
    small = lzma.compress(_BYTES[:8000], preset=1)
    return len(counts) + len(pairs) + len(packed) + len(small)


def time_kernel() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Calibrator:
    """Kernel timings taken at most every *interval_s* of wall time."""

    def __init__(self, interval_s: float = 0.3):
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._last = float("-inf")
        kernel()  # first-call costs stay out of the samples

    def measure(self, times: int = 1) -> None:
        """Time the kernel *times* times now."""
        for _ in range(times):
            self.samples.append(time_kernel())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Time the kernel once if *interval_s* has passed since the last."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.measure()

    def slowdown(self) -> float:
        """How much slower than the reference the host ran (1.0 = as fast)."""
        if not self.samples:
            self.measure(3)
        return statistics.fmean(self.samples) / REFERENCE_S
