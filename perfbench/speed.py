"""Machine-speed probe, used to express measured times in reference seconds.

On a shared host the same interpreter-bound code can run 1.6 times slower
for tens of seconds at a time, for reasons outside the program (measured on
a 2-vCPU Xeon VM: 5-second windows of a fixed loop ranged from 1.2 to 2.3
times its fastest time).  Runs of the benchmark then disagree by more than
any useful regression bound.  So every measured region is accompanied by a
probe: a fixed, interpreter-bound kernel timed just before the region,
every INTERVAL_S during it (from a SIGALRM handler in the same thread) and
just after it.  The region's reference seconds are its wall seconds times
REFERENCE_S over the mean kernel time: what the region would have taken had
the machine run the kernel in REFERENCE_S throughout.

Only `signal` and `time` are imported here, so loading this module does
not shorten the import of the program measured after it.
"""

from __future__ import annotations

import signal
import time

# The kernel's duration on an uncontended 2.0 GHz Xeon vCPU under CPython
# 3.11, rounded: the unit that reference seconds are expressed in.
REFERENCE_S = 0.00025
INTERVAL_S = 0.02

_WORDS = tuple(format(k * 2654435761 % 10**9, "x") for k in range(500))


def _kernel() -> None:
    counts: dict[str, int] = {}
    for word in _WORDS:
        if word.endswith("a") or word[:2] in counts:
            counts[word] = counts.get(word, 0) + 1
        counts[word[:2]] = len(word)


def kernel_seconds() -> float:
    """Time the fixed kernel, dict and string work like the program's, on
    its second of two back-to-back runs: warm caches, so the sample follows
    the processor's speed rather than what the measured code left in cache."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel around and during a `with` block.

    `factor` turns the block's wall seconds into reference seconds.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(kernel_seconds())

    def __enter__(self) -> "SpeedProbe":
        self.samples = [kernel_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())

    @property
    def factor(self) -> float:
        return REFERENCE_S * len(self.samples) / sum(self.samples)
