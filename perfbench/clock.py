"""Wall time scaled to a reference machine speed.

The build machine is shared, and its speed for the same work drifts by up to
half within seconds and stays off for minutes. Taking the fastest repetition
does not remove a slow spell that lasts a whole run. So every timed interval
is scaled by the time of a fixed calibration kernel measured next to it:

    scaled seconds = wall seconds * REFERENCE_S / kernel seconds

The kernel is a pure-Python mix of integer arithmetic and tuple-keyed dict
lookups in a small table, the kind of work the pipeline does. It calls nothing
in the program, so a change to the program moves the scaled time exactly as
much as the wall time; only the machine's drift is divided out. On a machine
whose kernel takes REFERENCE_S, scaled seconds are wall seconds.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.005  # about the kernel's time on a 2-vCPU x86-64 VM, Python 3.11

_WORDS = [f"w{i}" for i in range(500)]
_TABLE = {(_WORDS[i], _WORDS[(i * 7) % 500]): float(i) for i in range(500)}


def kernel_s() -> float:
    """Run the calibration kernel once; return its wall time."""
    started = perf_counter()
    x = 0
    for i in range(30000):
        x = (x * 31 + i) & 0xFFFF
    total = 0.0
    for _ in range(12):
        for i in range(499):
            total += _TABLE.get((_WORDS[i], _WORDS[(i * 7) % 500]), 0.0)
            total += _TABLE.get((_WORDS[i], _WORDS[i + 1]), 0.0)
    return perf_counter() - started


class Calibrator:
    """The kernel time sampled last, and the wall times scaled by it."""

    def __init__(self) -> None:
        self.kernel = kernel_s()
        self.samples: list[float] = []

    def sample(self) -> None:
        """Measure the kernel again; call it between timed intervals."""
        self.kernel = kernel_s()
        self.samples.append(self.kernel)

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.kernel

    def timed(self, fn, *args):
        """Call fn between two kernel samples; return (result, wall s, scaled s).

        For calls of a second or more, over which the speed may change, the
        wall time is scaled by the mean of the samples before and after.
        """
        self.sample()
        before = self.kernel
        started = perf_counter()
        result = fn(*args)
        wall = perf_counter() - started
        self.sample()
        return result, wall, wall * REFERENCE_S / ((before + self.kernel) / 2)
