"""CPU-speed probe: wall time scaled to a fixed reference speed.

The two-core machines this benchmark runs on share their cores with other
tenants, and the same work can take twice as long from one second to the
next: every instruction slows, so CPU time moves with wall time. A small
fixed kernel shaped like the package's hot loop, timed during the same
interval, slows by about the same factor, so wall time x (KERNEL_REF_S /
kernel time) estimates what the interval would have taken at the reference
speed. While a timed iteration runs, a SIGALRM handler times the kernel
every INTERVAL_S seconds; the handler's own time is taken out of the wall
time before scaling.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Kernel time at the reference speed: about the fastest this kernel runs on
# the two-core x86-64 machine the baseline was recorded on.
KERNEL_REF_S = 5e-5
INTERVAL_S = 0.05

_columns = []


def kernel_seconds() -> float:
    """Time one run of the fixed kernel.

    Like a coordinate-descent step, it takes column views of a 4 MB design,
    dots them with a residual and branches on the result in Python; each run
    moves on to the next 32 columns so the design streams through the cache.
    """
    import numpy as np

    if not _columns:
        rng = np.random.default_rng(0)
        x = np.asfortranarray(rng.standard_normal((500, 1024)))
        _columns.extend([x, rng.standard_normal(500), 0])
    x, r, start = _columns
    _columns[2] = (start + 32) % 1024
    t0 = perf_counter()
    acc = 0.0
    for j in range(start, start + 32):
        z = float(np.dot(x[:, j], r))
        acc += z if z > 0.0 else -z
    return perf_counter() - t0


def speed(reps: int = 20) -> float:
    """Current speed relative to the reference (1.0 = reference, 0.5 = half)."""
    return KERNEL_REF_S * reps / sum(kernel_seconds() for _ in range(reps))


class Sampler:
    """Times the kernel from a SIGALRM handler while the block runs.

    Use from the main thread only; it takes over SIGALRM and the real-time
    interval timer for the duration of the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed over the block; measured afresh if the block was too short."""
        if not self.samples:
            return speed()
        return sum(KERNEL_REF_S / k for k in self.samples) / len(self.samples)

    def scaled(self, wall: float) -> float:
        """Wall time of the block, less the handler's time, at the reference speed."""
        return (wall - self.spent) * self.speed()
