"""CPU speed probe used to put timings on a common scale.

Benchmark hosts are often shared.  On a 2-core x86 container host,
pure-Python and numpy code both ran 1.3-1.8x slower for spells lasting
from a fraction of a second to minutes, and slowed together (correlation
0.98 at 0.5 s resolution), which spread raw run times by 20% between runs
of identical work.  A fixed kernel of the same mix, timed between requests,
tracks that speed: each request's time is scaled by
``REF_KERNEL_S / kernel time``, i.e. reported at the speed where the kernel
takes ``REF_KERNEL_S``.  Raw times are kept beside the scaled ones.
"""
from __future__ import annotations

import bisect
from time import perf_counter

# Each kernel's time on an uncontended core of that host.
REF_KERNEL_S = 0.6e-3
REF_PY_KERNEL_S = 0.5e-3
# A core can switch speed within a fraction of a second, so a run samples
# every 20 ms, and right before and after every request longer than 10 ms.
SAMPLE_EVERY_S = 0.02
SAMPLE_AFTER_S = 0.01

_arrays = []


def _py_kernel() -> float:
    # Plain float and list arithmetic only: libm calls (exp, sin) run at a
    # speed that depends on the vector-register state numpy code leaves
    # behind, which would make the probe track the workload, not the core.
    acc = 0.0
    row = [0.0] * 8
    for i in range(2500):
        x = (i % 7) * 0.25 - (i % 5) * 0.5
        row[i % 8] = row[(i + 3) % 8] * 0.5 + x * x
        acc += row[i % 8]
    return acc


def _kernel() -> float:
    """The Python loop plus one small numpy contraction, the mix of a run."""
    if not _arrays:
        # numpy is imported on first use only: a fresh interpreter probes
        # with ``_py_kernel`` before anything is imported.
        import numpy as np

        _arrays.extend([np.linspace(0.0, 1.0, 8000).reshape(2000, 2, 2) + 0.5j,
                        np.array([[0.6, 0.8j], [-0.8j, 0.6]]), np.einsum])
    a, b, einsum = _arrays
    return _py_kernel() + float(einsum("nij,jk->nik", a, b).real.sum())


def kernel_s(kernel=_kernel) -> float:
    """Time of one kernel run, in seconds."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def py_scale(duration: float = 0.05) -> float:
    """``REF_PY_KERNEL_S`` over the mean Python-kernel time, run back to back
    for ``duration`` seconds; needs no import beyond the standard library."""
    times = []
    t_end = perf_counter() + duration
    while perf_counter() < t_end:
        times.append(kernel_s(_py_kernel))
    return REF_PY_KERNEL_S * len(times) / sum(times)


class Pace:
    """Kernel timings taken through a run, to scale the run's timings."""

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        k = kernel_s() + kernel_s()
        self.times.append((t0 + perf_counter()) / 2)
        self.kernels.append(k / 2)

    def sample_if_due(self, since: float = SAMPLE_EVERY_S) -> None:
        if not self.times or perf_counter() - self.times[-1] >= since:
            self.sample()

    def scale(self, t: float) -> float:
        """REF_KERNEL_S over the kernel time interpolated at time ``t``."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            k = self.kernels[0]
        elif i == len(self.times):
            k = self.kernels[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            w = (t - t0) / (t1 - t0)
            k = (1 - w) * self.kernels[i - 1] + w * self.kernels[i]
        return REF_KERNEL_S / k
