"""The host's speed while a workload runs, from a fixed kernel sampled on a timer.

On a shared host the same code runs up to about 1.5 times faster or slower
for stretches of seconds to minutes, as other tenants load the shared cores
and caches; process CPU time follows wall time, so it is the speed of
execution that changes, not the share of the CPU. Raw round times therefore
spread between runs by more than any useful regression bound. ``Sampler``
interrupts the workload every ``INTERVAL_S`` of wall time (SIGALRM) and
times ``kernel()``, a fixed mix of the kinds of work ctrlcost does. The
kernel imports nothing from ctrlcost, so no change to the program changes
it.

A round's time at reference speed is its measured time, less the time spent
in the kernel, times ``REFERENCE_S / mean kernel time`` over the samples
taken during the round. ``REFERENCE_S`` is about the kernel's median time
on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4; it only sets the scale, so
values read as seconds on that host.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 4.5e-3

_SMALL = np.linspace(-1.0, 1.0, 512)
_PAIRS = np.tile(np.eye(2, dtype=complex) * (0.9 + 0.1j), (256, 1, 1))
_LARGE = np.linspace(-1.0, 1.0, 1 << 16)
_STEP = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_STATES = np.empty((700, 2), dtype=complex)


def kernel() -> float:
    """Run the fixed kernel once (about 4.5 ms); its wall time in seconds.

    Its four parts take roughly 10, 30, 20 and 40% of it: interpreted
    arithmetic; numpy on 512-point arrays with stacked 2x2 complex products,
    as in the final-state step product; numpy on 65,536-point arrays, as in
    ramp evaluation and quadrature; and one 2x2 product per interpreted
    step, as in the stored-trajectory step loop.
    """
    start = perf_counter()
    s = 0.0
    for i in range(5000):
        s += i * 0.5
    for _ in range(15):
        m = np.sqrt(_SMALL * _SMALL + 0.01)
        s += float((np.sin(m) / m).sum())
        np.matmul(_PAIRS[1::2], _PAIRS[0::2])
    m = np.sqrt(_LARGE * _LARGE + 0.01)
    s += float((np.sin(m) / m).sum())
    psi = np.array([1.0 + 0j, 0.0])
    for k in range(len(_STATES)):
        psi = _STEP @ psi
        _STATES[k] = psi
    return perf_counter() - start


def factor(kernel_s: list) -> float:
    """Reference seconds per measured second, from kernel times."""
    return REFERENCE_S / statistics.fmean(kernel_s)


class Sampler:
    """Times ``kernel()`` every INTERVAL_S of wall time and keeps what it cost."""

    def __init__(self):
        self.kernel_s = []
        self.wall_s = 0.0   # wall and CPU time spent in the samples
        self.cpu_s = 0.0

    def _tick(self, signum, frame):
        wall0, cpu0 = perf_counter(), process_time()
        self.kernel_s.append(kernel())
        self.wall_s += perf_counter() - wall0
        self.cpu_s += process_time() - cpu0

    def start(self) -> None:
        kernel()  # first call warms numpy's ufunc loops
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.kernel_s), self.wall_s, self.cpu_s

    def scale(self, mark: tuple, wall_s: float, cpu_s: float) -> dict:
        """A span's wall and CPU time at reference speed, from the samples since mark."""
        n, wall0, cpu0 = mark
        samples = self.kernel_s[n:] or [kernel()]
        f = factor(samples)
        wall = wall_s - (self.wall_s - wall0)
        cpu = cpu_s - (self.cpu_s - cpu0)
        return {"wall_s": wall * f, "cpu_s": cpu * f, "raw_wall_s": wall, "raw_cpu_s": cpu,
                "kernel_ms": 1e3 * statistics.fmean(samples), "samples": len(samples)}
