"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host.  Other tenants switch
it between a quiet state and a loaded one, in which the same code runs
about 1.6 times slower, every few seconds; the medians of raw pass times
of 25-second runs taken minutes apart spread by 20-30% of their value.

So a run times a fixed calibration kernel, which no change to mcergo can
touch, every 0.25 s during each operation (from a SIGALRM handler, which
Python runs between bytecodes of the operation) and once right after it.
The operation's time, less the kernel's, is divided by the kernel's mean
time over those samples.  Times the kernel's reference time (its median
on the host when quiet), that is the operation's time at the host's quiet
speed.  A pass's calibrated time is the sum over its operations.  A change
to mcergo moves it as it moves the raw time, which the run record keeps
next to it.

The kernel mixes what the workloads do, in about equal time: an
interpreted loop (the Monte Carlo walker loops, the harness), small-array
numpy calls (the walker steps, the Philox resets) and dense vector-matrix
products (the exact hitting and mixing scans).
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# Median kernel time on a quiet 2-core Intel Xeon VM with one BLAS thread;
# wall and process CPU time are equal there.
REFERENCE_S = 0.024
SAMPLE_EVERY_S = 0.25  # kernel period during an operation

_N = 512
_rng = np.random.default_rng(12345)
_P = _rng.random((_N, _N))
_P /= _P.sum(axis=1, keepdims=True)
_x = _rng.random(_N)


def kernel():
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    acc = 0
    table = list(range(64))
    for i in range(100_000):
        acc += table[i & 63] * (i % 7)
    v = _x.copy()
    for _ in range(2_500):
        v = np.minimum(v * 0.5 + 0.25, 1.0)
    mu = _x / _x.sum()
    for _ in range(120):
        mu = mu @ _P
    return acc + float(v.sum()) + float(mu.sum())


def after(raw_s: float, samples: int = 3) -> float:
    """Calibrate a short stretch of work (the set-up) that has just ended.

    One kernel run warms its code and data up; the mean of the next
    ``samples`` gives the host's speed.
    """
    kernel()
    walls = []
    for _ in range(samples):
        w0 = time.perf_counter()
        kernel()
        walls.append(time.perf_counter() - w0)
    return raw_s * REFERENCE_S / statistics.fmean(walls)


class Calibration:
    """Raw and calibrated (wall, CPU) time of the operations of one pass."""

    def __init__(self):
        self.raw_wall = self.raw_cpu = self.wall = self.cpu = 0.0
        self.kernel_wall = []  # every kernel sample of the run
        self.kernel_cpu = []
        self._walls, self._cpus = [], []
        self._spent_wall = self._spent_cpu = 0.0
        # a signal mask inherited from the caller would hold every in-operation sample back
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _sample(self, *_signal_args):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self._walls.append(wall)
        self._cpus.append(cpu)
        self._spent_wall += wall
        self._spent_cpu += cpu

    @contextlib.contextmanager
    def op(self):
        """Time one operation, sampling the kernel during it and right after it."""
        self._walls, self._cpus = [], []
        self._spent_wall = self._spent_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent_wall
        cpu -= self._spent_cpu
        self._sample()
        self.kernel_wall += self._walls
        self.kernel_cpu += self._cpus
        self.raw_wall += wall
        self.raw_cpu += cpu
        # the slowdown adds up over the operation's time: divide by the mean
        self.wall += wall * REFERENCE_S / statistics.fmean(self._walls)
        self.cpu += cpu * REFERENCE_S / statistics.fmean(self._cpus)

    def take_pass(self) -> dict:
        """The pass's times since the last call, and start the next pass."""
        sample = {"wall_s": self.wall, "cpu_s": self.cpu,
                  "raw_wall_s": self.raw_wall, "raw_cpu_s": self.raw_cpu}
        self.raw_wall = self.raw_cpu = self.wall = self.cpu = 0.0
        return sample
