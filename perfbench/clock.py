"""Reference-speed timing for a shared machine.

On a shared host the CPU speed one process gets drifts by 10-25% over
seconds to minutes as other tenants' load changes, and every raw time
drifts with it. On the 2-vCPU VM the benchmark was tuned on, the raw
median unit times of repeated 20-second runs spread by 9-26%
(interquartile range over median).

So while an operation runs, a small fixed kernel samples the machine's
speed every INTERVAL_S, and once before and once after it. The kernel mixes
BLAS, small FFTs, interpreter-bound row updates and memory streaming in
about equal shares, the kinds of work the freqbal layers do. Other tenants
slow these by different amounts. No change to freqbal can alter the
kernel. The operation is reported in reference seconds: its own seconds
times REFERENCE_S over the mean kernel time. A reference second is a
second on a machine where the kernel takes REFERENCE_S. On that VM this
brought the spreads down to 2-7%.

Time spent sampling is excluded from every duration measured with `now`.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.01
INTERVAL_S = 0.25
_ROUNDS = 13  # about REFERENCE_S on the VM the benchmark was tuned on
_CHUNK = 2**18  # doubles streamed per round, cycling through a 16 MB buffer


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 1024))
        self._b = rng.random((1024, 64))
        self._plane = rng.random((32, 32))
        self._rows = rng.random((2, 96))
        self._stream = rng.random(8 * _CHUNK).reshape(8, _CHUNK)  # larger than a core's share of cache
        self._sink = np.empty(_CHUNK)
        self._paused = 0.0
        for _ in range(10):  # the first runs pay for page faults and lazy set-up
            self._kernel()
        self.kernel_s = []  # every sample, kept for the run's record
        self._sample()

    def _kernel(self) -> float:
        start = time.perf_counter()
        for i in range(_ROUNDS):
            self._a @ self._b
            for _ in range(3):
                np.fft.ifft2(np.fft.fft2(self._plane)).real
            for _ in range(40):
                r0, r1 = self._rows[0].copy(), self._rows[1].copy()
                self._rows[0], self._rows[1] = 0.6 * r0 - 0.8 * r1, 0.8 * r0 + 0.6 * r1
            np.copyto(self._sink, self._stream[i % 8])
        return time.perf_counter() - start

    def _sample(self, *_):
        start = time.perf_counter()
        self.kernel_s.append(self._kernel())
        self._paused += time.perf_counter() - start

    def now(self) -> float:
        """Seconds on a monotonic clock that stops while the kernel samples."""
        return time.perf_counter() - self._paused

    def run(self, fn):
        """Call fn while sampling the speed; returns (value, seconds, reference seconds)."""
        first = len(self.kernel_s) - 1  # the sample taken right before
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = self.now()
        try:
            value = fn()
        finally:
            seconds = self.now() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        speed = REFERENCE_S / statistics.fmean(self.kernel_s[first:])
        return value, seconds, seconds * speed
