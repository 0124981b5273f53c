"""Host-speed probe: fixed pieces of work timed between workload operations.

The benchmark runs on machines whose cores and memory bandwidth are shared
with other tenants. On the 2-core reference host the speed of all code,
numpy kernels and interpreter alike, drifted by up to 1.6x within minutes,
moving every timing of a run together. Every half second of a run, between
two workload operations, the probe times four fixed kinds of work that the
workloads are made of: a BLAS matmul, a memory-bound elementwise pass, an
in-cache elementwise pass and an interpreter loop. Each part is warmed up
first, so the caches the workload left behind do not count. The geometric
mean of the parts' median slowdowns against the reference times is the
run's host slowdown. The end-to-end timings in the result line are divided
by it and the rates multiplied by it, so they read as if measured at
reference speed: a change to persage moves them as much as the raw timings,
drift that slows the probe as much does not. Over ten seeds per workload
this cut the quartile spread of the timings from 4-18% to 4-12% of their
medians. Probe time is left out of the workload timings, and the raw
timings are printed as well.
"""

import time

import numpy as np

# Median time of each part on the reference host (2-core Xeon, OpenBLAS with
# 2 threads) while it ran at its usual speed.
REFERENCE_S = {"blas": 0.6e-3, "memory": 0.4e-3, "cache": 0.27e-3,
               "interpreter": 0.4e-3}
MIN_GAP_S = 0.5


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(808, 197))   # a quarter of a generator batch
        b = rng.normal(size=(197, 64))
        x, y = rng.normal(size=(2, 1 << 18))
        z = np.empty_like(x)
        u, v = rng.normal(size=(2, 1 << 13))
        w = np.empty_like(u)

        def cache():
            for _ in range(50):
                np.multiply(u, v, out=w)

        def interpreter():
            total = 0
            for i in range(6000):
                total += i * i
            return total

        self._parts = {"blas": lambda: a @ b,
                       "memory": lambda: np.multiply(x, y, out=z),
                       "cache": cache, "interpreter": interpreter}
        self.times = {name: [] for name in REFERENCE_S}
        self.spent = 0.0   # seconds spent sampling, for callers to subtract
        self._last = -np.inf

    def sample(self):
        """Time each part: a warm-up call, then the faster of two calls."""
        begin = time.perf_counter()
        for name, part in self._parts.items():
            part()
            best = np.inf
            for _ in range(2):
                start = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - start)
            self.times[name].append(best)
        self._last = time.perf_counter()
        self.spent += self._last - begin

    def maybe_sample(self):
        """Sample unless the last sample is under ``MIN_GAP_S`` old."""
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.sample()

    def medians_ms(self):
        return {name: float(np.median(t)) * 1e3
                for name, t in self.times.items() if t}

    def slowdown(self):
        """Geometric mean over the parts of median time / reference time."""
        if not self.times["blas"]:
            return 1.0
        logs = [np.log(np.median(t) / REFERENCE_S[name])
                for name, t in self.times.items()]
        return float(np.exp(np.mean(logs)))

