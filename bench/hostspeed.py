"""A fixed probe of how fast the host runs this process right now.

On a host shared with other work, the speed of one process moves by up
to 2x in spells of seconds to minutes; every timing in a run moves with
it (library import, set-up and solves alike).  The probe is a fixed
piece of work of the kind the solver does (small dense solves, numpy
calls on tiny arrays, Python loops over dicts) that touches no pdqp
code, so a change to the solver cannot change its time.  The benchmark
runs it between solves at a steady cadence and scales its timings by
``REFERENCE_S / median probe time``: the time the run would have taken
on a host where the probe takes ``REFERENCE_S``.  Raw wall times are
reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# A round value near the probe's median time on the host the benchmark
# was defined on (2 vCPUs of a shared Xeon); any fixed value gives the
# same ratios between runs and commits.
REFERENCE_S = 0.010
BURST = 3            # probes per sample point
EVERY_S = 0.5        # solving time between sample points


def _data():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(6, 6)) + 6.0 * np.eye(6) for _ in range(40)]
    vecs = [rng.normal(size=6) for _ in range(40)]
    return mats, vecs


class HostSpeed:
    """Probe times of one phase of a run."""

    def __init__(self):
        self._mats, self._vecs = _data()
        self.times: list[float] = []
        self._last = perf_counter()
        self.once()   # warm numpy's dispatch caches; not recorded
        self.times.clear()

    def once(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        for _ in range(15):
            for a, b in zip(self._mats, self._vecs):
                x = np.linalg.solve(a, b)
                acc += float(x @ b)
                d = {}
                for i in range(30):
                    d[i] = i * acc
                acc += sum(d.values()) * 1e-12
        t = perf_counter() - t0
        self.times.append(t)
        return t

    def sample(self):
        for _ in range(BURST):
            self.once()
        self._last = perf_counter()

    def maybe_sample(self):
        """Sample when ``EVERY_S`` has passed since the last sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiply a time by this to scale it to the reference speed."""
        return REFERENCE_S / statistics.median(self.times)

    def summary(self) -> dict:
        return {"probes": len(self.times),
                "median_s": statistics.median(self.times),
                "factor": self.factor()}
