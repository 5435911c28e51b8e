"""Machine-speed calibration for the psc benchmark.

On a shared machine, the speed of pure-Python code drifts by a quarter or
more over tens of seconds, as other tenants come and go.  The benchmark
times a fixed kernel that does the same kind of work as psc (set unions over
adjacency sets, dict and list building, sorting) but uses none of its code,
between jobs and outside the timed region.  Timings are then scaled by
``NOMINAL_S / median(kernel times nearby)``: they read as seconds on a
machine where the kernel takes NOMINAL_S.  A change to psc cannot move the
kernel, so the scaling cancels drift without hiding a change.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_S = 0.0045  # kernel time at the reference speed
_N = 3000


class Calibration:
    def __init__(self):
        rng = random.Random(0)
        adj = [set() for _ in range(_N)]
        for v in range(_N):
            for u in rng.sample(range(_N), 3):
                if u != v:
                    adj[v].add(u)
                    adj[u].add(v)
        self._adj = [frozenset(a) for a in adj]
        self.samples = []

    def measure(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter()
            balls = []
            for v in range(0, _N, 6):
                ball = set()
                for u in self._adj[v]:
                    ball.add(u)
                    ball.update(self._adj[u])
                balls.append(frozenset(ball))
            index = {(i, len(b)): sorted(b)[:3] for i, b in enumerate(balls)}
            self.samples.append(time.perf_counter() - t0)
            del index

    def factor(self):
        """Scale factor from wall seconds to reference seconds, from the
        samples taken since the last call; the samples are then cleared."""
        f = NOMINAL_S / statistics.median(self.samples)
        self.samples = []
        return f
