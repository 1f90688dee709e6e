"""Host-speed calibration for the benchmark's timings.

On the shared 2-vCPU host the benchmark was built on, the same code ran up to
1.6 times slower for ten seconds and more at a time, and every layer slowed
together; the kernel below slowed by the same factor (measured beside the
msf-det-window replay).  No run length or statistic removes that from raw
wall times.  So this fixed kernel, independent of dyngraph and of the
workload seed, is timed around every set-up and at every checkpoint of a
replay, and each stretch of timed work is scaled by ``REF_NS`` over the
kernel's time on either side of it: times read as they would on a host where
the kernel takes 0.7 ms.  The kernel mixes what the workloads spend their
time on: set-based graph traversal and dict iteration in the interpreter, and
NumPy random gathers.
"""

from __future__ import annotations

import time

import numpy as np

REF_NS = 700_000
_N = 1300


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(20190710)
        ends = rng.integers(0, _N, size=(4 * _N, 2)).tolist()
        self.adj: list[set[int]] = [set() for _ in range(_N)]
        for u, v in ends:
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.book = {v: len(self.adj[v]) for v in range(_N)}
        self.values = rng.integers(1, 100, size=_N)
        self.picks = rng.integers(0, _N, size=20 * _N)

    def kernel(self) -> int:
        adj = self.adj
        mark = [0] * _N
        mark[0] = 1
        queue = [0]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for w in adj[x]:
                if not mark[w]:
                    mark[w] = 1
                    queue.append(w)
        total = sum(d for v, d in self.book.items() if mark[v])
        return total + int(self.values[self.picks].sum())

    def measure(self) -> int:
        """Fastest of three kernel calls, in ns."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            self.kernel()
            times.append(time.perf_counter_ns() - t0)
        return min(times)


def factor(before_ns: int, after_ns: int) -> float:
    """Scale for times taken between two kernel measurements."""
    return 2 * REF_NS / (before_ns + after_ns)
