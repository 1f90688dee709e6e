"""The benchmark's workloads: inputs from a seed, set-up, closed-loop replay, checks.

Every workload builds its inputs once per run with the ``streams`` generators,
then repeats: set-up (parse the stream text, construct the structure), replay
the updates in a closed loop (one caller, the next update sent only after the
previous call returned, each call timed from outside the library) and check
the outputs against ``oracles`` with the clock stopped.  Exact oracle values
are computed once per run from the generated ops, independently of the
structure under test.  The host-speed kernel (hostspeed.py) is timed around
set-up and at every checkpoint, and each stretch of timed work is scaled by
the kernel times on either side of it.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyngraph import (Coloring, DeterministicMsfEstimator, DynamicGraph,
                      RandomizedMsfEstimator, SmallCcCounter)
from dyngraph import cli, oracles, streams

import hostspeed

HOST = hostspeed.HostSpeed()


@dataclass
class Rep:
    """One repetition: set-up plus a timed replay of the whole stream.

    Times are host-speed scaled (hostspeed.py); ``host_ns`` holds the kernel
    times measured around and inside the repetition.
    """

    updates: int
    wall_ns: float          # timed replay, checks excluded
    lat_ns: np.ndarray      # one per public update call
    setup_s: float
    checks: int
    check_failures: int
    update_failures: int
    work: str               # digest of deterministic outputs; every repetition repeats it
    host_ns: list[int]


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _seeds(seed: int) -> tuple[int, int]:
    """Stream seed and structure seed, both derived from the workload seed."""
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


def _checkpoints(count: int, every: int) -> list[int]:
    """Update indices after which outputs are checked; always includes the last."""
    return sorted({*range(every - 1, count, every), count - 1})


def _updates(ops) -> list:
    return [op for op in ops if op.kind != "q"]


def closed_loop(calls, checkpoints, check, host_ns: list[int], tracer=None):
    """Replay ``calls`` one at a time; ``check(i)`` runs untimed after checkpoint i.

    After each check the host-speed kernel is timed again (appended to
    ``host_ns``, whose last entry must be a time taken just before the
    replay), and the segment since the previous checkpoint is scaled by the
    kernel times on either side of it.  Returns (per-call latencies, timed
    wall ns, calls that raised).
    """
    clock = time.perf_counter_ns
    lat = [0] * len(calls)
    failed = 0
    wall = 0.0
    factors = []  # (first call, end, factor) per segment
    cps = iter(checkpoints)
    next_cp = next(cps, -1)
    if tracer is not None:
        tracer.active = True
    seg = clock()
    for i, (fn, args) in enumerate(calls):
        t0 = clock()
        try:
            fn(*args)
        except Exception:  # a failed update is counted, the replay goes on
            failed += 1
            if failed == 1:
                traceback.print_exc()
        t1 = clock()
        lat[i] = t1 - t0
        if i == next_cp:
            if tracer is not None:
                tracer.active = False
            check(i)
            host_ns.append(HOST.measure())
            factor = hostspeed.factor(host_ns[-2], host_ns[-1])
            wall += (t1 - seg) * factor
            factors.append((factors[-1][1] if factors else 0, i + 1, factor))
            if tracer is not None:
                tracer.active = True
            next_cp = next(cps, -1)
            seg = clock()
    if tracer is not None:
        tracer.active = False
    scaled = np.array(lat, dtype=np.float64)
    for start, end, factor in factors:
        scaled[start:end] *= factor
    return scaled, wall, failed


class _StructureWorkload:
    """A structure driven directly through its public update methods."""

    name = ""

    def setup(self, stream):
        raise NotImplementedError

    def calls(self, stream, struct) -> list:
        raise NotImplementedError

    def check(self, struct, i: int) -> tuple[bool, object]:
        """(passed, a deterministic output to repeat across repetitions)."""
        raise NotImplementedError

    def fingerprint(self, struct) -> tuple:
        return ()

    def rep(self, tracer=None) -> Rep:
        gc.collect()
        host_ns = [HOST.measure()]
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        stream = streams.parse_stream(self.text)
        if tracer is not None:
            tracer.active = False
        struct = self.setup(stream)
        setup_s = time.perf_counter() - t0
        calls = self.calls(stream, struct)
        results = []

        def check(i: int) -> None:
            results.append(self.check(struct, i))

        host_ns.append(HOST.measure())
        setup_s *= hostspeed.factor(host_ns[0], host_ns[1])
        lat, wall, failed = closed_loop(calls, self.checkpoints, check, host_ns, tracer)
        outputs = tuple(out for _, out in results)
        return Rep(updates=len(calls), wall_ns=wall, lat_ns=lat, setup_s=setup_s,
                   checks=len(results),
                   check_failures=sum(not ok for ok, _ in results),
                   update_failures=failed,
                   work=_digest(outputs + self.fingerprint(struct)), host_ns=host_ns)


class ColoringConflict(_StructureWorkload):
    """``Coloring`` (strict) on a conflict-heavy stream, replayed with its struct_seed."""

    name = "coloring-conflict"

    def __init__(self, seed: int, size: dict, workdir: Path):
        stream_seed, self.struct_seed = _seeds(seed)
        self.n, self.delta = size["n"], size["delta"]
        s = streams.gen_conflict_heavy(self.n, size["ops"], size["target_m"], self.delta,
                                       seed=stream_seed, struct_seed=self.struct_seed)
        self.text = streams.render_stream(s)
        ups = _updates(s.ops)
        self.checkpoints = _checkpoints(len(ups), size["check_every"])
        self.edges_at: dict[int, list[tuple[int, int]]] = {}
        live: set[tuple[int, int]] = set()
        cps = set(self.checkpoints)
        for i, op in enumerate(ups):
            key = (op.u, op.v) if op.u < op.v else (op.v, op.u)
            (live.add if op.kind == "i" else live.discard)(key)
            if i in cps:
                self.edges_at[i] = sorted(live)

    def setup(self, stream):
        h = stream.header
        return Coloring(h.n, h.delta, seed=self.struct_seed, strict=True)

    def calls(self, stream, struct):
        ins, dele = struct.insert, struct.delete
        return [(ins if op.kind == "i" else dele, (op.u, op.v)) for op in _updates(stream.ops)]

    def check(self, struct, i):
        colors = [struct.color_of(v) for v in range(self.n)]
        return oracles.is_proper_coloring(self.edges_at[i], colors, self.delta), None

    def fingerprint(self, struct):
        return (struct.recolor_events, struct.total_recolor_work, struct.setcolor_calls)


class _MsfWindow(_StructureWorkload):
    """An MSF estimator on a sliding-window stream, started from the filled window.

    The edges inserted before the first delete become ``initial_edges`` of the
    constructor (set-up); the steady-state rest of the stream is timed.
    """

    def __init__(self, seed: int, size: dict, workdir: Path):
        stream_seed, self.struct_seed = _seeds(seed)
        self.size = size
        self.eps = size["eps"]
        s = streams.gen_sliding_window(size["n"], size["ops"], size["window"], mode="msf",
                                       W=size["W"], seed=stream_seed)
        self.text = streams.render_stream(s)
        initial, ups = self._split(s.ops)
        self.checkpoints = _checkpoints(len(ups), size["check_every"])
        live = {(u, v): w for u, v, w in initial}
        self.exact_at: dict[int, float] = {}
        cps = set(self.checkpoints)
        n = size["n"]
        for i, op in enumerate(ups):
            key = (op.u, op.v) if op.u < op.v else (op.v, op.u)
            if op.kind == "i":
                live[key] = op.w
            else:
                del live[key]
            if i in cps:
                eu = np.fromiter((k[0] for k in live), dtype=np.int64, count=len(live))
                ev = np.fromiter((k[1] for k in live), dtype=np.int64, count=len(live))
                w = np.fromiter(live.values(), dtype=np.float64, count=len(live))
                self.exact_at[i] = oracles.fast_msf_weight(eu, ev, w, n)

    @staticmethod
    def _split(ops):
        first_delete = next((i for i, op in enumerate(ops) if op.kind == "d"), len(ops))
        initial = [(op.u, op.v, op.w) for op in ops[:first_delete] if op.kind == "i"]
        return initial, _updates(ops[first_delete:])

    def calls(self, stream, struct):
        ins, dele = struct.insert, struct.delete
        _, ups = self._split(stream.ops)
        return [(ins, (op.u, op.v, op.w)) if op.kind == "i" else (dele, (op.u, op.v))
                for op in ups]

    def check(self, struct, i):
        est = struct.estimate()
        exact = self.exact_at[i]
        return abs(est - exact) <= self.eps * exact, est


class MsfDetWindow(_MsfWindow):
    name = "msf-det-window"

    def setup(self, stream):
        initial, _ = self._split(stream.ops)
        return DeterministicMsfEstimator(stream.header.n, self.eps, stream.header.W,
                                         initial_edges=initial)


class MsfRandWindow(_MsfWindow):
    name = "msf-rand-window"

    def setup(self, stream):
        initial, _ = self._split(stream.ops)
        return RandomizedMsfEstimator(stream.header.n, self.eps, stream.header.W,
                                      self.size["p"], seed=self.struct_seed,
                                      initial_edges=initial, use_fast_sizes=True)


class VerifyCcExact:
    """The ``dyngraph run --algo cc-exact --check-every 1`` user path, via ``cli.main``."""

    name = "verify-cc-exact"

    def __init__(self, seed: int, size: dict, workdir: Path):
        stream_seed, _ = _seeds(seed)
        self.n, self.eps = size["n"], size["eps"]
        s = streams.gen_random_churn(self.n, size["ops"], size["target_m"], mode="cc",
                                     seed=stream_seed)
        self.text = streams.render_stream(s)
        self.rows = len(s.ops)  # check-every 1 writes one row per op, queries included
        self.updates = len(_updates(s.ops))
        self.stream_path = workdir / "verify-cc-exact.txt"
        self.stream_path.write_text(self.text, encoding="utf-8")
        self.csv_path = workdir / "verify-cc-exact.csv"
        self.argv = ["run", "--algo", "cc-exact", "--check-every", "1",
                     "--eps", repr(self.eps), "--stream", str(self.stream_path),
                     "--out", str(self.csv_path)]

    def rep(self, tracer=None) -> Rep:
        gc.collect()
        host_ns = [HOST.measure()]
        t0 = time.perf_counter()
        stream = streams.parse_stream(self.text)
        SmallCcCounter(DynamicGraph(stream.header.n), self.eps)
        setup_s = time.perf_counter() - t0
        host_ns.append(HOST.measure())
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter_ns()
            code = cli.main(self.argv)
            wall = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
        host_ns.append(HOST.measure())
        factor = hostspeed.factor(host_ns[1], host_ns[2])
        with open(self.csv_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        bad_rows = sum(float(r["abs_err"]) != 0.0 for r in rows)
        # the exit code and the row count are checks of their own
        failures = bad_rows + (code != 0) + (len(rows) != self.rows)
        lat = np.array([int(r["nanos"]) for r in rows if r["op"] != "q"], dtype=np.float64)
        return Rep(updates=self.updates, wall_ns=wall * factor, lat_ns=lat * factor,
                   setup_s=setup_s * hostspeed.factor(host_ns[0], host_ns[1]),
                   checks=len(rows) + 2, check_failures=failures, update_failures=0,
                   work=_digest([(r["estimate"], r["work"]) for r in rows]), host_ns=host_ns)


WORKLOADS = {w.name: w for w in (ColoringConflict, MsfDetWindow, MsfRandWindow, VerifyCcExact)}

SIZES = {
    "coloring-conflict": {"n": 2000, "target_m": 8000, "delta": 16, "ops": 30000,
                          "check_every": 2500},
    "msf-det-window": {"n": 2000, "window": 2000, "ops": 4000, "W": 4.0, "eps": 0.25,
                       "check_every": 250},
    "msf-rand-window": {"n": 8000, "window": 4000, "ops": 5000, "W": 4.0, "eps": 0.5,
                        "p": 0.05, "check_every": 50},
    "verify-cc-exact": {"n": 1000, "target_m": 750, "ops": 2000, "eps": 0.1},
}
