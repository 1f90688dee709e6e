"""Update-stream file format and stream generators.

A stream is UTF-8 text: one header line, then one operation per line.

    # n=<int> delta=<int> W=<real> mode=<coloring|cc|msf>
    i <u> <v> [<w>]
    d <u> <v>
    q

Weights appear only in msf mode; unweighted insertions carry weight 1.
Generators are seeded and deterministic; the conflict-heavy and adaptive
generators co-simulate the structure under test (with its declared seed),
so the emitted file is an ordinary static stream that reproduces the
adversarial interaction byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .coloring import Coloring
from .graph_core import DynamicGraph, UpdateOp
from .oracles import fast_component_labels, fast_ncc

MODES = ("coloring", "cc", "msf")


class StreamFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class StreamHeader:
    n: int
    delta: int = 0
    W: float = 1.0
    mode: str = "cc"


@dataclass
class Stream:
    header: StreamHeader
    ops: list[UpdateOp] = field(default_factory=list)


def render_stream(stream: Stream) -> str:
    h = stream.header
    lines = [f"# n={h.n} delta={h.delta} W={h.W!r} mode={h.mode}"]
    weighted = h.mode == "msf"
    for op in stream.ops:
        if op.kind == "q":
            lines.append("q")
        elif op.kind == "i" and weighted:
            lines.append(f"i {op.u} {op.v} {op.w!r}")
        else:
            lines.append(f"{op.kind} {op.u} {op.v}")
    return "\n".join(lines) + "\n"


def parse_stream(text: str) -> Stream:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise StreamFormatError(1, "missing header line")
    fields = dict(
        part.split("=", 1) for part in lines[0].lstrip("# ").split() if "=" in part
    )
    try:
        header = StreamHeader(
            n=int(fields["n"]),
            delta=int(fields.get("delta", 0)),
            W=float(fields.get("W", 1.0)),
            mode=fields.get("mode", "cc"),
        )
    except (KeyError, ValueError) as exc:
        raise StreamFormatError(1, f"bad header: {exc}") from exc
    if header.mode not in MODES:
        raise StreamFormatError(1, f"unknown mode {header.mode!r}")
    ops: list[UpdateOp] = []
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "q":
                if len(parts) != 1:
                    raise ValueError("query takes no arguments")
                ops.append(UpdateOp("q"))
                continue
            if kind == "i":
                if len(parts) == 4:
                    op = UpdateOp("i", int(parts[1]), int(parts[2]), float(parts[3]))
                elif len(parts) == 3:
                    op = UpdateOp("i", int(parts[1]), int(parts[2]))
                else:
                    raise ValueError("insert takes 2 or 3 arguments")
            elif kind == "d":
                if len(parts) != 3:
                    raise ValueError("delete takes 2 arguments")
                op = UpdateOp("d", int(parts[1]), int(parts[2]))
            else:
                raise ValueError(f"unknown op {kind!r}")
        except ValueError as exc:
            raise StreamFormatError(idx, str(exc)) from exc
        if not (0 <= op.u < header.n and 0 <= op.v < header.n):
            raise StreamFormatError(idx, f"vertex out of range on {line!r}")
        if op.kind == "i" and not 1.0 <= op.w <= header.W:
            raise StreamFormatError(idx, f"weight {op.w} outside [1, {header.W}]")
        ops.append(op)
    return Stream(header, ops)


def write_stream(stream: Stream, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_stream(stream))


def read_stream(path: str) -> Stream:
    with open(path, encoding="utf-8") as f:
        return parse_stream(f.read())


# ---------------------------------------------------------------------------
# Generators


class _EdgePool:
    """Current edge set with per-vertex degrees, O(1) random choice and deletion."""

    def __init__(self) -> None:
        self.edges: list[tuple[int, int]] = []
        self.pos: dict[tuple[int, int], int] = {}
        self.degree: Counter[int] = Counter()

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.pos

    def add(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        self.pos[key] = len(self.edges)
        self.edges.append(key)
        self.degree[u] += 1
        self.degree[v] += 1

    def remove(self, key: tuple[int, int]) -> None:
        i = self.pos.pop(key)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.pos[last] = i
        self.degree[key[0]] -= 1
        self.degree[key[1]] -= 1

    def choice(self, rng: np.random.Generator) -> tuple[int, int]:
        return self.edges[int(rng.integers(0, len(self.edges)))]


def _check_density(n: int, target_m: int, delta: int | None) -> None:
    limit = n * (n - 1) // 2
    if delta is not None:
        limit = min(limit, n * delta // 2)
    if target_m > limit:
        raise ValueError(f"target_m={target_m} infeasible (limit {limit})")


def _draw_weight(rng: np.random.Generator, W: float, integer_weights: bool) -> float:
    if W == 1.0:
        return 1.0
    if integer_weights:
        return float(rng.integers(1, int(W) + 1))
    return 1.0 + float(rng.random()) * (W - 1.0)


def _sample_insert(rng, n, pool, delta, tries=64):
    """A uniform non-edge respecting the degree bound, or None."""
    for _ in range(tries):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if delta and (pool.degree[u] >= delta or pool.degree[v] >= delta):
            continue
        key = (u, v) if u < v else (v, u)
        if key in pool:
            continue
        return key
    return None


def gen_random_churn(
    n: int,
    num_ops: int,
    target_m: int,
    mode: str = "cc",
    delta: int = 0,
    W: float = 1.0,
    integer_weights: bool = False,
    seed: int | None = None,
) -> Stream:
    """Insert up to target_m edges, then mix inserts and deletes 50/50."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    bound = delta if mode == "coloring" else None
    _check_density(n, target_m, bound)
    rng = np.random.default_rng(seed)
    pool = _EdgePool()
    ops: list[UpdateOp] = []
    warmed = False
    for _ in range(num_ops):
        warmed = warmed or len(pool) >= target_m
        if not warmed:
            do_insert = True  # build up to the target density first
        else:
            do_insert = len(pool) < target_m and rng.random() < 0.5
        if do_insert:
            key = _sample_insert(rng, n, pool, bound)
            if key is None:
                do_insert = False
        if do_insert:
            u, v = key
            pool.add(u, v)
            ops.append(UpdateOp("i", u, v, _draw_weight(rng, W, integer_weights)))
        elif len(pool) > 0:
            u, v = pool.choice(rng)
            pool.remove((u, v))
            ops.append(UpdateOp("d", u, v))
        else:
            ops.append(UpdateOp("q"))
    return Stream(StreamHeader(n=n, delta=delta, W=W, mode=mode), ops)


def gen_sliding_window(
    n: int,
    num_ops: int,
    window: int,
    mode: str = "cc",
    delta: int = 0,
    W: float = 1.0,
    integer_weights: bool = False,
    seed: int | None = None,
) -> Stream:
    """Each step inserts a fresh edge; past the window, the oldest is deleted first."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    bound = delta if mode == "coloring" else None
    _check_density(n, window + 1, bound)
    rng = np.random.default_rng(seed)
    pool = _EdgePool()
    fifo: list[tuple[int, int]] = []
    ops: list[UpdateOp] = []
    while len(ops) < num_ops:
        if len(fifo) >= window:
            u, v = fifo.pop(0)
            pool.remove((u, v))
            ops.append(UpdateOp("d", u, v))
            if len(ops) == num_ops:
                break
        key = _sample_insert(rng, n, pool, bound)
        if key is None:
            ops.append(UpdateOp("q"))
            continue
        u, v = key
        pool.add(u, v)
        fifo.append(key)
        ops.append(UpdateOp("i", u, v, _draw_weight(rng, W, integer_weights)))
    return Stream(StreamHeader(n=n, delta=delta, W=W, mode=mode), ops)


def gen_conflict_heavy(
    n: int,
    num_ops: int,
    target_m: int,
    delta: int,
    seed: int | None = None,
    struct_seed: int | None = None,
    candidates: int = 12,
) -> Stream:
    """Coloring stream biasing insertions toward currently same-colored endpoints.

    Co-simulates the coloring structure with ``struct_seed`` (the seed the
    replay must use) so the bias tracks the actual colors.
    """
    _check_density(n, target_m, delta)
    rng = np.random.default_rng(seed)
    struct = Coloring(n, delta, seed=struct_seed)
    pool = _EdgePool()
    ops: list[UpdateOp] = []
    for _ in range(num_ops):
        if len(pool) < target_m:
            best = None
            for _ in range(candidates):
                key = _sample_insert(rng, n, pool, delta, tries=16)
                if key is None:
                    continue
                if best is None:
                    best = key
                if struct.color_of(key[0]) == struct.color_of(key[1]):
                    best = key
                    break
            if best is not None:
                u, v = best
                pool.add(u, v)
                struct.insert(u, v)
                ops.append(UpdateOp("i", u, v))
                continue
        if len(pool) > 0:
            u, v = pool.choice(rng)
            pool.remove((u, v))
            struct.delete(u, v)
            ops.append(UpdateOp("d", u, v))
        else:
            ops.append(UpdateOp("q"))
    return Stream(StreamHeader(n=n, delta=delta, W=1.0, mode="coloring"), ops)


def adaptive_adversary_step(
    graph: DynamicGraph,
    estimate: float,
    rng: np.random.Generator,
    pool: _EdgePool,
    candidates: int = 8,
) -> UpdateOp | None:
    """One move of the scripted adaptive adversary against a CC estimator.

    Reads the current estimate, compares it with the exact component count,
    and picks the update that widens the gap: a cross-component insertion
    when the estimate is too high, otherwise the deletion (among a random
    candidate set) whose removal increases the component count most.
    Returns None when no legal move exists.
    """
    n = graph.n
    eu, ev = graph.edge_view()
    truth = fast_ncc(eu, ev, n)
    if estimate >= truth:
        labels = fast_component_labels(eu, ev, n)
        for _ in range(32):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v and labels[u] != labels[v]:
                return UpdateOp("i", u, v)
        return None
    if len(pool) == 0:
        return None
    picked = [pool.choice(rng) for _ in range(min(candidates, len(pool)))]
    for key in picked:
        # a leaf edge is always a bridge: removal gains the maximum +1
        if graph.degree(key[0]) == 1 or graph.degree(key[1]) == 1:
            return UpdateOp("d", key[0], key[1])
    best_key = None
    best_gain = -1
    for key in picked[:4]:
        mask = ~((eu == key[0]) & (ev == key[1]))
        gain = fast_ncc(eu[mask], ev[mask], n) - truth
        if gain > best_gain:
            best_gain = gain
            best_key = key
    return UpdateOp("d", best_key[0], best_key[1])


def gen_adaptive_script(
    n: int,
    num_ops: int,
    target_m: int,
    eps_prime: float,
    p: float,
    seed: int | None = None,
    struct_seed: int | None = None,
) -> Stream:
    """CC stream from the adaptive adversary co-simulated against the phased estimator.

    The replay must run the estimator with ``struct_seed`` to reproduce the
    interaction the adversary saw.
    """
    from .cc_random import PhasedCcEstimator  # cycle guard

    rng = np.random.default_rng(seed)
    graph = DynamicGraph(n)
    pool = _EdgePool()
    ops: list[UpdateOp] = []
    # the estimator runs from the empty graph, exactly as a replay will
    est = PhasedCcEstimator(graph, eps_prime, p, thr0=0, seed=struct_seed,
                            use_fast_sizes=True)
    warm = gen_random_churn(n, target_m, target_m, mode="cc", seed=seed)
    for op in warm.ops:
        if op.kind == "i":
            thr = graph.nis
            if graph.insert_edge(op.u, op.v):
                pool.add(op.u, op.v)
                ops.append(op)
                est.on_update(op, thr)
    while len(ops) < num_ops:
        thr = graph.nis
        op = adaptive_adversary_step(graph, est.estimate(), rng, pool)
        if op is None:
            ops.append(UpdateOp("q"))
            continue
        if op.kind == "i":
            graph.insert_edge(op.u, op.v)
            pool.add(op.u, op.v)
        else:
            graph.delete_edge(op.u, op.v)
            pool.remove((op.u, op.v) if op.u < op.v else (op.v, op.u))
        est.on_update(op, thr)
        ops.append(op)
    return Stream(StreamHeader(n=n, delta=0, W=1.0, mode="cc"), ops)
