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

import math
from dataclasses import dataclass, field

import numpy as np

from .cc_random import PhasedCcEstimator
from .coloring import Coloring
from .graph_core import DynamicGraph, UpdateOp
from .oracles import fast_component_labels, fast_ncc

MODES = ("coloring", "cc", "msf")

_CONFLICT_CANDIDATES = 12  # non-edges gen_conflict_heavy draws per insert
_ADVERSARY_CANDIDATES = 8  # edges adaptive_adversary_step weighs per delete


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
    if not math.isfinite(header.W):
        raise StreamFormatError(1, f"W must be finite, got {header.W}")
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


def _sample_insert(rng, n, graph, delta, tries=64):
    """A uniform non-edge respecting the degree bound, or None."""
    for _ in range(tries):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if delta and (graph.degree(u) >= delta or graph.degree(v) >= delta):
            continue
        if graph.has_edge(u, v):
            continue
        return (u, v) if u < v else (v, u)
    return None


def _random_edge(graph: DynamicGraph, rng: np.random.Generator) -> tuple[int, int]:
    """A uniform edge of a non-empty graph, drawn by position in its edge list."""
    eu, ev = graph.edge_view()
    i = int(rng.integers(0, graph.m))
    return int(eu[i]), int(ev[i])


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
    if not 1 <= W < math.inf:  # the bound MsfConfig and run accept
        raise ValueError(f"W must be finite and >= 1, got {W}")
    bound = delta if mode == "coloring" else None
    _check_density(n, target_m, bound)
    rng = np.random.default_rng(seed)
    graph = DynamicGraph(n)
    ops: list[UpdateOp] = []
    warmed = False
    for _ in range(num_ops):
        warmed = warmed or graph.m >= target_m
        if not warmed:
            do_insert = True  # build up to the target density first
        else:
            do_insert = graph.m < target_m and rng.random() < 0.5
        if do_insert:
            key = _sample_insert(rng, n, graph, bound)
            if key is None:
                do_insert = False
        if do_insert:
            u, v = key
            graph.insert_edge(u, v)
            ops.append(UpdateOp("i", u, v, _draw_weight(rng, W, integer_weights)))
        elif graph.m:
            u, v = _random_edge(graph, rng)
            graph.delete_edge(u, v)
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
    if not 1 <= W < math.inf:  # the bound MsfConfig and run accept
        raise ValueError(f"W must be finite and >= 1, got {W}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    bound = delta if mode == "coloring" else None
    _check_density(n, window + 1, bound)
    rng = np.random.default_rng(seed)
    graph = DynamicGraph(n)
    fifo: list[tuple[int, int]] = []
    ops: list[UpdateOp] = []
    while len(ops) < num_ops:
        if len(fifo) >= window:
            u, v = fifo.pop(0)
            graph.delete_edge(u, v)
            ops.append(UpdateOp("d", u, v))
            if len(ops) == num_ops:
                break
        key = _sample_insert(rng, n, graph, bound)
        if key is None:
            ops.append(UpdateOp("q"))
            continue
        u, v = key
        graph.insert_edge(u, v)
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
) -> Stream:
    """Coloring stream biasing insertions toward currently same-colored endpoints.

    Co-simulates the coloring structure with ``struct_seed`` (the seed the
    replay must use) so the bias tracks the actual colors.
    """
    _check_density(n, target_m, delta)
    rng = np.random.default_rng(seed)
    struct = Coloring(n, delta, seed=struct_seed)
    graph = DynamicGraph(n)
    ops: list[UpdateOp] = []
    for _ in range(num_ops):
        if graph.m < target_m:
            best = None
            for _ in range(_CONFLICT_CANDIDATES):
                key = _sample_insert(rng, n, graph, delta, tries=16)
                if key is None:
                    continue
                if best is None:
                    best = key
                if struct.color_of(key[0]) == struct.color_of(key[1]):
                    best = key
                    break
            if best is not None:
                u, v = best
                graph.insert_edge(u, v)
                struct.insert(u, v)
                ops.append(UpdateOp("i", u, v))
                continue
        if graph.m:
            u, v = _random_edge(graph, rng)
            graph.delete_edge(u, v)
            struct.delete(u, v)
            ops.append(UpdateOp("d", u, v))
        else:
            ops.append(UpdateOp("q"))
    return Stream(StreamHeader(n=n, delta=delta, W=1.0, mode="coloring"), ops)


def adaptive_adversary_step(
    graph: DynamicGraph,
    estimate: float,
    rng: np.random.Generator,
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
    labels = fast_component_labels(eu, ev, n)
    truth = int(np.count_nonzero(labels == np.arange(n)))  # each root labels itself
    if estimate >= truth:
        for _ in range(32):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v and labels[u] != labels[v]:
                return UpdateOp("i", u, v)
        return None
    if graph.m == 0:
        return None
    picked = [_random_edge(graph, rng) for _ in range(min(_ADVERSARY_CANDIDATES, graph.m))]
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
    rng = np.random.default_rng(seed)
    # the estimator runs from the empty graph, exactly as a replay will
    est = PhasedCcEstimator(DynamicGraph(n), eps_prime, p, seed=struct_seed)
    ops: list[UpdateOp] = []
    warm = gen_random_churn(n, target_m, target_m, mode="cc", seed=seed)
    for op in warm.ops:
        if op.kind == "i" and est.on_update(op):
            ops.append(op)
    while len(ops) < num_ops:
        op = adaptive_adversary_step(est.graph, est.estimate(), rng)
        if op is None:
            ops.append(UpdateOp("q"))
            continue
        est.on_update(op)
        ops.append(op)
    return Stream(StreamHeader(n=n, delta=0, W=1.0, mode="cc"), ops)
