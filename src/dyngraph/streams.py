"""Update-stream file format and stream generators.

A stream is UTF-8 text (``read_stream`` skips a leading byte-order mark): one
header line, then one operation per line.

    # n=<int> delta=<int> W=<real> mode=<coloring|cc|msf>
    i <u> <v> [<w>]
    d <u> <v>
    q

Weights appear only in msf mode; unweighted insertions carry weight 1.  Blank
lines and lines whose first token starts with ``#`` are skipped, any
whitespace may separate tokens, and lines may end in CRLF.
``StreamHeader`` checks the header (n >= 0, delta >= 0, a known mode,
1 <= W < inf).  ``parse_stream`` reads a body in ``render_stream``'s exact
layout (the lines above with single spaces, ``"\\n"`` endings and plain
decimal vertex ids, every pair and weight valid) in numpy blocks.  Any other
body goes to one pass that splits one line at a time.  Its first branch
accepts a well-formed line (``i``/``d`` with a pair, a weighted ``i`` in msf
mode, or ``q``), checking the pair (``check_edge``'s rule) and weight inline;
only a refused line is diagnosed, and its first fault (kind, arity, a weight
outside msf mode, pair, weight) is named in a ``StreamFormatError`` at that
line.  Both paths give equal ops.
Generators are seeded and deterministic; the conflict-heavy and adaptive
generators co-simulate the structure under test (with its declared seed),
so the emitted file is an ordinary static stream that reproduces the
adversarial interaction byte for byte.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .cc_random import PhasedCcEstimator
from .coloring import Coloring
from .graph_core import DynamicGraph, UpdateOp, check_edge
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

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.W < math.inf:  # the bound MsfConfig accepts
            raise ValueError(f"W must be finite and >= 1, got {self.W}")


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
    head, _, body = text.partition("\n")
    if head.splitlines() == [head]:  # the header is the text up to its first "\n"
        header = _parse_header(head)
        ops = _parse_blocks(body, header)
        if ops is not None:
            return Stream(header, ops)
    lines = text.splitlines()
    header = _parse_header(lines[0] if lines else "")
    n, W, mode = header.n, header.W, header.mode
    ops = []
    append, query, new = ops.append, UpdateOp("q"), tuple.__new__  # no NamedTuple frame
    for line_no, parts in enumerate(map(str.split, lines[1:]), start=2):
        if not parts:
            continue
        kind, arity = parts[0], len(parts)
        try:
            if arity == 3 and kind in ("i", "d") or arity == 4 and kind == "i" and mode == "msf":
                u, v = int(parts[1]), int(parts[2])
                w = float(parts[3]) if arity == 4 else 1.0
                if u != v and 0 <= u < n and 0 <= v < n and 1.0 <= w <= W:
                    append(new(UpdateOp, (kind, u, v, w)))
                    continue
                check_edge(u, v, n)  # refused: name the pair's fault, else the weight's
                raise ValueError(f"weight {w} outside [1, {W}]")
            if kind == "q" and arity == 1:
                append(query)
                continue
            if kind[0] == "#":
                continue
            raise ValueError(_misshapen(kind, arity, mode))
        except ValueError as exc:
            raise StreamFormatError(line_no, str(exc)) from exc
    return Stream(header, ops)


def _parse_header(line: str) -> StreamHeader:
    """The header that a stream's first line ``line`` declares; a fault names line 1."""
    if not line.startswith("#"):
        raise StreamFormatError(1, "missing header line")
    fields = dict(part.split("=", 1) for part in line.lstrip("# ").split() if "=" in part)
    try:
        return StreamHeader(
            n=int(fields["n"]),
            delta=int(fields.get("delta", 0)),
            W=float(fields.get("W", 1.0)),
            mode=fields.get("mode", "cc"),
        )
    except (KeyError, ValueError) as exc:
        raise StreamFormatError(1, f"bad header: {exc}") from exc


_BLOCK = 1 << 16  # bytes of whole lines per block: bounds the block path's arrays
_DIGIT, _SPACE, _NEWLINE, _KIND, _WEIGHT = 1, 2, 3, 4, 5  # byte classes; 0 declines
_CLASSES = np.zeros(256, dtype=np.uint8)
_CLASSES[list(b"0123456789 \nidq")] = [_DIGIT] * 10 + [_SPACE, _NEWLINE] + [_KIND] * 3
_WEIGHT_CLASSES = _CLASSES.copy()
_WEIGHT_CLASSES[list(b".e+")] = _WEIGHT  # with digits, every repr of a float >= 1
_KINDS_TO_SPACES = bytes.maketrans(b"idq", b"   ")


def _parse_blocks(body: str, header: StreamHeader) -> list[UpdateOp] | None:
    """The ops of the lines after the header, or None unless they are in
    ``render_stream``'s layout and ``parse_stream``'s loop accepts each one.

    The layout: ``i u v``, ``d u v`` and ``q`` lines (``i u v w`` too in msf
    mode), each ended by ``"\\n"``, with single spaces and plain decimal vertex
    ids.  The body is read in blocks of about ``_BLOCK`` bytes of whole lines.
    ``np.fromstring`` reads a block's numbers (as float64 in msf mode, else
    int64) with the parse of ``float`` or ``int``, and refuses a token that it
    cannot read whole, which declines the body.  With ``n <= 2**53`` a vertex
    is exact or, too long to be, out of range: int64 saturates.
    """
    n, W = header.n, header.W
    weighted = header.mode == "msf"
    if n > 2**53 or not body.isascii():
        return None
    classes, dtype = (_WEIGHT_CLASSES, np.float64) if weighted else (_CLASSES, np.int64)
    ops: list[UpdateOp] = []
    start = 0
    while start < len(body):
        end = body.find("\n", start + _BLOCK) + 1 or len(body)
        raw = body[start:end].encode("ascii")
        start = end
        byte = np.frombuffer(raw, dtype=np.uint8)
        c = classes[byte]
        if c[-1] != _NEWLINE or not c.all():
            return None
        space, newline = c == _SPACE, c == _NEWLINE
        ends = np.flatnonzero(newline)
        starts = np.concatenate(([0], ends[:-1] + 1))
        gap = space | newline
        # a kind letter opens each line and stands nowhere else, a space or the
        # line's end follows it, and no token is empty
        if ((c[starts] != _KIND).any() or np.count_nonzero(c == _KIND) != len(ends)
                or not gap[starts + 1].all() or (gap[1:] & gap[:-1]).any()):
            return None
        spaces = np.flatnonzero(space)
        before = np.searchsorted(spaces, ends)  # spaces before each line's end
        counts = np.diff(before, prepend=0)  # numbers on each line
        kind = byte[starts]
        query, four = kind == ord("q"), counts == 3
        arity = np.where(query, counts == 0, (counts == 2) | (four & (kind == ord("i")) & weighted))
        if not arity.all():
            return None
        if weighted:  # weight bytes stand only in a line's fourth token
            at = np.flatnonzero(c == _WEIGHT)
            line_start_spaces = np.concatenate(([0], before))[np.searchsorted(ends, at)]
            if (np.searchsorted(spaces, at) - line_start_spaces != 3).any():
                return None
        values = np.zeros(0, dtype)
        if len(spaces):  # blank text reads as one value
            with warnings.catch_warnings():  # an older numpy only warns at an unread token
                warnings.simplefilter("error", DeprecationWarning)
                try:
                    values = np.fromstring(raw.translate(_KINDS_TO_SPACES), dtype, sep=" ")
                except (DeprecationWarning, ValueError):
                    return None
        if len(values) != len(spaces):
            return None
        first = before - counts  # each line's first number
        pair = ~query
        u, v = values[first[pair]], values[first[pair] + 1]
        if not ((u != v) & (u < n) & (v < n)).all():
            return None
        us = np.full(len(ends), -1)
        vs = us.copy()
        us[pair], vs[pair] = u, v
        weights = repeat(1.0)
        if weighted:
            w = np.ones(len(ends))
            w[four] = values[first[four] + 2]
            if not ((w >= 1.0) & (w <= W)).all():
                return None
            weights = w.tolist()
        ops += map(tuple.__new__, repeat(UpdateOp), zip(
            kind.tobytes().decode("ascii"), us.tolist(), vs.tolist(), weights))
    return ops


def _misshapen(kind: str, arity: int, mode: str) -> str:
    """Why ``parse_stream`` refused a line with this first token and token count."""
    if kind == "q":
        return "query takes no arguments"
    if kind not in ("i", "d"):
        return f"unknown op {kind!r}"
    if kind == "i" and arity == 4:
        return f"weights appear only in msf mode, not {mode}"
    return "insert takes 2 or 3 arguments" if kind == "i" else "delete takes 2 arguments"


def write_stream(stream: Stream, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_stream(stream))


def read_stream(path: str) -> Stream:
    with open(path, encoding="utf-8-sig") as f:
        return parse_stream(f.read())


# ---------------------------------------------------------------------------
# Generators


def _check_sizes(num_ops: int, n: int, delta: int | None, name: str, m: int, spare: int = 0):
    """Reject num_ops < 0, and a ``name`` of m edges that cannot fit with ``spare`` more."""
    if num_ops < 0:
        raise ValueError(f"num_ops must be non-negative, got {num_ops}")
    limit = n * (n - 1) // 2
    if delta is not None:
        limit = min(limit, n * delta // 2)
    if m > limit - spare:
        raise ValueError(f"{name}={m} infeasible (limit {limit - spare})")


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
    header = StreamHeader(n=n, delta=delta, W=W, mode=mode)
    bound = delta if mode == "coloring" else None
    _check_sizes(num_ops, n, bound, "target_m", target_m)
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
    return Stream(header, ops)


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
    header = StreamHeader(n=n, delta=delta, W=W, mode=mode)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    bound = delta if mode == "coloring" else None
    _check_sizes(num_ops, n, bound, "window", window, spare=1)
    rng = np.random.default_rng(seed)
    graph = DynamicGraph(n)
    fifo: deque[tuple[int, int]] = deque()
    ops: list[UpdateOp] = []
    while len(ops) < num_ops:
        if len(fifo) >= window:
            u, v = fifo.popleft()
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
    return Stream(header, ops)


def gen_conflict_heavy(
    n: int,
    num_ops: int,
    target_m: int,
    delta: int,
    seed: int | None = None,
    struct_seed: int = 0,
) -> Stream:
    """Coloring stream biasing insertions toward currently same-colored endpoints.

    Co-simulates the coloring structure with ``struct_seed`` (the seed the
    replay must use) so the bias tracks the actual colors.
    """
    _check_sizes(num_ops, n, delta, "target_m", target_m)
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
    struct_seed: int = 0,
) -> Stream:
    """CC stream from the adaptive adversary co-simulated against the phased estimator.

    The replay must run the estimator with ``struct_seed`` to reproduce the
    interaction the adversary saw.
    """
    _check_sizes(num_ops, n, None, "target_m", target_m)
    rng = np.random.default_rng(seed)
    # the estimator runs from the empty graph, exactly as a replay will
    est = PhasedCcEstimator(DynamicGraph(n), eps_prime, p, seed=struct_seed)
    ops: list[UpdateOp] = []
    warm = gen_random_churn(n, target_m, target_m, mode="cc", seed=seed)
    for op in warm.ops:
        if len(ops) == num_ops:
            break
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
