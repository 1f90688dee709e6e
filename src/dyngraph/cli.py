"""Command-line driver: generate streams, replay them with oracle checks, benchmark.

Exit codes: 0 on success, 1 when a hard guarantee was violated during a run,
2 on input errors (bad arguments, malformed stream files).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time
from operator import attrgetter

import numpy as np

from .cc_exact import SmallCcCounter
from .cc_random import PhasedCcEstimator
from .coloring import Coloring, InvariantError
from .graph_core import DynamicGraph, UpdateOp
from .msf_weight import DeterministicMsfEstimator, RandomizedMsfEstimator
from . import oracles, streams

ALGOS = ("coloring", "cc-exact", "cc-random", "msf-det", "msf-rand")

CSV_COLUMNS = ["step", "op", "estimate", "exact", "abs_err", "allowed_err", "work", "nanos"]
# a run row as csv.writer writes it: no field of a run row can need quoting
RUN_ROW = "%d,%s,%.6f,%.6f,%.6f,%.6f,%d,%d\r\n"
BENCH_COLUMNS = ["stream", "delta", "W", "eps", "repeat", "ops", "mean_ns", "p50_ns",
                 "p99_ns", "mean_work", "p99_work", "max_work"]


def _output(path: str | None):
    """The CSV's file: ``path``, opened for writing, or else stdout, left open."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "random-churn":
        stream = streams.gen_random_churn(
            args.n, args.ops, args.target_m, mode=args.mode, delta=args.delta,
            W=args.W, integer_weights=args.int_weights, seed=args.seed)
    elif kind == "sliding-window":
        stream = streams.gen_sliding_window(
            args.n, args.ops, args.window, mode=args.mode, delta=args.delta,
            W=args.W, integer_weights=args.int_weights, seed=args.seed)
    elif kind == "conflict-heavy":
        stream = streams.gen_conflict_heavy(
            args.n, args.ops, args.target_m, args.delta,
            seed=args.seed, struct_seed=args.struct_seed)
    elif kind == "adaptive-script":
        stream = streams.gen_adaptive_script(
            args.n, args.ops, args.target_m, args.eps, args.p,
            seed=args.seed, struct_seed=args.struct_seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    streams.write_stream(stream, args.out)
    print(f"wrote {len(stream.ops)} ops to {args.out}")
    return 0


class _Replay:
    """One algorithm's structure, replayed one update at a time.

    ``__init__`` binds, once, the structure's own update method and how to
    read its arguments from an op (``update``, by op kind), its cumulative work
    counter (``work``) and its checkpoint check.  ``timed_apply`` reads the
    arguments and binds the clock before it starts, so ``nanos`` times the
    structure's method alone, with no lookup inside the window.  Given
    ``check_every`` (``run``) it lists ``_schedule`` once (``schedule``, which
    the replay loop walks) and builds what the checkpoints read: for cc-exact,
    cc-random, msf-det and msf-rand the exact value at each checked step
    (``exact``), from one offline pass over the stream
    (``oracles.small_component_counts`` or ``oracles.msf_weights``); for
    coloring a shadow edge store, which ``mirror`` writes outside the timed
    call; ``bench`` keeps neither.  A checkpoint miss sets ``violation``,
    which ends the run, or for cc-random and msf-rand (``soft``) counts in
    ``soft_violations``.  ``checkpoint`` formats its row once, with ``RUN_ROW``.
    """

    def __init__(self, algo: str, stream: streams.Stream, eps: float, p: float,
                 seed: int | None, check_every: int | None = None):
        h = stream.header
        self.eps = eps
        self.soft = algo in ("cc-random", "msf-rand")
        self.soft_violations = 0
        self.violation = ""
        self.shadow: DynamicGraph | None = None
        self.exact: dict[int, float] = {}
        self.schedule: list[tuple[int, UpdateOp, bool]] = []
        exact = None  # the offline pass: steps -> exact value at each step
        pair = attrgetter("u", "v")
        if algo == "coloring":
            if h.mode != "coloring" or h.delta < 1:
                raise ValueError("coloring run needs a coloring-mode stream with delta>=1")
            s = Coloring(h.n, h.delta, seed=seed)
            insert, delete = (s.insert, pair), (s.delete, pair)
            work = lambda: s.total_recolor_work
            check = self._check_coloring
        elif algo == "cc-exact":
            s = SmallCcCounter(DynamicGraph(h.n), eps)
            insert, delete = (s.on_insert, pair), (s.on_delete, pair)
            work = lambda: s.bfs_calls
            check = self._check_cc
            exact = lambda steps: oracles.small_component_counts(h.n, stream.ops, s.k, steps)
        elif algo == "cc-random":
            s = PhasedCcEstimator(DynamicGraph(h.n), eps, p, seed=seed)
            insert = delete = (s.on_update, lambda op: (op,))
            work = lambda: s.samples
            check = self._check_cc
            exact = lambda steps: oracles.small_component_counts(h.n, stream.ops, h.n, steps)
        elif algo in ("msf-det", "msf-rand"):
            if algo == "msf-det":
                s = DeterministicMsfEstimator(h.n, eps, h.W)
                levels, count = s.levels, attrgetter("bfs_calls")
                work = lambda: sum(map(count, levels))
            else:
                s = RandomizedMsfEstimator(h.n, eps, h.W, p, seed=seed)
                work = lambda: s.samples
            insert, delete = (s.insert, attrgetter("u", "v", "w")), (s.delete, pair)
            check = self._check_msf
            exact = lambda steps: oracles.msf_weights(h.n, stream.ops, steps)
        else:
            raise ValueError(f"unknown algorithm {algo!r}")
        self.struct = s
        self.update = {"i": insert, "d": delete}
        self.work = work
        self._check = check
        if check_every is None:
            return
        self.schedule = list(_schedule(stream.ops, check_every))
        if exact is None:
            self.shadow = DynamicGraph(h.n)
        else:
            self.exact = exact([step for step, _, checked in self.schedule if checked])

    def timed_apply(self, step: int, op) -> tuple[int, int]:
        """Apply one update; returns (work, nanos), timing the structure call alone."""
        work, clock = self.work, time.perf_counter_ns
        update, args_of = self.update[op.kind]
        args = args_of(op)
        before = work()
        t0 = clock()
        try:
            update(*args)
        except ValueError as exc:
            raise ValueError(f"step {step} ({op.kind} {op.u} {op.v}): {exc}") from exc
        except InvariantError as exc:
            raise InvariantError(f"step {step} ({op.kind} {op.u} {op.v}): {exc}") from exc
        nanos = clock() - t0
        return work() - before, nanos

    def mirror(self, op) -> None:
        """Apply one update to the shadow store, where a duplicate insert or an
        absent delete is a no-op."""
        if op.kind == "i":
            self.shadow.insert_edge(op.u, op.v)
        else:
            self.shadow.delete_edge(op.u, op.v)

    def _violation(self, message: str) -> None:
        """Count a soft (randomized) miss, or record a hard guarantee violation."""
        if self.soft:
            self.soft_violations += 1
        else:
            self.violation = message

    def _check_coloring(self, step: int) -> tuple[float, float, float]:
        colors, palette = self.struct.colors, self.struct.palette
        eu, ev = self.shadow.edge_view()
        off = np.flatnonzero((colors < 1) | (colors > palette))
        same = np.flatnonzero(colors[eu] == colors[ev])[:5]
        if off.size:
            self._violation(f"vertex {off[0]} has color {colors[off[0]]} outside [1, {palette}]")
        elif same.size:
            pairs = list(zip(eu[same].tolist(), ev[same].tolist()))
            self._violation(f"monochromatic edges {pairs}")
        return float(not (off.size or same.size)), 1.0, 0.0

    def _check_cc(self, step: int) -> tuple[float, float, float]:
        """cc-exact must match the oracle; cc-random may miss it by eps * psi."""
        estimate = float(self.struct.estimate())
        exact = float(self.exact[step])
        allowed = self.eps * self.struct.psi if self.soft else 0.0
        if abs(estimate - exact) > allowed:
            self._violation(f"count {estimate} differs from oracle {exact} by more than {allowed}")
        return estimate, exact, allowed

    def _check_msf(self, step: int) -> tuple[float, float, float]:
        estimate = self.struct.estimate()
        exact = self.exact[step]
        allowed = self.eps * exact
        # 1e-9: round-off of combine's telescoping sum, 2.2e-16 on an empty graph
        if abs(estimate - exact) > allowed + 1e-9:
            self._violation(f"estimate {estimate} outside (1+-eps) of {exact}")
        return estimate, exact, allowed

    def checkpoint(self, step: int, op_kind: str, work: int, nanos: int) -> str:
        """Check the structure after ``step`` updates; returns its ``RUN_ROW`` line."""
        estimate, exact, allowed = self._check(step)
        return RUN_ROW % (step, op_kind, estimate, exact, abs(estimate - exact), allowed,
                          work, nanos)


def _schedule(ops, check_every: int):
    """Yield ``(step, op, checked)`` per op, ``step`` counting the updates so far;
    every query is checked, and every ``check_every``-th update (none for 0)."""
    step = 0
    for op in ops:
        if op.kind == "q":
            yield step, op, True
        else:
            step += 1
            yield step, op, check_every > 0 and step % check_every == 0


def cmd_run(args: argparse.Namespace) -> int:
    """Replay a stream; the loop binds its calls once and writes ``RUN_ROW`` lines."""
    every = args.check_every
    if every < 0:
        raise ValueError(f"--check-every must be >= 0, got {every}")
    stream = streams.read_stream(args.stream)
    replay = _Replay(args.algo, stream, args.eps, args.p, args.seed, check_every=every)
    rows: list[str] = []
    timed_apply, checkpoint = replay.timed_apply, replay.checkpoint
    for step, op, checked in replay.schedule:
        work = nanos = 0
        if op.kind != "q":
            work, nanos = timed_apply(step, op)
            if replay.shadow is not None:
                replay.mirror(op)
        if checked:
            rows.append(checkpoint(step, op.kind, work, nanos))
            if replay.violation:
                break
    with _output(args.out) as out:
        out.write(",".join(CSV_COLUMNS) + "\r\n")
        out.writelines(rows)  # not joined first: one string of all rows raised peak RSS
    if replay.violation:
        print(f"guarantee violation at step {step}: {replay.violation}", file=sys.stderr)
        return 1
    if rows:
        print(f"checkpoints={len(rows)} envelope_violations={replay.soft_violations} "
              f"rate={replay.soft_violations / len(rows):.4f}", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    rows = []
    for path in args.stream:
        stream = streams.read_stream(path)
        h = stream.header
        updates = [op for op in stream.ops if op.kind != "q"]
        if not updates:
            raise ValueError(f"{path}: stream has no updates to time")
        for rep in range(args.repeats):
            timed_apply = _Replay(args.algo, stream, args.eps, args.p, args.seed).timed_apply
            cost = [timed_apply(step, op) for step, op in enumerate(updates, start=1)]
            work, nanos = (np.array(col, dtype=np.int64) for col in zip(*cost))
            rows.append([
                path, h.delta, h.W, args.eps, rep, len(updates),
                f"{nanos.mean():.1f}",
                int(np.percentile(nanos, 50)),
                int(np.percentile(nanos, 99)),
                f"{work.sum() / len(updates):.4f}",
                # nearest rank: a work count some update really did
                int(np.percentile(work, 99, method="inverted_cdf")),
                int(work.max()),
            ])
    with _output(args.out) as out:  # csv.writer quotes a ``stream`` path with a comma or quote
        csv.writer(out).writerows([BENCH_COLUMNS, *rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dyngraph",
                                     description="dynamic-graph verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an update stream file")
    g.add_argument("kind", choices=["random-churn", "sliding-window",
                                    "conflict-heavy", "adaptive-script"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--ops", type=int, required=True)
    g.add_argument("--target-m", type=int, default=0)
    g.add_argument("--window", type=int, default=0)
    g.add_argument("--mode", choices=list(streams.MODES), default="cc")
    g.add_argument("--delta", type=int, default=0)
    g.add_argument("--W", type=float, default=1.0)
    g.add_argument("--int-weights", action="store_true")
    g.add_argument("--eps", type=float, default=0.2)
    g.add_argument("--p", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--struct-seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="replay a stream with oracle checkpoints")
    r.add_argument("--algo", choices=list(ALGOS), required=True)
    r.add_argument("--stream", required=True)
    r.add_argument("--eps", type=float, default=0.2)
    r.add_argument("--p", type=float, default=0.05)
    r.add_argument("--check-every", type=int, default=100)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bench", help="replay streams, report timing/work summaries")
    b.add_argument("--algo", choices=list(ALGOS), required=True)
    b.add_argument("--stream", action="append", required=True)
    b.add_argument("--eps", type=float, default=0.2)
    b.add_argument("--p", type=float, default=0.05)
    b.add_argument("--repeats", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (streams.StreamFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
