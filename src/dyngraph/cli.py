"""Command-line driver: generate streams, replay them with oracle checks, benchmark.

Exit codes: 0 on success, 1 when a hard guarantee was violated during a run,
2 on input errors (bad arguments, malformed stream files).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from .cc_exact import SmallCcCounter
from .cc_random import PhasedCcEstimator
from .coloring import Coloring, InvariantError
from .graph_core import DynamicGraph
from .msf_weight import DeterministicMsfEstimator, RandomizedMsfEstimator
from . import oracles, streams

ALGOS = ("coloring", "cc-exact", "cc-random", "msf-det", "msf-rand")

CSV_COLUMNS = ["step", "op", "estimate", "exact", "abs_err", "allowed_err", "work", "nanos"]


def _write_rows(path: str | None, rows: list[dict], fieldnames: list[str]) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


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
    """Per-algorithm replay driver feeding checkpoint rows."""

    def __init__(self, algo: str, stream: streams.Stream, eps: float, p: float,
                 seed: int | None):
        h = stream.header
        self.algo = algo
        self.n = h.n
        self.eps = eps
        self.hard_violation = False
        self.soft_violations = 0
        self.checkpoints = 0
        self.context: str = ""
        # an independent edge store for the oracle checks; ``cmd_run`` writes
        # it outside the timed ``apply``, ``bench`` never checks and skips it
        self.shadow = DynamicGraph(h.n)
        self.weights: dict[tuple[int, int], float] = {}
        if algo == "coloring":
            if h.mode != "coloring" or h.delta < 1:
                raise ValueError("coloring run needs a coloring-mode stream with delta>=1")
            self.struct = Coloring(h.n, h.delta, seed=seed)
        elif algo == "cc-exact":
            self.struct = SmallCcCounter(DynamicGraph(h.n), eps)
        elif algo == "cc-random":
            self.struct = PhasedCcEstimator(DynamicGraph(h.n), eps, p, seed=seed)
        elif algo == "msf-det":
            self.struct = DeterministicMsfEstimator(h.n, eps, h.W)
        elif algo == "msf-rand":
            self.struct = RandomizedMsfEstimator(h.n, eps, h.W, p, seed=seed)
        else:
            raise ValueError(f"unknown algorithm {algo!r}")

    def shadow_apply(self, op) -> None:
        """Mirror one update in the shadow store (kept out of the timed ``apply``)."""
        key = (op.u, op.v) if op.u < op.v else (op.v, op.u)
        if op.kind == "i":
            self.shadow.insert_edge(op.u, op.v)
            self.weights.setdefault(key, op.w)  # a duplicate insert keeps the first weight
        else:
            self.shadow.delete_edge(op.u, op.v)
            self.weights.pop(key, None)

    def work(self) -> int:
        """Cumulative recolor work, capped BFS runs or samples, summed over MSF levels."""
        s = self.struct
        if self.algo == "coloring":
            return s.total_recolor_work
        if self.algo == "cc-exact":
            return s.bfs_calls
        if self.algo == "cc-random":
            return s.samples
        if self.algo == "msf-det":
            return sum(lv.bfs_calls for lv in s.levels)
        return sum(lv.samples for lv in s.levels)

    def apply(self, op) -> int:
        """Apply one update; returns the work it did, for the CSV row."""
        before = self.work()
        s = self.struct
        insert = op.kind == "i"
        if self.algo == "coloring":
            (s.insert if insert else s.delete)(op.u, op.v)
        elif self.algo == "cc-exact":
            (s.on_insert if insert else s.on_delete)(op.u, op.v)
        elif self.algo == "cc-random":
            s.on_update(op)
        elif insert:
            s.insert(op.u, op.v, op.w)
        else:
            s.delete(op.u, op.v)
        return self.work() - before

    def timed_apply(self, step: int, op) -> tuple[int, int]:
        """``apply`` timed alone; returns (work, nanos).  Errors name the step."""
        t0 = time.perf_counter_ns()
        try:
            work = self.apply(op)
        except ValueError as exc:
            raise ValueError(f"step {step} ({op.kind} {op.u} {op.v}): {exc}") from exc
        return work, time.perf_counter_ns() - t0

    def _violation(self, context: str) -> None:
        """Count a soft (randomized) miss, or record a hard guarantee violation."""
        if self.algo in ("cc-random", "msf-rand"):
            self.soft_violations += 1
        else:
            self.hard_violation = True
            self.context = context

    def checkpoint(self, step: int, op_kind: str, work: int, nanos: int) -> dict:
        self.checkpoints += 1
        eu, ev = self.shadow.edge_view()
        algo = self.algo
        if algo == "coloring":
            colors = self.struct.colors
            ok = bool((colors >= 1).all() and (colors <= self.struct.palette).all())
            if ok and self.shadow.m:
                ok = bool((colors[eu] != colors[ev]).all())
            estimate, exact = float(ok), 1.0
            allowed = 0.0
            if not ok:
                bad = np.nonzero(colors[eu] == colors[ev])[0]
                self._violation(f"monochromatic edges at indices {bad[:5].tolist()}")
        elif algo == "cc-exact":
            estimate = float(self.struct.estimate())
            exact = float(oracles.fast_nscc(eu, ev, self.n, self.struct.k))
            allowed = 0.0
            if estimate != exact:
                self._violation(f"small-component count {estimate} != oracle {exact}")
        elif algo == "cc-random":
            estimate = float(self.struct.estimate())
            exact = float(oracles.fast_ncc(eu, ev, self.n))
            allowed = self.eps * self.struct.psi
            if abs(estimate - exact) > allowed:
                self._violation(f"estimate {estimate} outside +-{allowed} of {exact}")
        else:  # msf-det, msf-rand
            estimate = self.struct.estimate()
            w = np.array([self.weights[k] for k in zip(eu.tolist(), ev.tolist())])
            exact = oracles.fast_msf_weight(eu, ev, w, self.n)
            allowed = self.eps * exact
            # 1e-9: round-off of combine's telescoping sum, 2.2e-16 on an empty graph
            if abs(estimate - exact) > allowed + 1e-9:
                self._violation(f"estimate {estimate} outside (1+-eps) of {exact}")
        return {
            "step": step, "op": op_kind,
            "estimate": f"{estimate:.6f}", "exact": f"{exact:.6f}",
            "abs_err": f"{abs(estimate - exact):.6f}",
            "allowed_err": f"{allowed:.6f}",
            "work": work, "nanos": nanos,
        }


def cmd_run(args: argparse.Namespace) -> int:
    stream = streams.read_stream(args.stream)
    replay = _Replay(args.algo, stream, args.eps, args.p, args.seed)
    rows: list[dict] = []
    step = 0
    for op in stream.ops:
        if op.kind == "q":
            rows.append(replay.checkpoint(step, "q", 0, 0))
            continue
        step += 1
        work, nanos = replay.timed_apply(step, op)
        replay.shadow_apply(op)
        if args.check_every and step % args.check_every == 0:
            rows.append(replay.checkpoint(step, op.kind, work, nanos))
            if replay.hard_violation:
                break
    _write_rows(args.out, rows, CSV_COLUMNS)
    if replay.hard_violation:
        print(f"guarantee violation at step {step}: {replay.context}", file=sys.stderr)
        return 1
    if replay.checkpoints:
        rate = replay.soft_violations / replay.checkpoints
        print(f"checkpoints={replay.checkpoints} "
              f"envelope_violations={replay.soft_violations} rate={rate:.4f}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    rows = []
    for path in args.stream:
        stream = streams.read_stream(path)
        h = stream.header
        if all(op.kind == "q" for op in stream.ops):
            raise ValueError(f"{path}: stream has no updates to time")
        for rep in range(args.repeats):
            replay = _Replay(args.algo, stream, args.eps, args.p, args.seed)
            nanos_all = []
            work_total = 0
            updates = 0
            for op in stream.ops:
                if op.kind == "q":
                    continue
                updates += 1
                work, nanos = replay.timed_apply(updates, op)
                work_total += work
                nanos_all.append(nanos)
            arr = np.array(nanos_all, dtype=np.int64)
            rows.append({
                "stream": path, "delta": h.delta, "W": h.W, "eps": args.eps,
                "repeat": rep, "ops": updates,
                "mean_ns": f"{arr.mean():.1f}",
                "p50_ns": int(np.percentile(arr, 50)),
                "p99_ns": int(np.percentile(arr, 99)),
                "mean_work": f"{work_total / max(1, updates):.4f}",
            })
    _write_rows(args.out, rows, list(rows[0]))
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
    g.add_argument("--struct-seed", type=int, default=None)
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
