"""Layered update-stream benchmark for dyngraph.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

With ``--trace 0`` the workload is replayed untraced for ``--seconds`` and the
end-to-end metrics are reported; with ``--trace 1`` untraced repetitions give
the wall time that a traced replay (wrapping each module's public functions,
see tracer.py) is compared with, and the per-layer metrics are reported.
``all`` runs every workload in its own process, both ways, and prints every
metric with its unit and sample count, the correctness verdicts and the trace
overhead.  The last line of a single-workload run is one JSON object.

dyngraph is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hostspeed import REF_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_spans"

# name -> (unit, better)
END_TO_END = {
    "updates_per_s": ("1/s", "higher"),
    "update_p50_ns": ("ns", "lower"),
    "update_p99_ns": ("ns", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ops_ratio": ("ratio", "higher"),
}

MIN_REPS = 3
HOST_KERNEL = "host_kernel_median"


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _import_library():
    if not (SRC / "dyngraph" / "__init__.py").is_file():
        raise BenchError(f"no dyngraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyngraph

    if SRC.resolve() not in Path(dyngraph.__file__).resolve().parents:
        raise BenchError(f"dyngraph imported from {dyngraph.__file__}, not from {SRC}")


def _repeat(workload, seconds: float, min_reps: int, tracer=None) -> list:
    """Repetitions until ``seconds`` have passed; outputs must repeat exactly.

    ``workload.peak_rss_mb`` is read after the first repetition: later ones
    repeat the same work, and only the benchmark's own records grow.
    """
    reps = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        rep = workload.rep(tracer)
        reps.append(rep)
        if len(reps) == 1:
            workload.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rep.work != reps[0].work:
            raise BenchError(f"{workload.name}: repetition {len(reps)} produced different "
                             "outputs or work counts than repetition 1 at the same seed")
    return reps


def _verdict(reps) -> dict:
    attempted = sum(r.updates + r.checks for r in reps)
    failed = sum(r.update_failures + r.check_failures for r in reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def host_kernel_ns(reps) -> float:
    return statistics.median(t for r in reps for t in r.host_ns)


def end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    reps = _repeat(workload, seconds, MIN_REPS)
    if len({len(r.lat_ns) for r in reps}) != 1:
        raise BenchError(f"{workload.name}: repetitions timed different numbers of calls")
    # every repetition replays the same calls with the same work: a call's
    # latency is its median over repetitions, which drops the interrupts and
    # other host noise that land on a different random call each time
    lat = np.median(np.array([r.lat_ns for r in reps]), axis=0)
    samples = len(lat) * len(reps)
    verdict = _verdict(reps)
    values = {
        "updates_per_s": (statistics.median(r.updates * 1e9 / r.wall_ns for r in reps),
                          len(reps)),
        "update_p50_ns": (float(np.percentile(lat, 50)), samples),
        "update_p99_ns": (float(np.percentile(lat, 99)), samples),
        "setup_s": (statistics.median(r.setup_s for r in reps), len(reps)),
        "peak_rss_mb": (workload.peak_rss_mb, 1),
        "ok_ops_ratio": (1.0 - verdict["failed"] / verdict["attempted"],
                         verdict["attempted"]),
        HOST_KERNEL: (host_kernel_ns(reps), sum(len(r.host_ns) for r in reps)),
    }
    return verdict, values


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, dict]:
    from layers import PER_LAYER, TIME_UNITS, WORK_COUNTS, layer_metrics
    from tracer import Tracer

    untraced = _repeat(workload, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    traced, results = [], []
    try:
        t0 = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - t0 < seconds / 2:
            tracer.reset()
            rep = workload.rep(tracer)
            traced.append(rep)
            scale = REF_NS / host_kernel_ns([rep])
            results.append({
                name: (value * scale if PER_LAYER[name][0] in TIME_UNITS else value, n)
                for name, (value, n) in layer_metrics(
                    tracer.names, tracer.spans(), tracer.counts, rep.updates,
                    rep.wall_ns / scale).items()})
            if rep.work != untraced[0].work:
                raise BenchError(f"{workload.name}: a traced repetition changed the outputs")
            for name in WORK_COUNTS:
                if results[-1][name] != results[0][name]:
                    raise BenchError(f"{workload.name}: {name} differs between traced "
                                     f"repetitions: {results[0][name]} vs {results[-1][name]}")
        tracer.save(SPANS_DIR / f"{workload.name}-seed{seed}.npz")
    finally:
        tracer.uninstall()
    values = {name: (statistics.median(r[name][0] for r in results), results[0][name][1])
              for name in results[0]}
    values[HOST_KERNEL] = (host_kernel_ns(untraced + traced),
                           sum(len(r.host_ns) for r in untraced + traced))
    values["trace_overhead"] = (statistics.median(r.wall_ns for r in traced)
                                / statistics.median(r.wall_ns for r in untraced) - 1.0,
                                len(traced) + len(untraced))
    return _verdict(untraced + traced), values


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: dict | None = None) -> tuple[dict, dict]:
    """(verdict, metric -> (value, samples)) for one run of one workload."""
    from workloads import SIZES, WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[name](seed, size or SIZES[name], Path(tmp))
        if trace:
            return per_layer(workload, seconds, seed)
        return end_to_end(workload, seconds)


def result_json(verdict: dict, values: dict, units: dict) -> str:
    metrics = {k: {"value": values[k][0], "unit": units[k][0]} for k in units}
    return json.dumps({**verdict, "metrics": metrics})


def print_table(title: str, verdict: dict, values: dict, units: dict) -> None:
    print(f"== {title}: correct={verdict['correct']} attempted={verdict['attempted']} "
          f"failed={verdict['failed']}")
    for k, (unit, _) in units.items():
        value, samples = values[k]
        print(f"  {k:<38} {value:>16.6g} {unit:<16} n={samples}")
    kernel, samples = values[HOST_KERNEL]
    print(f"  ({HOST_KERNEL} {kernel:.0f} ns, n={samples}; times above are scaled "
          f"by {REF_NS} / {kernel:.0f}, see hostspeed.py)")


def run_all(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    summary = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                summary.append((False, f"{name:<20} trace={trace} exit code {proc.returncode}"))
                continue
            result = json.loads(lines[-1])
            text = (f"{name:<20} trace={trace} correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']}")
            if trace:
                text += f" trace_overhead={result['metrics']['trace_overhead']['value']:.4f}"
            summary.append((result["correct"], text))
    print("== verdicts")
    for _, text in summary:
        print(f"  {text}")
    return 0 if all(ok for ok, _ in summary) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_library()
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        from layers import PER_LAYER
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(WORKLOADS)} or all")
        units = PER_LAYER if args.trace else END_TO_END
        verdict, values = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", verdict, values, units)
    print(result_json(verdict, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
