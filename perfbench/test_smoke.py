"""Smoke tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

from layers import PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Rep  # noqa: E402

TINY = {
    "coloring-conflict": {"n": 60, "target_m": 100, "delta": 6, "ops": 400,
                          "check_every": 100},
    "msf-det-window": {"n": 60, "window": 50, "ops": 200, "W": 4.0, "eps": 0.25,
                       "check_every": 20},
    "msf-rand-window": {"n": 60, "window": 40, "ops": 60, "W": 4.0, "eps": 0.5,
                        "p": 0.05, "check_every": 10},
    "verify-cc-exact": {"n": 60, "target_m": 40, "ops": 200, "eps": 0.1},
}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(WORKLOADS)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == declared


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_end_to_end_run(name):
    verdict, values = run.measure(name, seed=3, seconds=0, trace=False, size=TINY[name])
    assert verdict["correct"] and verdict["failed"] == 0 and verdict["attempted"] > 0
    assert set(values) == {*run.END_TO_END, run.HOST_KERNEL}
    assert all(value > 0 for value, _ in values.values())


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run(name):
    verdict, values = run.measure(name, seed=3, seconds=0, trace=True, size=TINY[name])
    assert verdict["correct"]
    assert set(values) == {*PER_LAYER, run.HOST_KERNEL}


def test_tracer_restores_every_patched_attribute():
    import dyngraph
    from dyngraph import cc_random, graph_core, oracles

    before = (graph_core.DynamicGraph.bfs_limited, oracles.fast_component_sizes,
              cc_random.fast_component_sizes, dyngraph.static_estimate_nis)
    tracer = Tracer()
    tracer.install()
    assert cc_random.fast_component_sizes is oracles.fast_component_sizes
    assert graph_core.DynamicGraph.bfs_limited is not before[0]
    tracer.uninstall()
    assert (graph_core.DynamicGraph.bfs_limited, oracles.fast_component_sizes,
            cc_random.fast_component_sizes, dyngraph.static_estimate_nis) == before


def test_changed_work_between_repetitions_fails_loudly():
    class Drifting:
        name = "drifting"
        calls = 0

        def rep(self, tracer=None):
            self.calls += 1
            return Rep(updates=1, wall_ns=1.0, lat_ns=[1.0], setup_s=0.0, checks=0,
                       check_failures=0, update_failures=0, work=str(self.calls),
                       host_ns=[1])

    with pytest.raises(run.BenchError, match="different"):
        run._repeat(Drifting(), 0, 2)


def test_without_library_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coloring-conflict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
