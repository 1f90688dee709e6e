"""In-memory span tracer that wraps dyngraph's public entry points from outside.

Nothing under ``src/`` is edited: ``install`` replaces each traced function at
its module attribute (in every dyngraph module that imported it) and each
traced method at its class attribute, and ``uninstall`` puts the originals
back.  While ``active`` is true every call into a wrapped name appends one span
(name, start, end, parent) to flat arrays; spans are analysed and written out
only after the traced replay has finished.

O(1) accessors (``degree``, ``has_edge``, ``color_of``, ``value``) and
constructors are not wrapped: a span costs about a microsecond, more than the
accessor itself, and their time stays in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import update_wrapper
from pathlib import Path

import numpy as np


def _recolor_counts(counts: Counter, args, stats) -> None:
    counts["coloring.inserts"] += 1
    if stats.path_length:
        counts["coloring.recolor_events"] += 1
        counts["coloring.path_vertices"] += stats.path_length
        counts["coloring.bad_steps"] += stats.bad_steps
        counts["coloring.recolor_work"] += stats.total_work


def _bfs_counts(counts: Counter, args, result) -> None:
    reached, closed = result
    counts["graph_core.bfs_vertices"] += reached
    counts["graph_core.bfs_closed"] += closed


def _sample_many_counts(counts: Counter, args, result) -> None:
    counts["nonzero_sampler.samples"] += len(result)


def _sample_counts(counts: Counter, args, result) -> None:
    counts["nonzero_sampler.samples"] += result is not None


# layer (module of src/dyngraph) -> wrapped public names, with an optional hook
# that records work counts from the call's result at the same boundary
TARGETS: dict[str, dict[str, object]] = {
    "streams": {"parse_stream": None, "read_stream": None},
    "graph_core": {
        "DynamicGraph.insert_edge": None,
        "DynamicGraph.delete_edge": None,
        "DynamicGraph.bfs_limited": _bfs_counts,
        "DynamicGraph.edge_view": None,
        "DynamicGraph.edges": None,
    },
    "coloring": {
        "Coloring.insert": _recolor_counts,
        "Coloring.delete": None,
        "Coloring.rebuild": None,
    },
    "cc_exact": {
        "SmallCcCounter.on_insert": None,
        "SmallCcCounter.on_delete": None,
        "SmallCcCounter.estimate": None,
    },
    "cc_random": {
        "static_estimate_nis": None,
        "PhasedCcEstimator.on_update": None,
        "PhasedCcEstimator.tick": None,
        "PhasedCcEstimator.estimate": None,
    },
    "nonzero_sampler": {
        "NonZeroSampler.update": None,
        "NonZeroSampler.sample": _sample_counts,
        "NonZeroSampler.sample_many": _sample_many_counts,
        "NonZeroSampler.nonzero_elements": None,
    },
    "msf_weight": {
        "combine": None,
        "DeterministicMsfEstimator.insert": None,
        "DeterministicMsfEstimator.delete": None,
        "DeterministicMsfEstimator.estimate": None,
        "RandomizedMsfEstimator.insert": None,
        "RandomizedMsfEstimator.delete": None,
        "RandomizedMsfEstimator.estimate": None,
    },
    "oracles": {
        name: None
        for name in ("exact_ncc", "exact_ncc_bfs", "exact_nis", "exact_nscc",
                     "exact_msf_weight", "exact_integer_msf_identity",
                     "is_proper_coloring", "fast_component_labels",
                     "fast_component_sizes", "fast_ncc", "fast_nscc",
                     "fast_msf_weight")
    },
    "cli": {"main": None, "cmd_run": None},
}


class Tracer:
    """Span recorder; a span's parent is the innermost traced call open at its start."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _wrap(self, fn, name: str, hook):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every name in TARGETS wherever dyngraph binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dyngraph" or key.startswith("dyngraph."))]
        for layer, names in TARGETS.items():
            module = sys.modules[f"dyngraph.{layer}"]
            for dotted, hook in names.items():
                full = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(original, full, hook))
                    continue
                original = getattr(module, dotted)
                wrapper = self._wrap(original, full, hook)
                for m in modules:
                    if getattr(m, dotted, None) is original:
                        self._patch(m, dotted, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    def spans(self) -> dict[str, np.ndarray]:
        """Recorded spans as arrays, with each span's self time.

        Self time is the span's duration minus the durations of its direct
        children; children never overlap each other in one thread.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {"name_id": name_id, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def save(self, path: Path) -> None:
        """Write the recorded spans (name, start, end, parent) as a compressed npz."""
        s = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_id=s["name_id"],
                            parent=s["parent"], start=s["start"], end=s["end"])
