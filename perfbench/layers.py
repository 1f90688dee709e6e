"""Per-layer metrics derived from one traced repetition.

Every metric is reported on every workload; where a layer does no work in a
workload its value is 0.  ``*_ns`` metrics are mean self nanoseconds per call
of the named function(s); ``*_per_update`` metrics are totals divided by the
updates of the repetition.  Oracle times are inclusive (oracles call only
oracles).
"""

from __future__ import annotations

import numpy as np

# name -> (unit, better); the order is the order of the printed report
PER_LAYER = {
    "streams.parse_s": ("s", "lower"),
    "coloring.insert_ns": ("ns", "lower"),
    "coloring.delete_ns": ("ns", "lower"),
    "coloring.recolor_share": ("ratio", "lower"),
    "coloring.recolor_path_mean": ("vertices", "lower"),
    "coloring.recolor_work_per_update": ("work/update", "lower"),
    "coloring.bad_step_share": ("ratio", "lower"),
    "graph_core.bfs_calls_per_update": ("calls/update", "lower"),
    "graph_core.bfs_vertices_per_update": ("vertices/update", "lower"),
    "graph_core.bfs_closed_share": ("ratio", "higher"),
    "graph_core.bfs_ns": ("ns", "lower"),
    "graph_core.edge_update_ns": ("ns", "lower"),
    "cc_exact.self_ns_per_update": ("ns/update", "lower"),
    "cc_random.boundaries_per_update": ("count/update", "lower"),
    "cc_random.boundary_update_share": ("ratio", "lower"),
    "cc_random.samples_per_update": ("samples/update", "lower"),
    "cc_random.boundary_self_ns": ("ns", "lower"),
    "cc_random.on_update_self_ns": ("ns", "lower"),
    "nonzero_sampler.sample_many_ns": ("ns", "lower"),
    "nonzero_sampler.update_ns": ("ns", "lower"),
    "oracles.component_sizes_ns": ("ns", "lower"),
    "oracles.check_ns": ("ns", "lower"),
    "oracles.share_of_run": ("ratio", "lower"),
    "msf_weight.levels_hit_per_update": ("levels/update", "lower"),
    "msf_weight.self_ns_per_update": ("ns/update", "lower"),
    "cli.self_ns_per_update": ("ns/update", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

TIME_UNITS = ("s", "ns", "ns/update")

# counts that must repeat exactly between traced repetitions at one seed
WORK_COUNTS = (
    "coloring.recolor_work_per_update",
    "coloring.recolor_share",
    "graph_core.bfs_calls_per_update",
    "graph_core.bfs_vertices_per_update",
    "cc_random.boundaries_per_update",
    "cc_random.samples_per_update",
    "msf_weight.levels_hit_per_update",
)

_LEVEL_UPDATES = ("cc_exact.SmallCcCounter.on_insert", "cc_exact.SmallCcCounter.on_delete",
                  "cc_random.PhasedCcEstimator.on_update")
_SIZES = ("oracles.fast_component_sizes", "oracles.fast_component_labels")


def layer_metrics(names: list[str], spans: dict, counts, updates: int,
                  wall_ns: int) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) for every metric but ``trace_overhead``."""
    nid, parent = spans["name_id"], spans["parent"]
    dur, self_ns = spans["dur"], spans["self"]
    code = {name: i for i, name in enumerate(sorted({n.split(".")[0] for n in names}))}
    layer = np.array([code[n.split(".")[0]] for n in names], dtype=np.int64)[nid]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)

    def sel(*full):
        ids = [names.index(f) for f in full]
        return np.isin(nid, ids)

    def in_layer(name):
        return layer == code[name]

    def mean_self(*full):
        m = sel(*full)
        k = int(m.sum())
        return (float(self_ns[m].mean()) if k else 0.0, k)

    def per_update(total):
        return (total / updates, updates)

    def share(num, den):
        return (num / den if den else 0.0, den)

    out: dict[str, tuple[float, int]] = {}
    parse = sel("streams.parse_stream")
    out["streams.parse_s"] = (float(np.median(dur[parse])) / 1e9 if parse.any() else 0.0,
                              int(parse.sum()))

    out["coloring.insert_ns"] = mean_self("coloring.Coloring.insert")
    out["coloring.delete_ns"] = mean_self("coloring.Coloring.delete")
    out["coloring.recolor_share"] = share(counts["coloring.recolor_events"],
                                          counts["coloring.inserts"])
    out["coloring.recolor_path_mean"] = share(counts["coloring.path_vertices"],
                                              counts["coloring.recolor_events"])
    out["coloring.recolor_work_per_update"] = per_update(counts["coloring.recolor_work"])
    out["coloring.bad_step_share"] = share(counts["coloring.bad_steps"],
                                           counts["coloring.path_vertices"])

    bfs = sel("graph_core.DynamicGraph.bfs_limited")
    calls = int(bfs.sum())
    out["graph_core.bfs_calls_per_update"] = per_update(calls)
    out["graph_core.bfs_vertices_per_update"] = per_update(counts["graph_core.bfs_vertices"])
    out["graph_core.bfs_closed_share"] = share(counts["graph_core.bfs_closed"], calls)
    out["graph_core.bfs_ns"] = mean_self("graph_core.DynamicGraph.bfs_limited")
    out["graph_core.edge_update_ns"] = mean_self("graph_core.DynamicGraph.insert_edge",
                                                 "graph_core.DynamicGraph.delete_edge")

    out["cc_exact.self_ns_per_update"] = per_update(float(self_ns[in_layer("cc_exact")].sum()))

    boundary = sel("cc_random.static_estimate_nis")
    out["cc_random.boundaries_per_update"] = per_update(int(boundary.sum()))
    out["cc_random.boundary_update_share"] = per_update(
        len({_root(parent, i) for i in np.flatnonzero(boundary)}))
    out["cc_random.samples_per_update"] = per_update(counts["nonzero_sampler.samples"])
    out["cc_random.boundary_self_ns"] = mean_self("cc_random.static_estimate_nis")
    out["cc_random.on_update_self_ns"] = mean_self("cc_random.PhasedCcEstimator.on_update",
                                                   "cc_random.PhasedCcEstimator.tick")

    out["nonzero_sampler.sample_many_ns"] = mean_self("nonzero_sampler.NonZeroSampler.sample_many")
    out["nonzero_sampler.update_ns"] = mean_self("nonzero_sampler.NonZeroSampler.update")

    top_oracle = in_layer("oracles") & (parent_layer != code["oracles"])
    sizes = top_oracle & sel(*_SIZES)
    checks = top_oracle & ~sizes
    out["oracles.component_sizes_ns"] = (float(dur[sizes].mean()) if sizes.any() else 0.0,
                                         int(sizes.sum()))
    out["oracles.check_ns"] = (float(dur[checks].mean()) if checks.any() else 0.0,
                               int(checks.sum()))
    out["oracles.share_of_run"] = (float(dur[top_oracle].sum()) / wall_ns,
                                   int(top_oracle.sum()))

    levels = sel(*_LEVEL_UPDATES) & (parent_layer == code["msf_weight"])
    out["msf_weight.levels_hit_per_update"] = per_update(int(levels.sum()))
    out["msf_weight.self_ns_per_update"] = per_update(
        float(self_ns[in_layer("msf_weight")].sum()))
    out["cli.self_ns_per_update"] = per_update(float(self_ns[in_layer("cli")].sum()))
    return out


def _root(parent: np.ndarray, i: int) -> int:
    while parent[i] >= 0:
        i = parent[i]
    return int(i)
