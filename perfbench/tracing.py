"""Span recording around the public functions of multidendro's layers.

The program itself carries no tracing. ``install`` swaps the names that
``multidendro.cli`` and ``multidendro.agglomerate`` bind for wrappers that
record one span per call: the layer name, start, end and the enclosing
span. Spans stay in memory until ``save`` writes them out; ``self_times``
turns them into each layer's self time (its span durations minus the time
covered by spans nested directly inside) and call count.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

# (module attribute bound in multidendro.cli, layer name)
CLI_NAMES = (
    ("parse_matrix", "proximity.parse_matrix"),
    ("round_to_precision", "proximity.round_to_precision"),
    ("cluster_variable_group", "agglomerate.cluster_variable_group"),
    ("enumerate_pair_group", "agglomerate.enumerate_pair_group"),
    ("detect_reversals", "agglomerate.detect_reversals"),
    ("to_newick_extended", "tree.to_newick_extended"),
    ("to_records", "tree.to_records"),
    ("records_to_json", "tree.records_to_json"),
    ("render_svg", "render.render_svg"),
)
# (module attribute bound in multidendro.agglomerate, layer name); the
# enumerator sorts its outcomes by newick text through its own binding
AGGLOMERATE_NAMES = (
    ("tie_groups", "agglomerate.tie_groups"),
    ("vg_distance", "linkage.vg_distance"),
    ("pg_distance", "linkage.pg_distance"),
    ("BlockView", "linkage.BlockView"),
    ("comparison_value", "proximity.comparison_value"),
    ("internal", "tree.internal"),
    ("to_newick_extended", "tree.to_newick_extended"),
)
STATE_METHODS = (
    ("from_matrix", "agglomerate.ClusterState.from_matrix"),
    ("shortest", "agglomerate.ClusterState.shortest"),
)
MAIN = "cli.main"
LAYERS = tuple(sorted({name for _, name in CLI_NAMES + AGGLOMERATE_NAMES
                       + STATE_METHODS} | {MAIN}))


class Recorder:
    """Spans in flat arrays: layer id, start, end and parent span index."""

    def __init__(self):
        self.layer_ids = {name: k for k, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name, fn):
        layer_id = self.layer_ids[name]
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_spans.pop()

        return traced

    def save(self, path):
        np.savez(path, layer=np.frombuffer(self.layer, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def install(recorder, cli, agglomerate):
    """Route the layer calls of one interpreter through ``recorder``.

    Returns the traced ``cli.main``. A name the package no longer binds is
    skipped, so its layer reports zero calls instead of breaking the run.
    """
    for module, names in ((cli, CLI_NAMES), (agglomerate, AGGLOMERATE_NAMES)):
        for attr, name in names:
            if hasattr(module, attr):
                setattr(module, attr, recorder.wrap(name, getattr(module, attr)))
    state = getattr(agglomerate, "ClusterState", None)
    if hasattr(state, "from_matrix"):
        state.from_matrix = classmethod(
            recorder.wrap(STATE_METHODS[0][1], state.from_matrix.__func__))
    if hasattr(state, "shortest"):
        state.shortest = recorder.wrap(STATE_METHODS[1][1], state.shortest)
    return recorder.wrap(MAIN, cli.main)


def self_times(path):
    """{layer: (self seconds, calls)} from a saved span file."""
    with np.load(path) as spans:
        layer, parent = spans["layer"], spans["parent"]
        duration = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=len(duration))
    own = duration - covered
    seconds = np.bincount(layer, weights=own, minlength=len(LAYERS))
    calls = np.bincount(layer, minlength=len(LAYERS))
    return {name: (float(seconds[k]), int(calls[k]))
            for k, name in enumerate(LAYERS)}
