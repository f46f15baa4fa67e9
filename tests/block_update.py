"""The engine's block update for one pair of blocks, and its merge of one
pair of clusters, so that tests of the formula check the code the engine
runs."""

import numpy as np

from multidendro import ClusterState, MethodSpec
from multidendro.linkage import vg_update, within_term


def vg_block(kind, sizes_i, sizes_j, cross, within_i, within_j):
    """``oracles.vg_kernel``'s distance between blocks I and J, computed by
    ``linkage.vg_update`` with J as the merged block and I as the one block
    against it. None stands in for a single cluster's within block."""
    blocks = []
    for sizes, within in ((sizes_i, within_i), (sizes_j, within_j)):
        sizes = np.array(sizes, dtype=np.int64)
        within = np.zeros((1, 1)) if within is None else np.array(within)
        blocks.append((sizes, within_term(kind, sizes, within)))
    (si, wi), (sj, wj) = blocks
    cross = np.array(cross, dtype=np.float64).reshape(len(si), len(sj)).T
    return float(vg_update(kind, sj, wj, si, cross, [0], [wi])[0])


def pair_row(kind, sizes_j, d_between, sizes, left, right):
    """The row ``ClusterState.merge`` writes when two clusters of sizes
    ``sizes_j``, ``d_between`` apart, merge: their distances to clusters
    of ``sizes`` are ``left`` and ``right``. The pair is block J, in slots
    0 and 1; the other clusters are inf apart, which the row never reads."""
    n = len(sizes) + 2
    dist = np.full((n, n), np.inf)
    dist[0, 1] = dist[1, 0] = d_between
    dist[0, 2:] = dist[2:, 0] = left
    dist[1, 2:] = dist[2:, 1] = right
    state = ClusterState(dist, [1 << i for i in range(n)], list(range(n)),
                         np.array([*sizes_j, *sizes], dtype=np.int64),
                         np.ones(n, dtype=bool), dist.min(axis=1),
                         dist.argmin(axis=1), n, next_id=n)
    state.merge([(0, 1)], MethodSpec(kind))
    return state.dist[0, 2:]
