"""The engine's block update for one pair of blocks, so that tests of the
formula check the code the engine runs."""

import numpy as np

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
