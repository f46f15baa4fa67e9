"""Linkage rules over clusters and over whole blocks of clusters.

Seven rules are supported. ``vg_update`` is the paper's generalized
Lance-Williams formula: the distances from a block J of clusters merged in
one step to many blocks I at once, from the current between-cluster
distances, cluster sizes and each block's ``within_term`` alone.
With two clusters in J it is the classical Lance-Williams update, so every
engine updates distances through it, in one place: the merge step
``agglomerate.ClusterState.merge`` calls it, unchecked, with sizes and
slices of the state's slot-indexed arrays. The scalar reference,
``vg_kernel``, and the textbook two-cluster formula, ``lance_williams``,
live with the tests.

Numerical notes: each block's terms sum correctly rounded (math.fsum), so
results do not depend on term order and equal the scalar ones bit for bit.
Single and complete are evaluated as exact min and max over the cross
block, which is what the coefficient rows reduce to algebraically; this
keeps tied values bit-exact on integer input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import UnsupportedMethod

SINGLE = "single"
COMPLETE = "complete"
UNWEIGHTED_AVERAGE = "unweighted_average"
WEIGHTED_AVERAGE = "weighted_average"
UNWEIGHTED_CENTROID = "unweighted_centroid"
WEIGHTED_CENTROID = "weighted_centroid"
JOINT_BETWEEN_WITHIN = "joint_between_within"

METHOD_KINDS = (
    SINGLE,
    COMPLETE,
    UNWEIGHTED_AVERAGE,
    WEIGHTED_AVERAGE,
    UNWEIGHTED_CENTROID,
    WEIGHTED_CENTROID,
    JOINT_BETWEEN_WITHIN,
)
# rules whose block update reads the within blocks as well as the cross block
WITHIN_METHODS = (UNWEIGHTED_CENTROID, WEIGHTED_CENTROID, JOINT_BETWEEN_WITHIN)


@dataclass(frozen=True)
class MethodSpec:
    """A linkage rule, by a name in METHOD_KINDS ("-" for "_"); no rule has a
    parameter, as joint between-within takes distances already raised to
    its exponent alpha, the form Szekely and Rizzo define it in."""

    kind: str

    def __post_init__(self):
        kind = self.kind.replace("-", "_")
        object.__setattr__(self, "kind", kind)
        if kind not in METHOD_KINDS:
            raise UnsupportedMethod("unknown method %r" % (self.kind,))


def _terms(kind, si, sj, d):
    # the formula's summed terms, in the scalar reference's operation order
    if kind in (UNWEIGHTED_AVERAGE, UNWEIGHTED_CENTROID):
        return (si * sj) * d
    return (si + sj) * d if kind == JOINT_BETWEEN_WITHIN else d


def _sums(terms, starts=None):
    # math.fsum over the rows and each block of columns (one column per
    # block without starts); numpy's sum, from +0.0, is fsum's for two terms
    q, m = terms.shape
    if starts is None and q <= 2:
        return terms.sum(axis=0)
    flat = terms.T.ravel().tolist()
    bounds = range(m + 1) if starts is None else [*starts, m]
    return np.array([math.fsum(flat[a * q:b * q])
                     for a, b in zip(bounds, bounds[1:])], dtype=np.float64)


def within_term(kind, sizes, within):
    """A block's own term: 0.0 for one cluster and outside WITHIN_METHODS."""
    if kind not in WITHIN_METHODS:
        return 0.0
    # a row at a time, so no k*k/2 list; fsum's sum has no order to move
    total = math.fsum(chain.from_iterable(
        _terms(kind, sizes[r], sizes[:r], within[r, :r]).tolist()
        for r in range(1, len(sizes))))
    norm = {UNWEIGHTED_CENTROID: sum(sizes.tolist()), WEIGHTED_CENTROID: len(sizes)}
    return total / norm.get(kind, 1) ** 2


def vg_update(kind, sizes_j, within_j, sizes, cross, starts=None, within=None):
    """Distances from a merged block J (cluster ``sizes_j``, ``within_term``
    ``within_j``) to blocks I laid out along the columns of the q x m array
    ``cross``, with cluster ``sizes``, first columns ``starts`` and
    ``within_term``s ``within``; both None when every block is one cluster."""
    if kind in (SINGLE, COMPLETE):
        ext = np.minimum if kind == SINGLE else np.maximum
        out = ext.reduce(cross, axis=0)
        return out if starts is None else ext.reduceat(out, starts)
    p, ti, tj = 1, sizes, sum(sizes_j.tolist())
    if starts is not None:
        p, ti = np.diff(starts, append=len(sizes)), np.add.reduceat(sizes, starts)
    between = _sums(_terms(kind, sizes, sizes_j[:, None], cross), starts)
    if kind != JOINT_BETWEEN_WITHIN:
        unweighted = kind in (UNWEIGHTED_AVERAGE, UNWEIGHTED_CENTROID)
        between = between / (ti * tj if unweighted else p * len(sizes_j))
    if kind not in WITHIN_METHODS:
        return between
    jbw = kind == JOINT_BETWEEN_WITHIN
    rest_j = (ti / tj if jbw else 1) * within_j
    if within is None:
        # one cluster's within term is 0.0, and between is never -0.0, so
        # the IEEE difference is the correctly rounded sum
        out = between - rest_j
    else:
        rest_i = (tj / ti if jbw else 1) * np.asarray(within)
        out = _sums(np.array(np.broadcast_arrays(between, -rest_j, -rest_i)))
    return out / (ti + tj) if jbw else out
