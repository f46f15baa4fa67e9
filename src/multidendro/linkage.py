"""Linkage rules over clusters and over whole blocks of clusters.

Seven rules are supported. ``vg_update`` is the paper's generalized
Lance-Williams formula: the distances from a block J of clusters merged in
one step to many blocks I at once, from the current between-cluster
distances, cluster sizes and each block's ``within_term`` alone.
``pg_update`` is the classical case where exactly two clusters merge, over
a row of other clusters. Both are unchecked internals: the engines call
them with sizes and slices read from ``ClusterState``'s slot-indexed
arrays. The scalar reference, ``vg_kernel``, lives with the tests.

Numerical notes: each block's terms sum correctly rounded (math.fsum), so
results do not depend on term order and equal the scalar ones bit for bit.
Single and complete are evaluated as exact min and max over the cross
block, which is what the coefficient rows reduce to algebraically; this
keeps tied values bit-exact on integer input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha, UnsupportedMethod

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
    """A linkage rule plus its parameter, if any.

    ``alpha`` is the exponent of the joint between-within rule, restricted
    to (0, 2] and defaulting to 1; other rules take no parameter.
    """

    kind: str
    alpha: "float | None" = None

    def __post_init__(self):
        kind = self.kind.replace("-", "_")
        object.__setattr__(self, "kind", kind)
        if kind not in METHOD_KINDS:
            raise UnsupportedMethod("unknown method %r" % (self.kind,))
        if kind == JOINT_BETWEEN_WITHIN:
            alpha = 1.0 if self.alpha is None else float(self.alpha)
            if not 0.0 < alpha <= 2.0:
                raise InvalidAlpha("alpha must lie in (0, 2], got %r" % (alpha,))
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise InvalidAlpha("method %r takes no alpha" % (kind,))


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
    a, b = np.nonzero(np.tri(len(sizes), k=-1, dtype=bool))
    total = math.fsum(_terms(kind, sizes[a], sizes[b], within[a, b]).tolist())
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


# ---- classical two-way update ----

def pg_update(kind, si, si2, sj, d_between, d_left, d_right):
    """Distance from the merge of two clusters to a third, unchecked.

    ``si`` and ``si2`` are the sizes of the merged clusters and ``sj`` that
    of the other; ``d_between`` is the distance separating the two merged
    clusters, ``d_left``/``d_right`` their distances to the other cluster.
    ``sj``, ``d_left`` and ``d_right`` may be numpy arrays, one entry per
    other cluster: the operations are the same IEEE ones in the same
    order, so each entry of the row equals the scalar result bit for bit.
    Single and complete are an exact minimum and maximum, as in ``vg_update``.
    """
    if kind in (SINGLE, COMPLETE):
        out = (np.minimum if kind == SINGLE else np.maximum)(d_left, d_right)
        return out if np.ndim(out) else float(out)
    if kind == UNWEIGHTED_AVERAGE:
        return (si * d_left + si2 * d_right) / (si + si2)
    if kind == WEIGHTED_AVERAGE:
        return 0.5 * d_left + 0.5 * d_right
    if kind == UNWEIGHTED_CENTROID:
        total = si + si2
        return (si * d_left + si2 * d_right) / total \
            - (si * si2 * d_between) / (total * total)
    if kind == WEIGHTED_CENTROID:
        return 0.5 * d_left + 0.5 * d_right - 0.25 * d_between
    return ((si + sj) * d_left + (si2 + sj) * d_right - sj * d_between) \
        / (si + si2 + sj)
