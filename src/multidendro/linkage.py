"""Linkage rules over clusters and over whole blocks of clusters.

Seven rules are supported. ``vg_kernel`` is the paper's generalized
Lance-Williams formula: the distance between a block I of clusters merged
in one step and a block J, from the current between-cluster distances and
cluster sizes alone. ``pg_update`` is the classical case where exactly two
clusters merge. Both are unchecked internals: the engines call them with
sizes and slices read from ``ClusterState``'s slot-indexed arrays.

The engines update whole rows at once: ``vg_row`` gives a merged block's
distances to many single clusters in a few numpy operations, and
``pg_update`` accepts a row of other clusters. Both equal the scalar
results bit for bit.

Numerical notes: sums run through math.fsum, so results do not depend on
term order. Single and complete are evaluated as exact min and max over the
cross block, which is what the coefficient rows reduce to algebraically;
this keeps tied values bit-exact on integer input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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


def _flat(rows):
    return [v for row in rows for v in row]


def vg_kernel(kind, sizes_i, sizes_j, cross, within_i, within_j):
    """Distance between the merged block I and the merged block J.

    ``sizes_i`` and ``sizes_j`` count individuals per cluster; ``cross[i][j]``
    is the distance between the i-th cluster of I and the j-th of J, and
    ``within_i`` and ``within_j`` are full symmetric matrices with zero
    diagonals. Works for any block shapes, reduces to the classical
    two-cluster update when I has two members and J one, and returns the
    cross distance unchanged when each block holds a single cluster.
    Nothing is coerced or checked: sizes must be ints, distances floats and
    the shapes must agree. Only the rules in ``WITHIN_METHODS`` read the
    within blocks, and then only off the diagonal, so None stands in for the
    within block of a single cluster, and for both under the other rules.
    """
    si, sj = sizes_i, sizes_j
    p, q = len(si), len(sj)
    if p == 1 and q == 1:
        return cross[0][0]
    wi, wj = within_i, within_j
    ti, tj = sum(si), sum(sj)

    if kind == SINGLE:
        return min(_flat(cross))
    if kind == COMPLETE:
        return max(_flat(cross))
    if kind == UNWEIGHTED_AVERAGE:
        num = math.fsum(si[i] * sj[j] * cross[i][j]
                        for i in range(p) for j in range(q))
        return num / (ti * tj)
    if kind == WEIGHTED_AVERAGE:
        return math.fsum(_flat(cross)) / (p * q)
    # the three-part formulas combine through one more fsum so that swapping
    # the two blocks cannot change the result by even an ulp
    if kind == UNWEIGHTED_CENTROID:
        between = math.fsum(si[i] * sj[j] * cross[i][j]
                            for i in range(p) for j in range(q)) / (ti * tj)
        within_i = math.fsum(si[i] * si[i2] * wi[i][i2]
                             for i, i2 in combinations(range(p), 2)) / (ti * ti)
        within_j = math.fsum(sj[j] * sj[j2] * wj[j][j2]
                             for j, j2 in combinations(range(q), 2)) / (tj * tj)
        return math.fsum((between, -within_i, -within_j))
    if kind == WEIGHTED_CENTROID:
        between = math.fsum(_flat(cross)) / (p * q)
        within_i = math.fsum(wi[i][i2] for i, i2 in combinations(range(p), 2)) / (p * p)
        within_j = math.fsum(wj[j][j2] for j, j2 in combinations(range(q), 2)) / (q * q)
        return math.fsum((between, -within_i, -within_j))
    # joint between-within
    between = math.fsum((si[i] + sj[j]) * cross[i][j]
                        for i in range(p) for j in range(q))
    within_i = math.fsum((si[i] + si[i2]) * wi[i][i2]
                         for i, i2 in combinations(range(p), 2))
    within_j = math.fsum((sj[j] + sj[j2]) * wj[j][j2]
                         for j, j2 in combinations(range(q), 2))
    return math.fsum((between, -(tj / ti) * within_i,
                      -(ti / tj) * within_j)) / (ti + tj)


def vg_row(kind, sizes_i, sizes_j, cross, within_j):
    """``vg_kernel`` for many single clusters I against one block J.

    ``sizes_i`` holds the sizes of the single clusters (an int array of
    length m), ``sizes_j`` the q sizes of J, ``cross`` is a q x m array
    (column k: cluster k against each member of J) and ``within_j`` J's
    within block. Returns the m distances, each equal bit for bit to
    ``vg_kernel(kind, (sizes_i[k],), sizes_j, (cross[:, k],), None,
    within_j)``.

    Single and complete are a column minimum and maximum for any q. For
    q == 2 the other rules use the kernel's terms in the kernel's order:
    ``math.fsum`` of two terms is their IEEE sum, except that it never
    returns -0.0, hence the ``+ 0.0``. A single cluster's within sum is
    0.0, so ``fsum((between, -0.0, -w))`` is ``between - w``: the IEEE
    difference is -0.0 only when ``between`` is, and it never is.
    Larger blocks under the summing rules call ``vg_kernel`` per column.
    """
    if kind == SINGLE:
        return cross.min(axis=0)
    if kind == COMPLETE:
        return cross.max(axis=0)
    if len(sizes_j) != 2:
        return np.array([vg_kernel(kind, (s,), sizes_j, (col,), None, within_j)
                         for s, col in zip(sizes_i.tolist(), cross.T.tolist())],
                        dtype=np.float64)
    si = sizes_i
    s1, s2 = sizes_j
    c1, c2 = cross
    tj = s1 + s2
    if kind == UNWEIGHTED_AVERAGE:
        return (si * s1 * c1 + si * s2 * c2 + 0.0) / (si * tj)
    if kind == WEIGHTED_AVERAGE:
        return (c1 + c2 + 0.0) / 2
    w = within_j[0][1]
    if kind == UNWEIGHTED_CENTROID:
        between = (si * s1 * c1 + si * s2 * c2 + 0.0) / (si * tj)
        return between - math.fsum((s1 * s2 * w,)) / (tj * tj)
    if kind == WEIGHTED_CENTROID:
        between = (c1 + c2 + 0.0) / 2
        return between - math.fsum((w,)) / 4
    # joint between-within
    between = (si + s1) * c1 + (si + s2) * c2 + 0.0
    return (between - (si / tj) * math.fsum((tj * w,))) / (si + tj)


# ---- classical two-way update ----

def pg_update(kind, si, si2, sj, d_between, d_left, d_right):
    """Distance from the merge of two clusters to a third, unchecked.

    ``si`` and ``si2`` are the sizes of the merged clusters and ``sj`` that
    of the other; ``d_between`` is the distance separating the two merged
    clusters, ``d_left``/``d_right`` their distances to the other cluster.
    ``sj``, ``d_left`` and ``d_right`` may be numpy arrays, one entry per
    other cluster: the operations are the same IEEE ones in the same
    order, so each entry of the row equals the scalar result bit for bit.
    Single and complete are an exact minimum and maximum, as in ``vg_row``.
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
