"""Linkage rules over clusters and over whole blocks of clusters.

Seven rules are supported. ``pg_distance`` handles the classical case where
exactly two clusters merge; ``vg_distance`` handles the general case where a
block of tied clusters I merges against another block J, using only the
current between-cluster distances and cluster sizes. Its arithmetic lives in
``vg_kernel``, which takes plain sequences and checks nothing: the
variable-group engine calls it straight from its working matrix, while
``vg_distance`` takes a ``BlockView``, whose construction coerces and
validates the blocks once for outside callers. ``vg_distance_tabular``
evaluates the same quantity through an explicit coefficient table, one
weight per distance term; it exists so the two routes can be checked against
each other. ``direct_distance`` and the point oracles recompute distances
from the flat individual-by-individual data and are meant for tests, not
for the clustering loop.

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

from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    MissingDistance,
    UnsupportedMethod,
)

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


@dataclass(frozen=True)
class BlockView:
    """Distances needed to merge block I against block J.

    cross[i][j] is the distance between the i-th cluster of I and the j-th
    of J; within_i and within_j are full symmetric matrices with zero
    diagonals. Sizes count individuals per cluster.
    """

    sizes_i: tuple
    sizes_j: tuple
    cross: tuple
    within_i: tuple
    within_j: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes_i", tuple(int(s) for s in self.sizes_i))
        object.__setattr__(self, "sizes_j", tuple(int(s) for s in self.sizes_j))
        object.__setattr__(self, "cross", tuple(tuple(map(float, r)) for r in self.cross))
        object.__setattr__(self, "within_i", tuple(tuple(map(float, r)) for r in self.within_i))
        object.__setattr__(self, "within_j", tuple(tuple(map(float, r)) for r in self.within_j))
        p, q = len(self.sizes_i), len(self.sizes_j)
        if p == 0 or q == 0:
            raise MissingDistance("blocks must be non-empty")
        if any(s < 1 for s in self.sizes_i + self.sizes_j):
            raise MissingDistance("cluster sizes must be >= 1")
        if len(self.cross) != p or any(len(row) != q for row in self.cross):
            raise MissingDistance("cross block must be %d x %d" % (p, q))
        if len(self.within_i) != p or any(len(row) != p for row in self.within_i):
            raise MissingDistance("within_i block must be %d x %d" % (p, p))
        if len(self.within_j) != q or any(len(row) != q for row in self.within_j):
            raise MissingDistance("within_j block must be %d x %d" % (q, q))

    @property
    def p(self):
        return len(self.sizes_i)

    @property
    def q(self):
        return len(self.sizes_j)

    @property
    def total_i(self):
        return sum(self.sizes_i)

    @property
    def total_j(self):
        return sum(self.sizes_j)


def _flat(rows):
    return [v for row in rows for v in row]


def vg_distance(method, blocks):
    """Distance between the merged block I and merged block J.

    Works for any block shapes, reduces to the classical two-cluster update
    when I has two members and J one, and returns the cross distance
    unchanged when each block holds a single cluster.
    """
    return vg_kernel(method.kind, blocks.sizes_i, blocks.sizes_j,
                     blocks.cross, blocks.within_i, blocks.within_j)


def vg_kernel(kind, sizes_i, sizes_j, cross, within_i, within_j):
    """``vg_distance`` over plain sequences shaped as in ``BlockView``.

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


# ---- explicit coefficient route ----

@dataclass(frozen=True)
class VGParams:
    """Per-term weights of the block update, plus the min/max switch.

    ``delta`` is 1 when the weighted deviations are taken from the largest
    cross distance, 0 when from the smallest, None when that term is absent
    (gamma treated as zero).
    """

    alpha: object
    beta_left: object = None
    beta_right: object = None
    gamma: object = None
    delta: "int | None" = None


def _params_for(method):
    kind = method.kind
    if kind == SINGLE:
        return VGParams(
            alpha=lambda b, i, j: 1.0 / (b.p * b.q),
            gamma=lambda b, i, j: 1.0 / (b.p * b.q),
            delta=0,
        )
    if kind == COMPLETE:
        return VGParams(
            alpha=lambda b, i, j: 1.0 / (b.p * b.q),
            gamma=lambda b, i, j: 1.0 / (b.p * b.q),
            delta=1,
        )
    if kind == UNWEIGHTED_AVERAGE:
        return VGParams(
            alpha=lambda b, i, j: (b.sizes_i[i] * b.sizes_j[j]) / (b.total_i * b.total_j),
        )
    if kind == WEIGHTED_AVERAGE:
        return VGParams(alpha=lambda b, i, j: 1.0 / (b.p * b.q))
    if kind == UNWEIGHTED_CENTROID:
        return VGParams(
            alpha=lambda b, i, j: (b.sizes_i[i] * b.sizes_j[j]) / (b.total_i * b.total_j),
            beta_left=lambda b, i, i2: -(b.sizes_i[i] * b.sizes_i[i2]) / (b.total_i ** 2),
            beta_right=lambda b, j, j2: -(b.sizes_j[j] * b.sizes_j[j2]) / (b.total_j ** 2),
        )
    if kind == WEIGHTED_CENTROID:
        return VGParams(
            alpha=lambda b, i, j: 1.0 / (b.p * b.q),
            beta_left=lambda b, i, i2: -1.0 / (b.p ** 2),
            beta_right=lambda b, j, j2: -1.0 / (b.q ** 2),
        )
    return VGParams(
        alpha=lambda b, i, j: (b.sizes_i[i] + b.sizes_j[j]) / (b.total_i + b.total_j),
        beta_left=lambda b, i, i2: -(b.total_j / b.total_i)
        * (b.sizes_i[i] + b.sizes_i[i2]) / (b.total_i + b.total_j),
        beta_right=lambda b, j, j2: -(b.total_i / b.total_j)
        * (b.sizes_j[j] + b.sizes_j[j2]) / (b.total_i + b.total_j),
    )


def vg_distance_tabular(method, blocks):
    """Same quantity as vg_distance, assembled term by term from weights."""
    par = _params_for(method)
    p, q = blocks.p, blocks.q
    terms = [par.alpha(blocks, i, j) * blocks.cross[i][j]
             for i in range(p) for j in range(q)]
    if par.beta_left is not None:
        terms.extend(par.beta_left(blocks, i, i2) * blocks.within_i[i][i2]
                     for i, i2 in combinations(range(p), 2))
    if par.beta_right is not None:
        terms.extend(par.beta_right(blocks, j, j2) * blocks.within_j[j][j2]
                     for j, j2 in combinations(range(q), 2))
    if par.delta is not None:
        values = _flat(blocks.cross)
        if par.delta == 1:
            top = max(values)
            terms.extend(par.gamma(blocks, i, j) * (top - blocks.cross[i][j])
                         for i in range(p) for j in range(q))
        else:
            bottom = min(values)
            terms.extend(-par.gamma(blocks, i, j) * (blocks.cross[i][j] - bottom)
                         for i in range(p) for j in range(q))
    return math.fsum(terms)


# ---- classical two-way update ----

def pg_distance(method, sizes, d_between, d_left, d_right):
    """Distance from the merge of two clusters to a third.

    ``sizes`` is (|left|, |right|, |other|); ``d_between`` the distance
    separating the two merged clusters, ``d_left``/``d_right`` their
    distances to the other cluster.
    """
    si, si2, sj = (int(s) for s in sizes)
    if min(si, si2, sj) < 1:
        raise MissingDistance("cluster sizes must be >= 1")
    kind = method.kind
    if kind == SINGLE:
        return 0.5 * d_left + 0.5 * d_right - 0.5 * abs(d_left - d_right)
    if kind == COMPLETE:
        return 0.5 * d_left + 0.5 * d_right + 0.5 * abs(d_left - d_right)
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


# ---- flat recomputation over individuals ----

def direct_distance(method, matrix, side_i, side_j):
    """Between-group distance straight from the individual distances.

    ``matrix`` is a full square array over individuals; sides are disjoint
    index collections. Defined for single, complete, unweighted_average and
    joint_between_within (where the matrix must already hold the
    alpha-powered distances). The centroid rules need coordinates, not
    distances; they are covered by centroid_oracle.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    side_i = list(side_i)
    side_j = list(side_j)
    if not side_i or not side_j or set(side_i) & set(side_j):
        raise ValueError("sides must be non-empty and disjoint")
    cross = arr[np.ix_(side_i, side_j)]
    kind = method.kind
    if kind == SINGLE:
        return float(cross.min())
    if kind == COMPLETE:
        return float(cross.max())
    if kind == UNWEIGHTED_AVERAGE:
        return float(cross.mean())
    if kind == JOINT_BETWEEN_WITHIN:
        ni, nj = len(side_i), len(side_j)
        theta_ij = float(cross.mean())
        theta_ii = float(arr[np.ix_(side_i, side_i)].mean())
        theta_jj = float(arr[np.ix_(side_j, side_j)].mean())
        return (ni * nj / (ni + nj)) * (2.0 * theta_ij - theta_ii - theta_jj)
    raise UnsupportedMethod(
        "no individual-level distance form for %r" % (kind,)
    )


# ---- point oracles ----

def _as_points(obj, what):
    pts = np.asarray(obj, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DimensionMismatch("%s must be a non-empty set of points" % (what,))
    return pts


def centroid_oracle(points_i, points_j, weighted=False):
    """Squared distance between group centers, computed from coordinates.

    Unweighted: each side is a flat point set and the center is its mean.
    Weighted: each side is a sequence of clusters of points and the center
    is the plain mean of the cluster centers, so small clusters count as
    much as large ones.
    """
    if weighted:
        centers_i = [_as_points(c, "cluster").mean(axis=0) for c in points_i]
        centers_j = [_as_points(c, "cluster").mean(axis=0) for c in points_j]
        dims = {len(c) for c in centers_i} | {len(c) for c in centers_j}
        if len(dims) != 1:
            raise DimensionMismatch("clusters live in different dimensions")
        center_i = np.mean(centers_i, axis=0)
        center_j = np.mean(centers_j, axis=0)
    else:
        pi = _as_points(points_i, "points_i")
        pj = _as_points(points_j, "points_j")
        if pi.shape[1] != pj.shape[1]:
            raise DimensionMismatch(
                "points have dimension %d vs %d" % (pi.shape[1], pj.shape[1])
            )
        center_i = pi.mean(axis=0)
        center_j = pj.mean(axis=0)
    diff = center_i - center_j
    return float(np.dot(diff, diff))


def jbw_oracle(points_i, points_j, alpha=1.0):
    """Joint between-within distance computed from coordinates.

    Uses the alpha-powered Euclidean distances: the size-scaled difference
    between the mean cross value and the two mean within values (self pairs
    included at zero).
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise InvalidAlpha("alpha must lie in (0, 2], got %r" % (alpha,))
    pi = _as_points(points_i, "points_i")
    pj = _as_points(points_j, "points_j")
    if pi.shape[1] != pj.shape[1]:
        raise DimensionMismatch(
            "points have dimension %d vs %d" % (pi.shape[1], pj.shape[1])
        )

    def mean_pow(a, b):
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        return float((d ** alpha).mean())

    ni, nj = len(pi), len(pj)
    theta_ij = mean_pow(pi, pj)
    theta_ii = mean_pow(pi, pi)
    theta_jj = mean_pow(pj, pj)
    return (ni * nj / (ni + nj)) * (2.0 * theta_ij - theta_ii - theta_jj)
