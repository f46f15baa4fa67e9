"""Reference implementations that only the tests use.

Each one is the plain, element-by-element form of something the package
does in bulk, kept so that tests can check the fast path against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import NamedTuple

import numpy as np

from multidendro.errors import (
    AsymmetricInput,
    DuplicateLabel,
    FormatError,
    MultidendroError,
    NegativeValue,
    ParseError,
    UnsupportedMethod,
)
from multidendro.linkage import (
    COMPLETE,
    JOINT_BETWEEN_WITHIN,
    SINGLE,
    UNWEIGHTED_AVERAGE,
    UNWEIGHTED_CENTROID,
    WEIGHTED_AVERAGE,
    WEIGHTED_CENTROID,
)
from multidendro.proximity import (
    _SYM_TOL,
    _parse_value,
    _split_rows,
    round_half_away,
    round_half_away_array,
)
from multidendro.render import _escape, _fmt_height
from multidendro.tree import (
    _HEIGHT_RE,
    _LABEL_RE,
    Leaf,
    MultivaluedTree,
    internal,
    postorder,
    to_newick_extended,
)


def precision_from_every_token(tokens):
    """The written decimals of number tokens, one token at a time: None at
    the first exponent, else the most digits after a point; "_" separates
    digits and is no decimal place."""
    best = 0
    for tok in tokens:
        if "e" in tok or "E" in tok:
            return None
        frac = tok.split(".", 1)[1] if "." in tok else ""
        best = max(best, len(frac.replace("_", "")))
    return best


def _rows_and_labels(text, name):
    # the first row is a header when its first token is no number
    rows = _split_rows(text)
    try:
        float(rows[0][0])
    except ValueError:
        header, rows = rows[0], rows[1:]
    else:
        return rows, tuple("x%d" % (i + 1) for i in range(len(rows)))
    if not rows:
        raise FormatError("%s input has a header but no rows" % (name,))
    if len(header) != len(rows):
        raise FormatError("header names %d individuals but there are %d rows"
                          % (len(header), len(rows)))
    return rows, tuple(header)


def _bad_self_entry(value, self_value):
    # a NaN self entry is no match either
    return not abs(value - self_value) <= _SYM_TOL


def parse_square_scalar(text, self_value=0.0):
    """Square text read token by token: (labels, values, inferred precision).

    Raises the first error a row-by-row reading meets: header length, then
    each row's length and tokens in order, then per row its diagonal entry
    and its asymmetric pairs.
    """
    rows, labels = _rows_and_labels(text, "square")
    n = len(rows)
    grid = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise FormatError("row %d has %d entries, expected %d" % (r + 1, len(row), n))
        grid.append([_parse_value(tok) for tok in row])
    for i in range(n):
        if _bad_self_entry(grid[i][i], self_value):
            raise FormatError(
                "diagonal entry (%d,%d) must be %g" % (i + 1, i + 1, self_value)
            )
        for j in range(i + 1, n):
            if abs(grid[i][j] - grid[j][i]) > _SYM_TOL:
                raise AsymmetricInput(
                    "entry (%d,%d)=%r disagrees with (%d,%d)=%r"
                    % (i + 1, j + 1, grid[i][j], j + 1, i + 1, grid[j][i])
                )
    values = tuple(grid[i][j] for i in range(n) for j in range(i + 1, n))
    inferred = precision_from_every_token(tok for row in rows for tok in row)
    return labels, values, inferred


def parse_lower_scalar(text, self_value=0.0):
    """Lower-triangle text read token by token, checking each row's
    length, tokens and diagonal entry before the next row."""
    rows, labels = _rows_and_labels(text, "lower-triangle")
    n = len(rows)
    grid = {}
    for r, row in enumerate(rows):
        if len(row) != r + 1:
            raise FormatError(
                "lower-triangle row %d has %d entries, expected %d"
                % (r + 1, len(row), r + 1)
            )
        vals = [_parse_value(tok) for tok in row]
        if _bad_self_entry(vals[r], self_value):
            raise FormatError(
                "diagonal entry on row %d must be %g" % (r + 1, self_value)
            )
        for c in range(r):
            grid[(c, r)] = vals[c]
    values = tuple(grid[(i, j)] for i in range(n) for j in range(i + 1, n))
    inferred = precision_from_every_token(tok for row in rows for tok in row)
    return labels, values, inferred


def check_values_scalar(labels, values):
    """ProximityMatrix's label and value checks, one value at a time.

    Returns the stored values (a written -0 as 0.0) and the number of pairs
    at distance zero.
    """
    labels = tuple(str(x) for x in labels)
    values = tuple(float(v) for v in values)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel("label %r appears twice" % (lab,))
        seen.add(lab)
    zero_pairs = 0
    for v in values:
        if not math.isfinite(v):
            raise FormatError("distances must be finite, got %r" % (v,))
        if v < 0.0:
            raise NegativeValue("negative dissimilarity %r" % (v,))
        if v == 0.0:
            zero_pairs += 1
    if zero_pairs:
        values = tuple(0.0 if v == 0.0 else v for v in values)
    return values, zero_pairs


# ---- the scalar block update ----

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


# ---- the classical two-cluster update ----

def lance_williams(kind, si, si2, sj, d_between, d_left, d_right):
    """Distance from the merge of two clusters to a third, by the textbook
    Lance-Williams formula in plain IEEE operations.

    ``si`` and ``si2`` are the sizes of the merged clusters and ``sj`` that
    of the other; ``d_between`` is the distance separating the two merged
    clusters, ``d_left``/``d_right`` their distances to the other cluster.
    It agrees with the block update to rounding, not bit for bit.
    """
    if kind == SINGLE:
        return min(d_left, d_right)
    if kind == COMPLETE:
        return max(d_left, d_right)
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


# ---- the block update through an explicit coefficient table ----

class Blocks(NamedTuple):
    """The arguments of ``vg_kernel`` after its rule name, in its order, so
    ``vg_kernel(kind, *blocks)`` evaluates them.

    ``cross[i][j]`` is the distance between the i-th cluster of I and the
    j-th of J; ``within_i`` and ``within_j`` are full symmetric matrices
    with zero diagonals; sizes count individuals per cluster.
    """

    sizes_i: tuple
    sizes_j: tuple
    cross: tuple
    within_i: tuple
    within_j: tuple

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
    """Same quantity as ``vg_kernel(method.kind, *blocks)``, assembled term
    by term from weights."""
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
        values = [v for row in blocks.cross for v in row]
        if par.delta == 1:
            top = max(values)
            terms.extend(par.gamma(blocks, i, j) * (top - blocks.cross[i][j])
                         for i in range(p) for j in range(q))
        else:
            bottom = min(values)
            terms.extend(-par.gamma(blocks, i, j) * (blocks.cross[i][j] - bottom)
                         for i in range(p) for j in range(q))
    return math.fsum(terms)


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

class DimensionMismatch(MultidendroError):
    """Point sets whose coordinate dimensions disagree."""


class InvalidAlpha(MultidendroError):
    """A joint between-within exponent outside (0, 2]."""


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


# ---- the working state, scanned in full ----

def row_minima_full_scan(state):
    """Each slot's smallest distance to another live slot, inf for a
    retired slot."""
    live = state.live[:, None] & state.live[None, :]
    np.fill_diagonal(live, False)
    return np.where(live, state.dist, np.inf).min(axis=1)


def comparison_value(state, value):
    """A raw distance as ``state``'s ties compare it, one value at a time."""
    if state.precision is None:
        return float(value)
    return round_half_away(float(value), state.precision) + 0.0


def shortest_full_scan(state):
    """``ClusterState.shortest`` from a scan of every live pair, rounding
    each raw distance with the scalar ``round_half_away``.

    (raw value, comparison value, edges), the edges as (low slot, high
    slot) in row-major order.
    """
    live = np.flatnonzero(state.live).tolist()
    pairs = [(r, c) for r in live for c in live if r < c]
    keys = [comparison_value(state, state.dist[r, c]) for r, c in pairs]
    low_key = min(keys)
    edges = [pair for pair, key in zip(pairs, keys) if key == low_key]
    raws = [state.dist[r, c] for r, c in edges]
    return float(min(raws)), low_key, edges


# ---- single linkage as a minimum spanning tree ----

def single_linkage_mst(matrix):
    """Single linkage's tied groups from a minimum spanning tree, after
    Gower & Ross (1969).

    The tree is taken over the dense ranks of the comparison values (ranks
    keep ties exact, and start at 1 because csgraph drops zero weights).
    Single linkage joins, at each comparison level, every cluster that an
    edge of that level reaches, so all of one level's tree edges are
    joined at once. Returns one (comparison value, groups) entry per level
    that merges, ascending; a group is (leaves, children, h_lower,
    h_upper), leaves and each child as ascending leaf indices, children
    and groups ordered by smallest leaf, and the interval the smallest and
    largest raw single-linkage distance between two of its children.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial.distance import squareform

    n = matrix.n
    raw = squareform(matrix.condensed)
    keys = matrix.condensed
    if matrix.precision is not None:
        keys = round_half_away_array(keys, matrix.precision)
    levels, ranks = np.unique(keys, return_inverse=True)
    graph = coo_array((ranks + 1.0, np.triu_indices(n, 1)), shape=(n, n))
    mst = minimum_spanning_tree(graph).tocoo()
    edges = sorted(zip(mst.data.astype(np.int64).tolist(), mst.row.tolist(),
                       mst.col.tolist()))
    # each cluster is named by its smallest leaf
    label = np.arange(n)
    leaves_of = {i: np.array([i]) for i in range(n)}
    out = []
    for rank, level in groupby(edges, key=lambda edge: edge[0]):
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        for _, u, v in level:
            a, b = find(label[u]), find(label[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
        joined = {}
        for x in parent:
            joined.setdefault(find(x), [find(x)]).append(x)
        groups = []
        for root in sorted(joined):
            children = [leaves_of.pop(x) for x in sorted(joined[root])]
            values = []
            for k, child in enumerate(children[:-1]):
                rest = np.concatenate(children[k + 1:])
                cuts = np.cumsum([0] + [len(c) for c in children[k + 1:-1]])
                nearest = raw[np.ix_(child, rest)].min(axis=0)
                values.extend(np.minimum.reduceat(nearest, cuts).tolist())
            leaves = np.sort(np.concatenate(children))
            leaves_of[root] = leaves
            label[leaves] = root
            groups.append((tuple(leaves.tolist()),
                           tuple(tuple(c.tolist()) for c in children),
                           min(values), max(values)))
        out.append((float(levels[rank - 1]), groups))
    return out


# ---- every classical tie-break outcome ----

def pair_group_outcomes(matrix, kind):
    """Every raw outcome of the classical procedure, by plain recursion.

    No memo and no early collapse: each tied pair at each step is merged on
    its own copy of a pair -> distance table, with the scalar block update
    (``vg_kernel``) and the merged pair as block J.
    Ties are decided on distances rounded half away from zero to the
    matrix's precision. An outcome is the frozenset of its (members,
    height) merges, members as ascending leaf indices and heights raw.
    """
    precision = matrix.precision

    def key(value):
        return value if precision is None else round_half_away(value,
                                                               precision)

    found = set()

    def rec(members, sizes, table, made):
        if len(members) == 1:
            found.add(frozenset(made))
            return
        low = min(key(v) for v in table.values())
        for (a, b), d in table.items():
            if key(d) != low:
                continue
            new = max(members) + 1
            keep = [c for c in members if c not in (a, b)]
            table2 = {pair: v for pair, v in table.items()
                      if a not in pair and b not in pair}
            within = ((0.0, d), (d, 0.0))
            for c in keep:
                cross = ((table[min(a, c), max(a, c)],
                          table[min(b, c), max(b, c)]),)
                table2[(c, new)] = vg_kernel(kind, (sizes[c],),
                                             (sizes[a], sizes[b]), cross,
                                             None, within)
            merged = tuple(sorted(members[a] + members[b]))
            members2 = {c: members[c] for c in keep}
            members2[new] = merged
            sizes2 = {c: sizes[c] for c in keep}
            sizes2[new] = sizes[a] + sizes[b]
            rec(members2, sizes2, table2, made + [(merged, d)])

    n = matrix.n
    rec({i: (i,) for i in range(n)}, {i: 1 for i in range(n)},
        {(i, j): v for i, j, v in matrix.pairs()}, [])
    return found


def kept_pair_group_outcomes(outcomes, labels):
    """The outcomes ``enumerate_pair_group`` keeps, one tree built per raw
    outcome: (extended newick, postorder heights) per kept tree, sorted.

    Outcomes whose nesting and heights to 12 decimals agree collapse into
    one, and the one kept has the smallest heights read in postorder.
    """
    kept = {}
    for merges in outcomes:
        top = [Leaf(i, label) for i, label in enumerate(labels)]
        for members, h in sorted(merges, key=lambda merge: len(merge[0])):
            children = {id(top[i]): top[i] for i in members}
            node = internal(children.values(), h, h, fusion=h)
            for i in members:
                top[i] = node
        collapsed = frozenset((members, round(h, 12)) for members, h in merges)
        heights = [nd.h_lower for nd in postorder(node) if not nd.is_leaf]
        if collapsed not in kept or heights < kept[collapsed][0]:
            kept[collapsed] = (heights, node)
    return sorted(
        (to_newick_extended(MultivaluedTree(root=root, labels=labels)),
         heights)
        for heights, root in kept.values())


# ---- rendering ----

def render_svg_recursive(tree, width=720, row_height=24, margin=16,
                         label_gutter=None):
    """``render_svg`` as a recursive walk that scans each child's leaves
    for its row; its output is the reference for the iterative renderer."""
    leaves = list(tree.root.leaves())
    n = len(leaves)
    if label_gutter is None:
        label_gutter = 8 * max(len(leaf.label) for leaf in leaves) + 16
    top = margin
    plot_left = margin + label_gutter
    plot_right = width - margin
    axis_y = top + n * row_height + 12

    max_h = max([nd.h_upper for nd in tree.internal_nodes()] or [0.0])
    span = max_h if max_h > 0 else 1.0

    def x_of(h):
        return plot_left + (h / span) * (plot_right - plot_left)

    def f(v):
        return "%.2f" % (v,)

    rows = {leaf.index: top + (k + 0.5) * row_height
            for k, leaf in enumerate(leaves)}

    texts = []
    joins = []
    bands = []

    for k, leaf in enumerate(leaves):
        y = rows[leaf.index]
        texts.append(
            '<text x="%s" y="%s" font-family="monospace" font-size="12" '
            'dominant-baseline="middle">%s</text>'
            % (f(margin), f(y), _escape(leaf.label))
        )

    def draw_x(node):
        if node.is_leaf:
            return x_of(0.0)
        return x_of(node.fusion if node.fusion is not None else node.h_lower)

    def node_y(node):
        ys = [rows[leaf.index] for leaf in node.leaves()]
        return (min(ys) + max(ys)) / 2.0

    def walk(node):
        if node.is_leaf:
            return
        x = draw_x(node)
        if node.h_upper > node.h_lower:
            ys = [rows[leaf.index] for leaf in node.leaves()]
            bands.append(
                '<rect class="band" x="%s" y="%s" width="%s" height="%s" '
                'fill="#888888" fill-opacity="0.35"/>'
                % (f(x_of(node.h_lower)), f(min(ys) - row_height * 0.3),
                   f(x_of(node.h_upper) - x_of(node.h_lower)),
                   f(max(ys) - min(ys) + row_height * 0.6))
            )
        child_ys = []
        for child in node.children:
            cy = node_y(child)
            child_ys.append(cy)
            joins.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" '
                'stroke-width="1.5"/>'
                % (f(draw_x(child)), f(cy), f(x), f(cy))
            )
            walk(child)
        joins.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" '
            'stroke-width="1.5"/>'
            % (f(x), f(min(child_ys)), f(x), f(max(child_ys)))
        )

    walk(tree.root)

    axis = [
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999999" '
        'stroke-width="1"/>' % (f(plot_left), f(axis_y), f(plot_right), f(axis_y)),
        '<text x="%s" y="%s" font-family="monospace" font-size="10">0</text>'
        % (f(plot_left), f(axis_y + 12)),
        '<text x="%s" y="%s" font-family="monospace" font-size="10" '
        'text-anchor="end">%s</text>'
        % (f(plot_right), f(axis_y + 12), _fmt_height(span if max_h > 0 else 0.0)),
    ]

    height = axis_y + 24
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>'
        % (width, height),
    ]
    parts.extend(bands)
    parts.extend(joins)
    parts.extend(texts)
    parts.extend(axis)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def parse_newick_extended_recursive(text):
    """The recursive descent form of ``tree.parse_newick_extended``: one
    call per node, labels checked by a list scan, and the parsed tree
    rebuilt with leaves indexed by sorted label."""
    pos = 0
    labels = []
    decimals_seen = 0

    def fail(message):
        raise ParseError(message, pos)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            fail("expected %r" % (ch,))
        pos += 1

    def parse_height():
        nonlocal pos, decimals_seen
        skip_ws()
        m = _HEIGHT_RE.match(text, pos)
        if not m:
            fail("expected a height")
        tok = m.group(0)
        pos = m.end()
        if "e" not in tok and "E" not in tok and "." in tok:
            decimals_seen = max(decimals_seen, len(tok.split(".", 1)[1]))
        return float(tok)

    def parse_node():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            fail("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            children = [parse_node()]
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse_node())
                skip_ws()
            expect(")")
            if len(children) < 2:
                fail("internal nodes need at least two children")
            expect("[")
            lo = parse_height()
            expect(",")
            up = parse_height()
            expect("]")
            return internal(children, lo, up)
        m = _LABEL_RE.match(text, pos)
        if not m:
            fail("expected a label")
        label = m.group(0)
        pos = m.end()
        if label in labels:
            raise ParseError("label %r appears twice" % (label,), pos)
        labels.append(label)
        return Leaf(len(labels) - 1, label)

    root = parse_node()
    expect(";")
    skip_ws()
    if pos != len(text):
        fail("trailing text after ';'")

    order = {label: i for i, label in enumerate(sorted(labels))}

    def remap(node):
        if node.is_leaf:
            return Leaf(order[node.label], node.label)
        return internal([remap(c) for c in node.children],
                        node.h_lower, node.h_upper, node.fusion)

    return MultivaluedTree(root=remap(root), labels=tuple(sorted(labels)),
                           height_decimals=max(3, decimals_seen))


# ---- leaf lists, derived from cluster ids ----

def leaves_by_id(n, parts):
    """Map each merged cluster id -> its leaf ids ascending.

    ``parts`` maps a merged cluster's id to the ids it merged: a records
    merge's ``children`` or a trace group's ``member_ids``. Ids below ``n``
    are leaves. This is what records format 2 listed as ``members`` (as
    labels) and as a trace group's ``leaves``.
    """
    out = {}
    for cid in parts:
        found, stack = [], [cid]
        while stack:
            top = stack.pop()
            if top < n:
                found.append(top)
            else:
                stack.extend(parts[top])
        out[cid] = tuple(sorted(found))
    return out


def record_members(doc):
    """Map each merge id of a records document -> its member labels in
    label order."""
    labels = doc["labels"]
    parts = {m["id"]: m["children"] for m in doc["merges"]}
    return {mid: [labels[i] for i in leaves]
            for mid, leaves in leaves_by_id(len(labels), parts).items()}


def trace_leaves(trace):
    """Map each cluster id a merge trace forms -> its leaf ids ascending."""
    return leaves_by_id(trace.n_items, {g.cluster_id: g.member_ids
                                        for it in trace.iterations
                                        for g in it.groups})


# ---- tree comparison by leaf sets ----

def tree_equal_by_leaf_sets(a, b, tol=1e-9):
    """``tree_equal`` through ``node_heights``: the frozenset of member
    labels of every internal node, compared with its heights."""
    if set(a.labels) != set(b.labels):
        return False
    ha = a.node_heights()
    hb = b.node_heights()
    if set(ha) != set(hb):
        return False
    for members, (lo_a, up_a, _) in ha.items():
        lo_b, up_b, _ = hb[members]
        if abs(lo_a - lo_b) > tol or abs(up_a - up_b) > tol:
            return False
    return True
