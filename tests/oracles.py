"""Reference implementations that only the tests use.

Each one is the plain, element-by-element form of something the package
does in bulk, kept so that tests can check the fast path against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from multidendro.errors import (
    AsymmetricInput,
    DuplicateLabel,
    FormatError,
    InvalidAlpha,
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
    _default_labels,
    _infer_precision,
    _parse_value,
    _pop_header,
    _split_rows,
)
from multidendro.render import _escape, _fmt_height
from multidendro.tree import (
    _HEIGHT_RE,
    _LABEL_RE,
    Leaf,
    MultivaluedTree,
    internal,
)


def parse_square_scalar(text, self_value=0.0):
    """Square text read token by token: (labels, values, inferred precision).

    Raises the first error a row-by-row reading meets: header length, then
    each row's length and tokens in order, then per row its diagonal entry
    and its asymmetric pairs.
    """
    rows = _split_rows(text)
    header, rows = _pop_header(rows)
    n = len(rows)
    if n == 0:
        raise FormatError("square input has a header but no rows")
    if header is not None and len(header) != n:
        raise FormatError(
            "header names %d individuals but there are %d rows" % (len(header), n)
        )
    grid = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise FormatError("row %d has %d entries, expected %d" % (r + 1, len(row), n))
        grid.append([_parse_value(tok) for tok in row])
    for i in range(n):
        if abs(grid[i][i] - self_value) > _SYM_TOL:
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
    labels = tuple(header) if header is not None else _default_labels(n)
    inferred = _infer_precision([tok for row in rows for tok in row])
    return labels, values, inferred


def parse_lower_scalar(text, self_value=0.0):
    """Lower-triangle text read token by token, checking each row's
    length, tokens and diagonal entry before the next row."""
    rows = _split_rows(text)
    header, rows = _pop_header(rows)
    n = len(rows)
    if header is not None and len(header) != n:
        raise FormatError(
            "header names %d individuals but there are %d rows" % (len(header), n)
        )
    grid = {}
    for r, row in enumerate(rows):
        if len(row) != r + 1:
            raise FormatError(
                "lower-triangle row %d has %d entries, expected %d"
                % (r + 1, len(row), r + 1)
            )
        vals = [_parse_value(tok) for tok in row]
        if abs(vals[r] - self_value) > _SYM_TOL:
            raise FormatError(
                "diagonal entry on row %d must be %g" % (r + 1, self_value)
            )
        for c in range(r):
            grid[(c, r)] = vals[c]
    values = tuple(grid[(i, j)] for i in range(n) for j in range(i + 1, n))
    labels = tuple(header) if header is not None else _default_labels(n)
    inferred = _infer_precision([tok for row in rows for tok in row])
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


# ---- the block update through an explicit coefficient table ----

class Blocks(NamedTuple):
    """The arguments of ``linkage.vg_kernel`` after its rule name, in its
    order, so ``vg_kernel(kind, *blocks)`` evaluates them.

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
    """Each slot's smallest comparison value, inf for a retired slot."""
    keys = np.where(state.live[:, None] & state.live[None, :], state.keys,
                    np.inf)
    return keys.min(axis=1)


def shortest_full_scan(state):
    """``ClusterState.shortest`` from a scan of every live pair.

    (raw value, comparison value, edges), the edges as (low slot, high
    slot) in row-major order.
    """
    live = np.flatnonzero(state.live).tolist()
    low_key = min(state.keys[r, c] for r in live for c in live if r < c)
    edges, raws = [], []
    for r in live:
        for c in live:
            if r < c and state.keys[r, c] == low_key:
                edges.append((r, c))
                raws.append(state.dist[r, c])
    return float(min(raws)), float(low_key), edges


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
