import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidendro import (
    METHOD_KINDS,
    MethodSpec,
    UnsupportedMethod,
)
from multidendro.linkage import (
    COMPLETE,
    SINGLE,
    vg_update,
    within_term,
)

from block_update import pair_row, vg_block
from oracles import (
    Blocks,
    DimensionMismatch,
    InvalidAlpha,
    centroid_oracle,
    direct_distance,
    jbw_oracle,
    lance_williams,
    vg_distance_tabular,
    vg_kernel,
)

ALL_METHODS = [MethodSpec(kind) for kind in METHOD_KINDS]


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---- method specs ----

def test_unknown_method():
    with pytest.raises(UnsupportedMethod):
        MethodSpec("median")


def test_hyphenated_names_normalize():
    assert MethodSpec("unweighted-average").kind == "unweighted_average"


# ---- the block update ----

def _toy_block():
    # three singletons against one: cross distances 7, 5, 3
    return Blocks(
        sizes_i=(1, 1, 1),
        sizes_j=(1,),
        cross=((7.0,), (5.0,), (3.0,)),
        within_i=((0.0, 2.0, 4.0), (2.0, 0.0, 2.0), (4.0, 2.0, 0.0)),
        within_j=((0.0,),),
    )


@pytest.mark.parametrize("kind,expected", [
    ("single", 3.0),
    ("complete", 7.0),
    ("unweighted_average", 5.0),
    ("weighted_average", 5.0),
])
def test_vg_distance_toy_values(kind, expected):
    assert vg_block(kind, *_toy_block()) == expected


@pytest.mark.parametrize("method", ALL_METHODS)
def test_identity_on_single_cluster_blocks(method):
    # the engine never evaluates two single clusters (block J always holds
    # a merged group), so this is a property of the references only
    blocks = Blocks((3,), (2,), ((0.1,),), ((0.0,),), ((0.0,),))
    assert vg_kernel(method.kind, *blocks) == 0.1
    assert vg_distance_tabular(method, blocks) == 0.1


# ---- hypothesis strategies ----

dist = st.floats(min_value=0.05, max_value=50.0, allow_nan=False,
                 allow_infinity=False)
size = st.integers(min_value=1, max_value=5)


@st.composite
def block_views(draw, max_side=4):
    p = draw(st.integers(min_value=1, max_value=max_side))
    q = draw(st.integers(min_value=1, max_value=max_side))
    sizes_i = tuple(draw(size) for _ in range(p))
    sizes_j = tuple(draw(size) for _ in range(q))
    cross = tuple(tuple(draw(dist) for _ in range(q)) for _ in range(p))

    def within(k):
        w = [[0.0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                w[a][b] = w[b][a] = draw(dist)
        return tuple(tuple(row) for row in w)

    return Blocks(sizes_i, sizes_j, cross, within(p), within(q))


@settings(max_examples=120, deadline=None)
@given(blocks=block_views(), method=st.sampled_from(ALL_METHODS))
def test_tabular_route_matches_grouped_route(blocks, method):
    a = vg_block(method.kind, *blocks)
    b = vg_distance_tabular(method, blocks)
    assert close(a, b, 1e-12)


@settings(max_examples=120, deadline=None)
@given(
    sizes=st.tuples(size, size, size),
    d_between=dist, d_left=dist, d_right=dist,
    method=st.sampled_from(ALL_METHODS),
)
def test_two_against_one_reduces_to_classical(sizes, d_between, d_left,
                                              d_right, method):
    blocks = Blocks(
        sizes_i=sizes[:2],
        sizes_j=sizes[2:],
        cross=((d_left,), (d_right,)),
        within_i=((0.0, d_between), (d_between, 0.0)),
        within_j=((0.0,),),
    )
    expected = lance_williams(method.kind, *sizes, d_between, d_left, d_right)
    assert close(vg_block(method.kind, *blocks), expected, 1e-9)


@settings(max_examples=80, deadline=None)
@given(blocks=block_views(max_side=3), method=st.sampled_from(ALL_METHODS),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_block_order_and_side_swap_do_not_matter(blocks, method, seed):
    rng = np.random.default_rng(seed)
    perm_i = list(rng.permutation(blocks.p))
    perm_j = list(rng.permutation(blocks.q))
    shuffled = Blocks(
        sizes_i=tuple(blocks.sizes_i[i] for i in perm_i),
        sizes_j=tuple(blocks.sizes_j[j] for j in perm_j),
        cross=tuple(tuple(blocks.cross[i][j] for j in perm_j) for i in perm_i),
        within_i=tuple(tuple(blocks.within_i[a][b] for b in perm_i)
                       for a in perm_i),
        within_j=tuple(tuple(blocks.within_j[a][b] for b in perm_j)
                       for a in perm_j),
    )
    swapped = Blocks(
        sizes_i=shuffled.sizes_j,
        sizes_j=shuffled.sizes_i,
        cross=tuple(zip(*shuffled.cross)),
        within_i=shuffled.within_j,
        within_j=shuffled.within_i,
    )
    reference = vg_block(method.kind, *blocks)
    assert vg_block(method.kind, *shuffled) == reference
    assert vg_block(method.kind, *swapped) == reference


# ---- the classical merge: the block update with the pair as block J ----

def pair_kernel(kind, sizes_j, d_between, sizes, left, right):
    """``pair_row`` one column at a time, through the scalar ``vg_kernel``."""
    within = ((0.0, d_between), (d_between, 0.0))
    return [vg_kernel(kind, (int(s),), tuple(sizes_j), ((a, b),), None, within)
            for s, a, b in zip(sizes, left, right)]


def bits(x):
    return struct.pack("<d", x)


def assert_pair_row(kind, sizes_j, d_between, sizes, left, right, want=None):
    got = pair_row(kind, sizes_j, d_between, sizes, left, right).tolist()
    kernel = pair_kernel(kind, sizes_j, d_between, sizes, left, right)
    assert list(map(bits, got)) == list(map(bits, kernel))
    if want is not None:
        assert list(map(bits, got)) == list(map(bits, want))


def test_pg_unweighted_average():
    assert_pair_row("unweighted_average", (1, 1), 2.0, [1], [4.0], [2.0],
                    want=[3.0])


def test_pg_single_is_minimum():
    assert_pair_row("single", (1, 1), 2.0, [1], [4.0], [2.0], want=[2.0])


@pytest.mark.parametrize("kind, left, right, want", [
    (SINGLE, 0.1, 0.3, 0.1),
    (COMPLETE, 0.1, 0.3, 0.3),
    (SINGLE, 0.1, 1e20, 0.1),
    (COMPLETE, 1e20, 0.1, 1e20),
])
def test_pg_single_and_complete_are_exact(kind, left, right, want):
    # halving a sum and a difference loses bits: 0.1 and 0.3 gave
    # 0.10000000000000002, and 0.1 against 1e20 gave 0.0
    assert_pair_row(kind, (1, 1), 0.05, [1, 1], [left, right], [right, left],
                    want=[want, want])


def test_pg_unweighted_centroid():
    assert_pair_row("unweighted_centroid", (1, 1), 2.0, [1], [7.0], [5.0],
                    want=[5.5])


# ---- row forms against the scalar updates ----

# whole rows see negative values (centroid rules) and exact cancellations,
# where the sign of a zero result is the first thing to go wrong
signed = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
# the engine never stores -0.0 (the matrix keeps a written -0 as 0.0) and
# single and complete only copy stored values, so their rows see none
unsigned = st.floats(min_value=0.0, max_value=50.0).map(lambda x: x + 0.0)


def _within(data, value, k):
    w = [[0.0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            w[a][b] = w[b][a] = data.draw(value)
    return w


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(METHOD_KINDS), data=st.data())
def test_vg_update_matches_kernel(kind, data):
    # block J against several blocks I laid out along the columns, or
    # against single clusters alone (starts None), as the engine calls it
    value = unsigned if kind in (SINGLE, COMPLETE) else signed
    q = data.draw(st.integers(2, 5))
    single = data.draw(st.booleans())
    widths = data.draw(st.lists(st.integers(1, 1 if single else 4),
                                min_size=0 if single else 1, max_size=5))
    m = sum(widths)
    sizes_j = data.draw(st.lists(st.integers(1, 40), min_size=q, max_size=q))
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=m, max_size=m))
    cross = [data.draw(st.lists(value, min_size=m, max_size=m))
             for _ in range(q)]
    within_j = _within(data, value, q)
    within_i = [_within(data, value, p) for p in widths]
    starts = np.cumsum([0] + widths[:-1])

    def term(sizes, within):
        return within_term(kind, np.array(sizes, dtype=np.int64),
                           np.array(within, dtype=np.float64))

    got = vg_update(kind, np.array(sizes_j, dtype=np.int64),
                    term(sizes_j, within_j), np.array(sizes, dtype=np.int64),
                    np.array(cross, dtype=np.float64).reshape(q, m),
                    None if single else starts,
                    None if single else [term(sizes[lo:lo + p], w) for lo, p, w
                                         in zip(starts, widths, within_i)])
    want = [vg_kernel(kind, sizes[lo:lo + p], sizes_j,
                      [[cross[j][k] for j in range(q)]
                       for k in range(lo, lo + p)], w, within_j)
            for lo, p, w in zip(starts, widths, within_i)]
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_row_forms_keep_the_sign_of_zero(kind):
    # every sign pattern of zero distances, where an fsum returns +0.0 and
    # a plain IEEE sum of two -0.0 would not
    zeros = (0.0, -0.0)
    columns = list(itertools.product(zeros, repeat=2))
    if kind in (SINGLE, COMPLETE):
        columns = [(0.0, 0.0)]
    cross = np.array(columns, dtype=np.float64).T
    sizes_i = np.array([1, 2, 3, 4][:len(columns)], dtype=np.int64)
    sizes_j = np.array([2, 5], dtype=np.int64)
    for w in zeros:
        within = np.array([[0.0, w], [w, 0.0]])
        got = vg_update(kind, sizes_j, within_term(kind, sizes_j, within),
                        sizes_i, cross)
        want = [vg_kernel(kind, (int(s),), [2, 5], (list(col),), None, within)
                for s, col in zip(sizes_i, columns)]
        assert list(map(bits, got.tolist())) == list(map(bits, want))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(METHOD_KINDS), data=st.data())
def test_pg_update_row_matches_pg_distance(kind, data):
    # the classical merge's row, as the engine computes it, against the
    # scalar kernel with the merged pair as block J, down to the last bit
    value = unsigned if kind in (SINGLE, COMPLETE) else signed
    m = data.draw(st.integers(0, 6))
    sizes_j = data.draw(st.lists(st.integers(1, 40), min_size=2, max_size=2))
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=m, max_size=m))
    h = data.draw(value)
    left = data.draw(st.lists(value, min_size=m, max_size=m))
    right = data.draw(st.lists(value, min_size=m, max_size=m))
    assert_pair_row(kind, sizes_j, h, sizes, left, right)


# ---- flat recomputation ----

def test_direct_distance_toy(toy):
    sq = toy.as_square()
    m = MethodSpec
    assert direct_distance(m("single"), sq, [0, 1, 2], [3]) == 3.0
    assert direct_distance(m("complete"), sq, [0, 1, 2], [3]) == 7.0
    assert direct_distance(m("unweighted_average"), sq, [0, 1, 2], [3]) == 5.0


def test_direct_distance_jbw_two_singletons():
    got = direct_distance(MethodSpec("joint_between_within"),
                          [[0.0, 9.0], [9.0, 0.0]], [0], [1])
    assert got == 9.0


@pytest.mark.parametrize("kind", ["weighted_average", "unweighted_centroid",
                                  "weighted_centroid"])
def test_direct_distance_needs_points_for(kind, toy):
    with pytest.raises(UnsupportedMethod):
        direct_distance(MethodSpec(kind), toy.as_square(), [0], [1])


def test_direct_distance_rejects_overlap(toy):
    with pytest.raises(ValueError):
        direct_distance(MethodSpec("single"), toy.as_square(), [0, 1], [1, 2])


# ---- point oracles ----

def test_centroid_oracle_singletons():
    assert centroid_oracle([(0.0, 0.0)], [(3.0, 4.0)]) == 25.0


def test_centroid_oracle_means():
    assert centroid_oracle([(0.0, 0.0), (2.0, 0.0)], [(5.0, 0.0)]) == 16.0


def test_centroid_oracle_weighted_centers():
    # two clusters of unequal size count equally in the weighted center
    got = centroid_oracle([[(0.0, 0.0)], [(4.0, 0.0), (4.0, 0.0)]],
                          [[(5.0, 0.0)]], weighted=True)
    assert got == 9.0


def test_centroid_oracle_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        centroid_oracle([(0.0, 0.0)], [(1.0, 2.0, 3.0)])


def test_jbw_oracle_singletons():
    assert jbw_oracle([(0.0, 0.0)], [(3.0, 4.0)], alpha=1.0) == 5.0
    assert jbw_oracle([(0.0, 0.0)], [(3.0, 4.0)], alpha=2.0) == 25.0


def test_jbw_oracle_alpha_checked():
    with pytest.raises(InvalidAlpha):
        jbw_oracle([(0.0,)], [(1.0,)], alpha=0.0)
    with pytest.raises(InvalidAlpha):
        jbw_oracle([(0.0,)], [(1.0,)], alpha=2.1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_jbw_alpha_two_is_twice_weighted_squared_centroid(seed):
    rng = np.random.default_rng(seed)
    ni, nj = rng.integers(1, 6, size=2)
    dim = rng.integers(2, 5)
    pi = rng.uniform(-3, 3, size=(ni, dim))
    pj = rng.uniform(-3, 3, size=(nj, dim))
    jbw = jbw_oracle(pi, pj, alpha=2.0)
    weighted = (ni * nj / (ni + nj)) * centroid_oracle(pi, pj)
    assert close(jbw, 2.0 * weighted, 1e-9)
