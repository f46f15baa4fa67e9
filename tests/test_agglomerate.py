import dataclasses
import itertools
import json
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidendro import (
    METHOD_KINDS,
    ClusterState,
    EmptyInput,
    FusionFallbackWarning,
    MethodSpec,
    MultivaluedTree,
    OutOfRange,
    PolicyUnavailable,
    ProximityMatrix,
    TooManySolutions,
    cluster_pair_group,
    cluster_variable_group,
    cophenetic_matrix,
    detect_reversals,
    enumerate_pair_group,
    fusion_value,
    internal,
    to_newick_extended,
    tree_equal,
)
from multidendro import (
    parse_records,
    records_to_json,
    render_svg,
    to_records,
    validate_tree,
)
from multidendro import agglomerate
from multidendro.agglomerate import _groups_from_edges
from multidendro.proximity import round_half_away
from multidendro.tree import postorder

from oracles import (
    kept_pair_group_outcomes,
    pair_group_outcomes,
    record_members,
    row_minima_full_scan,
    shortest_full_scan,
    single_linkage_mst,
)


def condensed(square):
    n = len(square)
    return tuple(square[i][j] for i in range(n) for j in range(i + 1, n))


def matrix_from_square(square, labels=None, precision=None):
    n = len(square)
    labels = labels or tuple(f"x{i + 1}" for i in range(n))
    return ProximityMatrix(labels=tuple(labels), values=condensed(square),
                           precision=precision)


# ---- tie detection ----

def test_tie_groups_toy(toy):
    state = ClusterState.from_matrix(toy)
    low_raw, low_key, edges = state.shortest()
    assert low_raw == 2.0
    assert edges == [(0, 1), (1, 2)]
    assert _groups_from_edges(edges) == [(0, 1, 2)]


def test_tie_groups_many_components():
    # unit edges: 1-2, 3-4, 4-5, 3-5, 6-7, 7-8 (0 stays alone)
    unit = {(1, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8)}
    square = [[0.0] * 9 for _ in range(9)]
    for i in range(9):
        for j in range(i + 1, 9):
            square[i][j] = square[j][i] = 1.0 if (i, j) in unit else 5.0
    state = ClusterState.from_matrix(matrix_from_square(square))
    _, _, edges = state.shortest()
    assert _groups_from_edges(edges) == [(1, 2), (3, 4, 5), (6, 7, 8)]


def test_tie_groups_respect_precision():
    square = [
        [0.0, 1.04, 9.0],
        [1.04, 0.0, 0.96],
        [9.0, 0.96, 0.0],
    ]
    # raw values differ, one-decimal comparison makes them tie at 1.0
    rounded = matrix_from_square(square, precision=1)
    state = ClusterState.from_matrix(rounded)
    low_raw, low_key, edges = state.shortest()
    assert low_key == 1.0
    assert low_raw == 0.96
    assert _groups_from_edges(edges) == [(0, 1, 2)]

    raw = matrix_from_square(square)
    state = ClusterState.from_matrix(raw)
    _, _, edges = state.shortest()
    assert _groups_from_edges(edges) == [(1, 2)]


# ---- cached row minima ----

def _check_state(state):
    bits = lambda values: [struct.pack("<d", v) for v in values]
    assert bits(state.row_min.tolist()) == bits(
        row_minima_full_scan(state).tolist())
    live = state.live_slots().tolist()
    for r in live:
        if len(live) > 1:
            assert state.dist[r, state.row_arg[r]] == state.row_min[r]
        assert state.dist[r, r] == np.inf
    retired = (~state.live).nonzero()[0]
    assert (state.dist[retired] == np.inf).all()
    assert (state.dist[:, retired] == np.inf).all()
    if len(live) > 1:
        assert state.shortest() == shortest_full_scan(state)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(METHOD_KINDS), data=st.data())
def test_cached_minima_match_full_scan_after_random_merges(kind, data):
    # quarter quanta from few values: ties, rounding at 0, 1, 2 and 25
    # decimals (the last one value at a time), and with the centroid rules
    # negative distances; offsets of 2**40 - 2 and 2**41 quanta take the
    # values to and past the 2**40 quanta where rounding leaves the
    # whole-array path and proximity.tie_edge its float bounds
    n = data.draw(st.integers(2, 9))
    values = data.draw(st.lists(st.integers(1, 12), min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    precision = data.draw(st.sampled_from([None, 0, 1, 2, 25]))
    quantum = 10.0 ** -(precision or 0)
    offset = data.draw(st.sampled_from([0.0, 2.0 ** 40 - 2, 2.0 ** 41]))
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)),
                             tuple((offset + v / 4) * quantum for v in values),
                             precision=precision)
    method = MethodSpec(kind)
    state = ClusterState.from_matrix(matrix)
    _check_state(state)
    while state.count > 1:
        live = state.live_slots().tolist()
        if data.draw(st.booleans()):
            state.merge([tuple(sorted(data.draw(st.permutations(live))[:2]))],
                        method)
        else:
            # random disjoint groups; at least one has two members
            tags = data.draw(st.lists(st.integers(0, len(live) - 1),
                                      min_size=len(live), max_size=len(live)))
            tags[1] = tags[0]
            by_tag = {}
            for s, tag in zip(live, tags):
                by_tag.setdefault(tag, []).append(s)
            # merged as the engine merges tied groups, but need not tie
            groups = sorted(tuple(g) for g in by_tag.values() if len(g) > 1)
            state.merge(groups, method)
        _check_state(state)


def test_cached_minima_keep_positive_zero():
    # a centroid update of -0.0625 is the smallest distance and rounds to
    # -0.0 at 0 places, so it ties with the distances that round to +0.0
    n = 7
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)),
                             tuple(v / 4 for v in [1] * 19 + [5, 1]),
                             precision=0)
    state = ClusterState.from_matrix(matrix)
    state.merge([(4, 6)], MethodSpec("unweighted_centroid"))
    _check_state(state)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_shortest_refuses_a_distance_that_is_not_finite(bad):
    # nothing ties with inf or NaN, so an engine would find no pair to
    # merge and loop; a distance update that overflows leaves them
    state = ClusterState.from_matrix(
        ProximityMatrix(("a", "b", "c"), (1.0, 2.0, 3.0), precision=0))
    state.row_min[:] = bad
    with pytest.raises(ValueError, match="no finite distance left"):
        state.shortest()
    # values past proximity.MAX_VALUE, whose updates would overflow, are
    # refused where every engine builds its state
    huge = ProximityMatrix(("a", "b", "c"), (1.7e308,) * 3)
    for run in (cluster_variable_group, cluster_pair_group,
                enumerate_pair_group):
        with pytest.raises(OutOfRange, match=r"^value 1\.7e\+308 is above"):
            run(huge, "unweighted_centroid")


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
def test_engines_refuse_to_merge_below_zero():
    # x1-x2 at 0.4 ties with the zeros at 0 places and merges first, and
    # the centroid update from that pair takes x3 to -0.1
    matrix = ProximityMatrix(("x1", "x2", "x3"), (0.4, 0.0, 0.0),
                             precision=0)
    for run in (lambda: cluster_pair_group(matrix, "unweighted_centroid"),
                lambda: enumerate_pair_group(matrix, "unweighted_centroid")):
        with pytest.raises(ValueError, match="went negative, to -0.1;"):
            run()


@pytest.mark.parametrize("precision", [None, 0, 2])
def test_state_setup_builds_one_square(precision):
    # one n x n float64 working matrix plus its n x n boolean triangle
    # mask; a second, rounded square would pass 2 * n * n * 8 bytes
    n = 600
    values = np.random.default_rng(5).uniform(0.0, 10.0, n * (n - 1) // 2)
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)), values,
                             precision=precision)
    tracemalloc.start()
    try:
        state = ClusterState.from_matrix(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.dist.shape == (n, n)
    assert peak < 1.5 * n * n * 8


# ---- single linkage at scale ----

def _variable_group_levels(matrix):
    # cluster_variable_group's trace in single_linkage_mst's form
    _, trace = cluster_variable_group(matrix, "single")
    leaves = {i: (i,) for i in range(matrix.n)}
    out = []
    for it in trace.iterations:
        groups = []
        for g in it.groups:
            children = tuple(sorted(leaves[c] for c in g.member_ids))
            leaves[g.cluster_id] = tuple(sorted(i for c in children for i in c))
            groups.append((leaves[g.cluster_id], children, g.h_lower,
                           g.h_upper))
        level = it.d_lower
        if matrix.precision is not None:
            level = round_half_away(level, matrix.precision)
        out.append((level, groups))
    return out


@pytest.mark.parametrize("precision", [None, 0, 1, 2])
def test_single_linkage_matches_minimum_spanning_tree(precision):
    pytest.importorskip("scipy.sparse.csgraph")
    # a square 1000 quanta wide: 44 levels merge 1,225 groups, the
    # largest of 13 clusters
    n = 1500
    width = 10.0 if precision is None else 1000 * 10.0 ** -precision
    points = np.random.default_rng(11).uniform(0.0, width, (n, 2))
    rows, cols = np.triu_indices(n, 1)
    values = np.hypot(*(points[rows] - points[cols]).T)
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)), values,
                             precision=precision)
    assert _variable_group_levels(matrix) == single_linkage_mst(matrix)


# ---- fusion values ----

TRIPLE_WITHIN = ((0.0, 2.0, 3.0), (2.0, 0.0, 4.0), (3.0, 4.0, 0.0))


def test_fusion_interval_policy_has_no_value():
    with pytest.raises(PolicyUnavailable):
        fusion_value((1, 1, 1), TRIPLE_WITHIN, MethodSpec("single"),
                     "interval")


def test_fusion_shortest_is_group_minimum():
    got = fusion_value((1, 1, 1), TRIPLE_WITHIN, MethodSpec("complete"),
                       "shortest")
    assert got == 2.0


@pytest.mark.parametrize("kind,expected", [
    ("single", 2.0),
    ("complete", 4.0),
    ("weighted_average", 3.0),
])
def test_fusion_natural_summaries(kind, expected):
    got = fusion_value((1, 1, 1), TRIPLE_WITHIN, MethodSpec(kind), "natural")
    assert got == expected


def test_fusion_natural_weights_by_size():
    got = fusion_value((1, 1, 2), TRIPLE_WITHIN,
                       MethodSpec("unweighted_average"), "natural")
    # (1*1*2 + 1*2*3 + 1*2*4) / (1 + 2 + 2)
    assert got == 16.0 / 5.0


def test_fusion_natural_falls_back_with_warning():
    with pytest.warns(FusionFallbackWarning):
        got = fusion_value((1, 1, 1), TRIPLE_WITHIN,
                           MethodSpec("unweighted_centroid"), "natural")
    assert got == 2.0


def test_fusion_takes_a_method_name():
    assert fusion_value([1, 1], [[0, 1], [1, 0]], "single", "natural") == 1
    assert fusion_value((1, 1, 1), TRIPLE_WITHIN, "weighted-average",
                        "natural") == 3.0


# ---- variable-group engine ----

def test_vg_toy_tree_and_trace(toy):
    tree, trace = cluster_variable_group(toy, "unweighted_average")
    want = "((x1,x2,x3)[2.000,4.000],x4)[5.000,5.000];"
    assert to_newick_extended(tree) == want

    assert trace.n_items == 4
    assert len(trace.iterations) == 2
    first, second = trace.iterations
    assert first.d_lower == 2.0
    assert first.d_next == 5.0
    assert first.reversal is False
    merged = first.groups[0]
    assert merged.member_ids == (0, 1, 2)
    assert not hasattr(merged, "leaves")  # they follow from member_ids
    assert (merged.h_lower, merged.h_upper) == (2.0, 4.0)
    assert len(first.groups) == 1  # x4 passes unmerged and is not recorded
    assert second.d_lower == 5.0
    assert second.d_next is None


def test_vg_natural_fusion_toy(toy):
    tree, _ = cluster_variable_group(toy, "unweighted_average",
                                     policy="natural")
    root_child = tree.root.children[0]
    assert root_child.fusion == 8.0 / 3.0
    assert tree.root.fusion == 5.0


def test_vg_shortest_fusion_toy(toy):
    tree, _ = cluster_variable_group(toy, "unweighted_average",
                                     policy="shortest")
    assert tree.root.children[0].fusion == 2.0


def test_vg_natural_fallback_notes_once(toy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may escape
        tree, trace = cluster_variable_group(toy, "unweighted_centroid",
                                             policy="natural")
    assert any("shortest" in note for note in trace.notes)
    assert len(trace.notes) == 1
    node = tree.root.children[0]
    assert node.fusion == node.h_lower


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
def test_vg_d_next_chains_to_next_d_lower():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        pts = rng.integers(0, 6, size=(n, 2)).astype(float)
        square = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        matrix = matrix_from_square(square.tolist(), precision=1)
        _, trace = cluster_variable_group(matrix, "single")
        for here, there in itertools.pairwise(trace.iterations):
            assert here.d_next == there.d_lower
        assert trace.iterations[-1].d_next is None


def test_vg_empty_and_singleton():
    with pytest.raises(EmptyInput):
        cluster_variable_group(ProximityMatrix(labels=(), values=()),
                               "single")
    one = ProximityMatrix(labels=("only",), values=())
    tree, trace = cluster_variable_group(one, "single")
    assert tree.labels == ("only",)
    assert tree.root.is_leaf
    assert trace.iterations == ()


def test_vg_two_items():
    two = matrix_from_square([[0.0, 3.0], [3.0, 0.0]], labels=("a", "b"))
    tree, trace = cluster_variable_group(two, "complete")
    assert to_newick_extended(tree) == "(a,b)[3.000,3.000];"
    assert trace.iterations[0].d_lower == 3.0


def test_vg_reversal_flagged_on_toy_single(toy):
    tree, trace = cluster_variable_group(toy, "single", policy="shortest")
    assert trace.iterations[-1].reversal is True
    reports = detect_reversals(trace)
    kinds = sorted(r.kind for r in reports)
    assert "interval" in kinds
    hit = next(r for r in reports if r.kind == "interval")
    assert hit.child == ("x1", "x2", "x3")
    assert hit.child_value == 4.0
    assert hit.parent_value == 3.0
    # the finished tree shows the same inversion
    tree_reports = detect_reversals(tree)
    assert any(r.kind == "interval" for r in tree_reports)


def centroid_runs():
    """(tree, trace) of seeded centroid runs on whole-number squared
    distances of small integer clouds, where the centroid rules reverse
    often."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        pts = rng.integers(0, 6, size=(n, 2))
        square = ((pts[:, None] - pts[None]) ** 2).sum(-1).astype(float)
        matrix = matrix_from_square(square.tolist(), precision=0)
        for kind in ("unweighted_centroid", "weighted_centroid"):
            for policy in ("interval", "natural"):
                yield cluster_variable_group(matrix, kind, policy)


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
def test_reversals_from_trace_and_tree_agree():
    # a trace is read as the tree its groups form, so both report in preorder
    with_reversals = 0
    for tree, trace in centroid_runs():
        from_trace = detect_reversals(trace)
        assert from_trace == detect_reversals(tree)
        with_reversals += bool(from_trace)
    assert with_reversals >= 10


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
def test_reversals_from_a_partial_trace():
    # the first k iterations of a run form a forest: its trace reports the
    # reversals inside each subtree, root by root in the order they formed
    far = 100.0
    twins = matrix_from_square([  # two reversed triples, far apart
        [0.0, 4.0, 4.5, far, far, far], [4.0, 0.0, 4.5, far, far, far],
        [4.5, 4.5, 0.0, far, far, far], [far, far, far, 0.0, 5.0, 5.5],
        [far, far, far, 5.0, 0.0, 5.5], [far, far, far, 5.5, 5.5, 0.0]],
        labels=tuple("abcdef"), precision=1)
    twin_run = cluster_variable_group(twins, "unweighted_centroid")
    forest = dataclasses.replace(twin_run[1],
                                 iterations=twin_run[1].iterations[:4])
    assert [report.child for report in detect_reversals(forest)] == [
        ("a", "b"), ("d", "e")]
    forests = 0
    for tree, trace in itertools.chain(centroid_runs(), [twin_run]):
        node_of = {frozenset(leaf.label for leaf in node.leaves()): node
                   for node in tree.internal_nodes()}
        full = detect_reversals(tree)
        for k in range(1, len(trace.iterations)):
            partial = dataclasses.replace(trace,
                                          iterations=trace.iterations[:k])
            # each unmerged cluster's leaves, read off the groups alone
            leaves = {i: {label} for i, label in enumerate(trace.labels)}
            for it in partial.iterations:
                for grp in it.groups:
                    leaves[grp.cluster_id] = set().union(
                        *(leaves.pop(cid) for cid in grp.member_ids))
            roots = [node_of[frozenset(members)]
                     for cid, members in leaves.items()
                     if cid >= trace.n_items]
            want = tuple(report for root in roots for report in
                         detect_reversals(MultivaluedTree(root, tree.labels)))
            assert detect_reversals(partial) == want
            # the whole tree's reports whose parent the forest holds
            inside = {frozenset(leaf.label for leaf in node.leaves())
                      for root in roots for node in postorder(root)}
            assert set(want) == {report for report in full
                                 if frozenset(report.parent) in inside}
            forests += len(roots) > 1 and bool(want)
    assert forests >= 5


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
def test_reversal_scan_consumers_agree():
    # records flag the nodes detect_reversals names, and validate_tree
    # words each report once; a node can top its parent in both ways
    flagged_runs = 0
    for tree, _ in centroid_runs():
        reports = detect_reversals(tree)
        doc = to_records(tree)
        members = record_members(doc)
        flagged = {tuple(members[m["id"]]) for m in doc["merges"]
                   if m["reversal"]}
        assert flagged == {report.child for report in reports}
        assert len(validate_tree(tree).reversals) == len(reports)
        flagged_runs += bool(flagged)
    assert flagged_runs >= 10


def is_tie_free(trace):
    """True when every iteration merged exactly one pair."""
    for it in trace.iterations:
        multi = [g for g in it.groups if len(g.member_ids) > 1]
        if len(multi) != 1 or len(multi[0].member_ids) != 2:
            return False
    return True


def test_vg_without_ties_matches_pair_group():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(4, 9))
        pts = rng.uniform(0, 10, size=(n, 3))
        square = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        matrix = matrix_from_square(square.tolist())
        for kind in ("single", "complete", "unweighted_average"):
            vg, trace = cluster_variable_group(matrix, kind)
            assert is_tie_free(trace)  # continuous draws should never tie
            pg = cluster_pair_group(matrix, kind)
            assert tree_equal(vg, pg)


# ---- pair-group engine ----

def test_pg_first_and_last_goldens(toy):
    first = cluster_pair_group(toy, "unweighted_average", tiebreak="first")
    want_first = ("((x1,x2)[2.000,2.000],(x3,x4)[3.000,3.000])"
                  "[4.500,4.500];")
    assert to_newick_extended(first) == want_first

    last = cluster_pair_group(toy, "unweighted_average", tiebreak="last")
    want_last = ("((x1,(x2,x3)[2.000,2.000])[3.000,3.000],x4)"
                 "[5.000,5.000];")
    assert to_newick_extended(last) == want_last


def test_pg_trees_are_binary_and_valued(toy):
    tree = cluster_pair_group(toy, "unweighted_average")
    for node in tree.internal_nodes():
        assert len(node.children) == 2
        assert node.fusion == node.h_lower == node.h_upper


def test_pg_random_needs_seedable_rule(toy):
    a = cluster_pair_group(toy, "unweighted_average", tiebreak="random",
                           seed=5)
    b = cluster_pair_group(toy, "unweighted_average", tiebreak="random",
                           seed=5)
    assert tree_equal(a, b)
    newicks = {to_newick_extended(t) for t in
               enumerate_pair_group(toy, "unweighted_average")}
    for seed in range(8):
        got = cluster_pair_group(toy, "unweighted_average",
                                 tiebreak="random", seed=seed)
        assert to_newick_extended(got) in newicks


# ---- enumeration ----

def test_enumerate_toy_has_three_outcomes(toy):
    trees = enumerate_pair_group(toy, "unweighted_average")
    texts = [to_newick_extended(t) for t in trees]
    assert texts == [
        "(((x1,x2)[2.000,2.000],x3)[3.000,3.000],x4)[5.000,5.000];",
        "((x1,(x2,x3)[2.000,2.000])[3.000,3.000],x4)[5.000,5.000];",
        "((x1,x2)[2.000,2.000],(x3,x4)[3.000,3.000])[4.500,4.500];",
    ]
    assert texts == sorted(texts)


def test_enumerate_collapses_commuting_merges():
    square = [
        [0.0, 1.0, 9.0, 9.0],
        [1.0, 0.0, 9.0, 9.0],
        [9.0, 9.0, 0.0, 1.0],
        [9.0, 9.0, 1.0, 0.0],
    ]
    trees = enumerate_pair_group(matrix_from_square(square),
                                 "unweighted_average")
    assert len(trees) == 1
    want = "((x1,x2)[1.000,1.000],(x3,x4)[1.000,1.000])[9.000,9.000];"
    assert to_newick_extended(trees[0]) == want


def test_classical_single_and_complete_merge_at_input_distances():
    # d(ab, c) is exactly 0.1 under single linkage, tying with d(c, d)
    m = ProximityMatrix("abcd", [0.05, 0.1, 5.0, 0.3, 5.0, 0.1])
    assert len(enumerate_pair_group(m, "single")) == 2
    # d(ab, c) is min(1e20, 1.0), not 0.0
    m = ProximityMatrix("abc", [0.1, 1e20, 1.0])
    assert to_newick_extended(cluster_pair_group(m, "single")) == (
        "((a,b)[0.100,0.100],c)[1.000,1.000];")
    tree = cluster_pair_group(m, "complete")
    assert tree.root.h_lower == 1e20


def test_enumerate_limit_guard():
    n = 7
    square = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
    with pytest.raises(TooManySolutions):
        enumerate_pair_group(matrix_from_square(square),
                             "unweighted_average", limit=5)


def test_enumerate_singleton_and_empty():
    # one individual has one outcome, the leaf the classical engine gives
    one = ProximityMatrix(labels=("only",), values=())
    assert enumerate_pair_group(one, "single") == (
        cluster_pair_group(one, "single"),)
    with pytest.raises(EmptyInput):
        enumerate_pair_group(ProximityMatrix(labels=(), values=()), "single")


@pytest.mark.parametrize("limit", [0, -1])
def test_enumerate_limit_below_one_is_rejected(toy, limit):
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_pair_group(toy, "single", limit=limit)


# the first matrix of the benchmark's enumerate workload at seed 1: 674
# distinct outcomes from 1,240 raw ones
ENUMERATE_SEED1_FIRST = (
    3, 4, 4, 5, 7, 3, 4, 2, 4, 6, 7, 7, 8, 4, 4, 6, 6, 5, 6, 3, 5, 8, 9, 9,
    9, 7, 7, 9, 4, 7, 4, 7, 7, 10, 9, 10, 5, 4, 6, 5, 4, 3, 8, 7, 8, 8, 8,
    4, 2, 4, 3, 4, 4, 4, 4, 9, 7, 7, 6, 11, 9, 10, 10, 4, 3, 5, 4, 7, 6, 7,
    4, 2, 5, 4, 4, 5, 4, 6, 7, 7, 7, 6, 5, 5, 5, 5, 4, 5, 3, 2, 2)


def test_enumerate_limit_counts_distinct_outcomes():
    matrix = ProximityMatrix(tuple("x%d" % (i + 1) for i in range(14)),
                             ENUMERATE_SEED1_FIRST, precision=0)
    trees = enumerate_pair_group(matrix, "unweighted_average", limit=1000)
    assert len(trees) == 674
    assert len(enumerate_pair_group(matrix, "unweighted_average",
                                    limit=674)) == 674
    with pytest.raises(TooManySolutions):
        enumerate_pair_group(matrix, "unweighted_average", limit=673)


def distinct_subtrees(trees):
    """How many different internal nodes the trees hold, told apart by
    height and children alone."""
    keys = {}
    for tree in trees:
        key_of = {}
        for node in postorder(tree.root):
            key_of[id(node)] = -1 - node.index if node.is_leaf else (
                keys.setdefault((node.h_lower, tuple(
                    key_of[id(c)] for c in node.children)), len(keys)))
    return len(keys)


def test_enumerate_builds_each_distinct_subtree_once(toy, monkeypatch):
    # internal() runs once per subtree that differs from every other in
    # the returned trees, and never in the merge step, which leaves the
    # nodes to the engines that build trees
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return internal(*args, **kwargs)

    monkeypatch.setattr(agglomerate, "internal", counting)
    seed1 = ProximityMatrix(tuple("x%d" % (i + 1) for i in range(14)),
                            ENUMERATE_SEED1_FIRST, precision=0)
    for matrix, n_trees, n_calls in [(toy, 3, 8), (seed1, 674, 1521)]:
        calls.clear()
        trees = enumerate_pair_group(matrix, "unweighted_average")
        assert len(trees) == n_trees
        assert len(calls) == distinct_subtrees(trees) == n_calls
    calls.clear()
    state = ClusterState.from_matrix(toy)
    state.merge([(0, 1)], MethodSpec("unweighted_average"))
    assert calls == []
    assert not hasattr(state, "nodes")


def postorder_heights(tree):
    return [node.h_lower for node in postorder(tree.root) if not node.is_leaf]


def test_enumerate_orders_equal_texts_by_postorder_heights():
    # two halves, each two tied pairs that then merge; weighted average
    # sums the four cross distances in the order the pairs formed, and at
    # 1e4 that order moves the half's height by an ulp, which survives
    # rounding to 12 decimals. So four outcomes share one text, and only
    # the heights read in postorder, children by smallest leaf, order them
    big = 10000.0
    half = {(0, 1): big + 1, (2, 3): big + 1, (0, 2): big + 2.6,
            (0, 3): big + 2.2, (1, 2): big + 2.4, (1, 3): big + 2.4}
    square = [[0.0] * 8 for _ in range(8)]
    for i, j in itertools.combinations(range(8), 2):
        value = 3 * big if i < 4 <= j else half[i % 4, j % 4]
        square[i][j] = square[j][i] = value
    matrix = matrix_from_square(square, precision=0)
    trees = enumerate_pair_group(matrix, "weighted_average")
    assert len({to_newick_extended(t) for t in trees}) == 1
    halves = [(hs[2], hs[5]) for hs in map(postorder_heights, trees)]
    assert len(set(halves)) == 4
    assert halves == sorted(halves)
    assert halves != sorted(halves, key=lambda pair: pair[::-1])
    want = kept_pair_group_outcomes(
        pair_group_outcomes(matrix, "weighted_average"), matrix.labels)
    assert [[h.hex() for h in postorder_heights(t)] for t in trees] == [
        [h.hex() for h in hs] for _, hs in want]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(METHOD_KINDS), data=st.data())
def test_enumerate_matches_brute_force(kind, data):
    # whole numbers or quarter steps, with ties decided on raw values or at
    # 0 decimals; the oracle builds a tree for every raw outcome of a
    # memo-free search and keeps, of each collapsed set, the one with the
    # smallest postorder heights
    n = data.draw(st.integers(2, 7))
    step = data.draw(st.sampled_from([1.0, 0.25]))
    values = data.draw(st.lists(st.integers(1, 8), min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    precision = data.draw(st.sampled_from([None, 0]))
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)),
                             tuple(v * step for v in values),
                             precision=precision)
    # the texts the command line prints, not the trees written again
    got = [(text, postorder_heights(tree)) for text, tree
           in agglomerate._enumerate_newick(matrix, kind, limit=200000)]
    want = kept_pair_group_outcomes(pair_group_outcomes(matrix, kind),
                                    matrix.labels)
    assert [text for text, _ in got] == [text for text, _ in want]
    # bit for bit, -0.0 apart from 0.0
    hexes = lambda pairs: [[h.hex() for h in hs] for _, hs in pairs]
    assert hexes(got) == hexes(want)


def whole_number_matrix(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 8, size=n * (n - 1) // 2)
    return ProximityMatrix(tuple(f"x{i + 1}" for i in range(n)), values,
                           precision=0)


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_pair_group_outcomes_are_enumerated(kind):
    # both engines merge through the same step, so every tie-break rule's
    # tree must be one of the enumerated outcomes
    for n in range(5, 9):
        for seed in range(10):
            matrix = whole_number_matrix(n, seed)
            outcomes = {to_newick_extended(t)
                        for t in enumerate_pair_group(matrix, kind)}
            runs = [cluster_pair_group(matrix, kind, tiebreak="first"),
                    cluster_pair_group(matrix, kind, tiebreak="last")]
            runs += [cluster_pair_group(matrix, kind, tiebreak="random",
                                        seed=draw) for draw in (1, 2)]
            for tree in runs:
                assert to_newick_extended(tree) in outcomes


@pytest.mark.parametrize("kind", ["unweighted_centroid",
                                  "joint_between_within"])
def test_collapsed_outcomes_keep_the_smallest_postorder_heights(kind):
    # outcomes apart only past 12 decimals collapse into one, and which one
    # is kept shows only in the last bits of its heights
    collapsed = 0
    for n in range(5, 9):
        for seed in range(10):
            matrix = whole_number_matrix(n, seed)
            outcomes = pair_group_outcomes(matrix, kind)
            got = [(text, postorder_heights(tree)) for text, tree
                   in agglomerate._enumerate_newick(matrix, kind, limit=10000)]
            want = kept_pair_group_outcomes(outcomes, matrix.labels)
            assert [(text, [h.hex() for h in hs]) for text, hs in got] == [
                (text, [h.hex() for h in hs]) for text, hs in want]
            collapsed += len(set(map(frozenset, outcomes))) > len(want)
    assert collapsed >= 5


def _clusters(tree):
    return {frozenset(leaf.index for leaf in node.leaves())
            for node in tree.internal_nodes()}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_single_linkage_outcomes_refine_the_multidendrogram(n, seed):
    # under single linkage a tied group joins at one height in any pair
    # order, so each of its clusters is one of every classical outcome; the
    # other rules break this and are only held to uniqueness and order
    matrix = whole_number_matrix(n, seed)
    tree, _ = cluster_variable_group(matrix, "single")
    want = _clusters(tree)
    for outcome in enumerate_pair_group(matrix, "single"):
        assert want <= _clusters(outcome)


def test_enumerated_outcomes_share_leaf_set(toy):
    for tree in enumerate_pair_group(toy, "single"):
        assert tree.labels == ("x1", "x2", "x3", "x4")
        coph = cophenetic_matrix(tree)
        assert coph.n == 4


# ---- sizes beyond the enumerator's reach ----

def cloud_square(n, seed):
    pts = np.random.default_rng(seed).uniform(0, 10, size=(n, 2))
    return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))


@pytest.mark.parametrize("kind, scipy_method", [
    ("single", "single"),
    ("complete", "complete"),
    ("unweighted_average", "average"),
    ("weighted_average", "weighted"),
])
def test_vg_heights_match_scipy_without_ties(kind, scipy_method):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    square = cloud_square(120, seed=5)
    condensed_values = square[np.triu_indices(120, 1)]
    matrix = matrix_from_square(square.tolist())
    tree, trace = cluster_variable_group(matrix, kind)
    assert is_tie_free(trace)  # the oracle only speaks for binary merges
    links = hierarchy.linkage(condensed_values, method=scipy_method)
    ours = sorted(node.h_lower for node in tree.internal_nodes())
    theirs = sorted(links[:, 2].tolist())
    assert max(abs(a - b) for a, b in zip(ours, theirs)) <= 1e-9
    # same nesting too: leaves first meet at the same heights
    coph = np.array(cophenetic_matrix(tree).values)
    assert np.abs(coph - hierarchy.cophenet(links)).max() <= 1e-9


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_vg_permutation_invariant_at_n200(kind):
    # groups of up to 16 clusters, so the block update sees many blocks
    n = 200
    square = cloud_square(n, seed=9)
    labels = tuple("p%d" % i for i in range(n))
    matrix = matrix_from_square(square.tolist(), labels, precision=1)
    order = np.random.default_rng(1).permutation(n)
    shuffled = matrix_from_square(square[np.ix_(order, order)].tolist(),
                                  [labels[i] for i in order], precision=1)
    tree, trace = cluster_variable_group(matrix, kind)
    assert not is_tie_free(trace)  # one-decimal comparison makes ties
    again, _ = cluster_variable_group(shuffled, kind)
    assert tree_equal(tree, again, tol=0.0)


def flat_run(run):
    """``run()`` and its tracemalloc peak in bytes, under a recursion limit
    100 frames above the caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(old_limit)
    return result, peak


def test_enumerate_without_ties_keeps_memory_and_stack_flat():
    # a run without ties reaches one state per level, so the enumerator
    # holds a few working matrices whatever n is, and its stack depth does
    # not grow with the number of merges
    n = 300
    matrix = matrix_from_square(cloud_square(n, seed=2).tolist())
    trees, peak = flat_run(
        lambda: enumerate_pair_group(matrix, "unweighted_average"))
    assert len(trees) == 1
    assert peak < 8 * n * n * 8


def cloud_matrix(n, seed):
    square = cloud_square(n, seed)
    return ProximityMatrix(tuple("p%d" % i for i in range(n)),
                           square[np.triu_indices(n, 1)])


@pytest.mark.parametrize("make, kind", [
    (lambda: cloud_matrix(1000, seed=3), "unweighted_average"),
    (lambda: _chain_matrix(1200), "single"),
], ids=["cloud-1000", "chain-1200"])
def test_enumerate_at_scale_returns_the_classical_tree(make, kind):
    # without ties there is one outcome, the classical engine's, and each
    # level holds one state with one pair, which nothing else can meet
    matrix = make()
    n = matrix.n
    trees, peak = flat_run(lambda: enumerate_pair_group(matrix, kind))
    assert len(trees) == 1
    assert peak < 2 * n * n * 8
    # a deep tree's text is written in one pass, not copied into each level
    text, peak = flat_run(lambda: to_newick_extended(trees[0]))
    assert peak < 16 * len(text)
    assert text == to_newick_extended(cluster_pair_group(matrix, kind))


# ---- trees deeper than the recursion limit ----

def _chain_matrix(n):
    # points at the triangular numbers: every gap is a new length, so
    # single linkage adds one point per iteration
    pos = [k * (k + 1) // 2 for k in range(n)]
    values = tuple(float(pos[j] - pos[i])
                   for i in range(n) for j in range(i + 1, n))
    return ProximityMatrix(tuple("p%d" % i for i in range(n)), values,
                           precision=0)


def test_chain_deeper_than_recursion_limit_through_both_engines():
    n = sys.getrecursionlimit() + 200
    matrix = _chain_matrix(n)
    tree, trace = cluster_variable_group(matrix, "single")
    classical = cluster_pair_group(matrix, "single")
    assert len(trace.iterations) == n - 1
    depth, node = 0, tree.root
    while not node.is_leaf:
        depth += 1
        node = node.children[0]
    assert depth == n - 1
    assert validate_tree(tree).ok
    assert to_newick_extended(tree) == to_newick_extended(classical)
    records = json.loads(records_to_json(to_records(tree, trace)))
    assert len(records["merges"]) == n - 1
    parsed, parsed_trace = parse_records(records)
    assert tree_equal(tree, parsed, tol=0.0) and parsed_trace == trace
    svg = render_svg(tree)
    assert svg.count("<text ") == n + 2  # the labels and two axis marks
    # point k joins at height k, so the first and last leaf meet at the root
    coph = cophenetic_matrix(tree)
    assert coph.get(0, 1) == 1.0
    assert coph.get(5, 10) == 10.0
    assert coph.get(n - 2, n - 1) == float(n - 1)
    assert coph.get(0, n - 1) == tree.root.h_lower == float(n - 1)
    assert detect_reversals(tree) == detect_reversals(trace) == ()
