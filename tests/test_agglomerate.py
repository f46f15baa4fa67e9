import itertools
import json
from collections import Counter
import struct
import sys
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
    records_to_json,
    render_svg,
    to_records,
    validate_tree,
)
from multidendro.agglomerate import (
    _group_update,
    _groups_from_edges,
    _merge_pair,
)
from multidendro.linkage import pg_update
from multidendro.proximity import round_half_away
from multidendro.tree import Leaf, MultivaluedTree

from oracles import row_minima_full_scan, shortest_full_scan


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

def _merge_groups(state, groups, method):
    # one variable-group merge step over the given slot groups, as the
    # engine makes it, but with groups that need not be tied
    formed = []
    for parts in groups:
        members = tuple(sorted(i for s in parts for i in state.members[s]))
        node = internal([state.nodes[s] for s in parts], 0.0, 0.0)
        formed.append((parts, members, node, state.sizes[list(parts)].tolist(),
                       state.dist[np.ix_(parts, parts)].tolist()))
    state.merge(formed, _group_update(state, formed, method))


def _check_state(state):
    bits = lambda values: [struct.pack("<d", v) for v in values]
    assert bits(state.row_min.tolist()) == bits(
        row_minima_full_scan(state).tolist())
    live = state.live_slots().tolist()
    for r in live:
        if len(live) > 1:
            assert state.keys[r, state.row_arg[r]] == state.row_min[r]
        for c in live:
            if c != r:
                want = float(state.dist[r, c])
                if state.precision is not None:
                    want = round_half_away(want, state.precision)
                assert state.keys[r, c] == want
    if len(live) > 1:
        assert state.shortest() == shortest_full_scan(state)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(METHOD_KINDS), data=st.data())
def test_cached_minima_match_full_scan_after_random_merges(kind, data):
    # quarter steps from few values: ties, rounding at 0 and 1 decimals,
    # and with the centroid rules negative distances
    n = data.draw(st.integers(2, 9))
    values = data.draw(st.lists(st.integers(1, 12), min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    precision = data.draw(st.sampled_from([None, 0, 1]))
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)),
                             tuple(v / 4 for v in values), precision=precision)
    method = MethodSpec(kind)
    state = ClusterState.from_matrix(matrix)
    _check_state(state)
    while state.count > 1:
        live = state.live_slots().tolist()
        if data.draw(st.booleans()):
            a, b = data.draw(st.permutations(live))[:2]
            _merge_pair(state, a, b, method)
        else:
            # random disjoint groups; at least one has two members
            tags = data.draw(st.lists(st.integers(0, len(live) - 1),
                                      min_size=len(live), max_size=len(live)))
            tags[1] = tags[0]
            by_tag = {}
            for s, tag in zip(live, tags):
                by_tag.setdefault(tag, []).append(s)
            groups = sorted(tuple(g) for g in by_tag.values() if len(g) > 1)
            _merge_groups(state, groups, method)
        _check_state(state)


def test_cached_minima_keep_positive_zero():
    # a centroid update of -0.0625 rounds to -0.0 at 0 places; the cached
    # minimum of a row holding both zeros must match a fresh scan bit for bit
    n = 7
    matrix = ProximityMatrix(tuple("x%d" % i for i in range(n)),
                             tuple(v / 4 for v in [1] * 19 + [5, 1]),
                             precision=0)
    state = ClusterState.from_matrix(matrix)
    _merge_pair(state, 4, 6, MethodSpec("unweighted_centroid"))
    _check_state(state)


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
    assert merged.leaves == (0, 1, 2)
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
    # reports may come in a different order
    with_reversals = 0
    for tree, trace in centroid_runs():
        from_trace = detect_reversals(trace)
        assert Counter(from_trace) == Counter(detect_reversals(tree))
        with_reversals += bool(from_trace)
    assert with_reversals >= 10


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
def test_reversal_scan_consumers_agree():
    # records flag the nodes detect_reversals names, and validate_tree
    # words each report once; a node can top its parent in both ways
    flagged_runs = 0
    for tree, _ in centroid_runs():
        reports = detect_reversals(tree)
        flagged = {tuple(m["members"]) for m in to_records(tree)["merges"]
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


def test_enumerate_limit_guard():
    n = 7
    square = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
    with pytest.raises(TooManySolutions):
        enumerate_pair_group(matrix_from_square(square),
                             "unweighted_average", limit=5)


def brute_force_outcomes(matrix, kind):
    """Reference enumeration: plain recursion, no memo, no early collapse."""
    n = matrix.n
    init = {}
    for i, j, v in matrix.pairs():
        init[(i, j)] = v
    seen = {}

    def look(table, a, b):
        return table[(a, b) if a < b else (b, a)]

    def rec(nodes, sizes, table):
        if len(nodes) == 1:
            (node,) = nodes.values()
            tree = MultivaluedTree(root=node, labels=matrix.labels)
            seen[to_newick_extended(tree)] = tree
            return
        low = min(table.values())
        ties = [pair for pair, v in table.items() if v == low]
        for a, b in ties:
            d = look(table, a, b)
            merged = internal((nodes[a], nodes[b]), d, d, fusion=d)
            keep = [c for c in nodes if c not in (a, b)]
            nodes2 = {c: nodes[c] for c in keep}
            sizes2 = {c: sizes[c] for c in keep}
            new = max(nodes) + 1
            nodes2[new] = merged
            sizes2[new] = sizes[a] + sizes[b]
            table2 = {}
            for c1, c2 in itertools.combinations(sorted(keep), 2):
                table2[(c1, c2)] = look(table, c1, c2)
            for c in keep:
                table2[(c, new)] = pg_update(
                    kind, sizes[a], sizes[b], sizes[c],
                    d, look(table, a, c), look(table, b, c))
            rec(nodes2, sizes2, table2)

    rec({i: Leaf(i, matrix.labels[i]) for i in range(n)},
        {i: 1 for i in range(n)}, init)
    return tuple(sorted(seen))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       kind=st.sampled_from(["single", "complete", "unweighted_average",
                             "weighted_average"]))
def test_enumerate_matches_brute_force(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    square = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            square[i][j] = square[j][i] = float(rng.integers(1, 5))
    matrix = matrix_from_square(square.tolist())
    got = tuple(to_newick_extended(t)
                for t in enumerate_pair_group(matrix, kind, limit=200000))
    assert got == brute_force_outcomes(matrix, kind)


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
def test_vg_permutation_invariant_at_n60(kind):
    n = 60
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
    # the records without the trace: its pass-through entries alone would
    # be n**2 / 2 groups here
    records = json.loads(records_to_json(to_records(tree)))
    assert len(records["merges"]) == n - 1
    svg = render_svg(tree)
    assert svg.count("<text ") == n + 2  # the labels and two axis marks
