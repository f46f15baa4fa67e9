import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidendro import (
    DuplicateLabel,
    FormatError,
    Internal,
    Leaf,
    MultivaluedTree,
    ParseError,
    ProximityMatrix,
    UnresolvedHeights,
    cluster_variable_group,
    cophenetic_matrix,
    detect_reversals,
    internal,
    parse_newick_extended,
    parse_records,
    records_to_json,
    render_text,
    resolve_height,
    to_newick_extended,
    ZeroDistanceWarning,
    parse_matrix,
    to_records,
    tree_equal,
    validate_tree,
)
from multidendro.tree import newick_texts, postorder
from oracles import (
    parse_newick_extended_recursive,
    record_members,
    tree_equal_by_leaf_sets,
)

DATA = Path(__file__).parent / "data"


def toy_vg_tree(toy, method="unweighted_average", policy="interval"):
    tree, trace = cluster_variable_group(toy, method, policy=policy)
    return tree, trace


def small_tree():
    a, b, c = Leaf(0, "a"), Leaf(1, "b"), Leaf(2, "c")
    inner = internal((a, b), 1.0, 1.0)
    root = internal((inner, c), 2.0, 3.0, fusion=2.5)
    return MultivaluedTree(root=root, labels=("a", "b", "c"))


# ---- construction ----

def test_children_sorted_by_smallest_leaf():
    a, b, c = Leaf(0, "a"), Leaf(1, "b"), Leaf(2, "c")
    node = internal((c, internal((b, a), 1.0, 1.0)), 2.0, 2.0)
    assert node.children[0].min_leaf == 0
    assert node.children[1].min_leaf == 2


def test_min_leaf_is_stored_not_compared():
    a, b, c = Leaf(0, "a"), Leaf(1, "b"), Leaf(2, "c")
    node = internal((c, internal((b, a), 1.0, 1.0)), 2.0, 2.0)
    assert node.min_leaf == 0
    assert node.children[1].min_leaf == 2
    # equality and hashing still look at children and heights only
    same = Internal(node.children, 2.0, 2.0)
    assert same == node and hash(same) == hash(node)
    assert internal((a, b), 1.0, 1.0) != internal((a, b), 1.0, 2.0)
    assert "min_leaf" not in repr(node)


def test_deep_caterpillar_builds_without_recursion():
    # deeper than the recursion limit: building must not walk the subtrees
    depth = 5000
    assert depth > sys.getrecursionlimit()
    node = Leaf(depth, "x%d" % depth)
    for i in range(depth - 1, -1, -1):
        node = internal((node, Leaf(i, "x%d" % i)), float(depth - i),
                        float(depth - i))
    assert node.min_leaf == 0
    assert node.children[0].index == 0
    assert node.children[1].min_leaf == 1


def test_deep_caterpillar_walks_without_recursion():
    # leaves, newick and reversal detection on a tree deeper than the
    # recursion limit; the root starts below its child's top, a reversal
    depth = 5000
    assert depth > sys.getrecursionlimit()
    node = Leaf(depth, "x%d" % depth)
    for i in range(depth - 1, 0, -1):
        node = internal((node, Leaf(i, "x%d" % i)), float(depth - i),
                        float(depth - i))
    root = internal((node, Leaf(0, "x0")), depth - 1.5, depth - 1.5)
    labels = tuple("x%d" % i for i in range(depth + 1))
    tree = MultivaluedTree(root=root, labels=labels)

    assert [leaf.index for leaf in root.leaves()] == list(range(depth + 1))
    heights = [float(h) for h in range(1, depth)] + [depth - 1.5]
    assert to_newick_extended(replace(tree, height_decimals=1)) == (
        "".join("(x%d," % i for i in range(depth)) + "x%d" % depth
        + "".join(")[%.1f,%.1f]" % (h, h) for h in heights) + ";")
    (report,) = detect_reversals(tree)
    assert report.kind == "interval"
    assert report.child == labels[1:]
    assert report.parent == labels
    assert (report.child_value, report.parent_value) == (depth - 1.0, depth - 1.5)


def _rising_caterpillar(depth):
    # leaves 0..depth; the node over leaves i..depth sits at depth - i
    node = Leaf(depth, "x%d" % depth)
    for i in range(depth - 1, -1, -1):
        node = internal((node, Leaf(i, "x%d" % i)), float(depth - i),
                        float(depth - i))
    return MultivaluedTree(root=node,
                           labels=tuple("x%d" % i for i in range(depth + 1)))


def _rising_caterpillar_text(depth):
    """What render_text writes for ``_rising_caterpillar(depth)``."""
    lines = ["[%d..%d]" % (depth, depth)]
    for i in range(depth):
        pad = "    " * i
        lines.append(pad + "+-- x%d" % i)
        if i < depth - 1:
            lines.append(pad + "\\-- [%d..%d]" % (depth - i - 1, depth - i - 1))
    lines.append("    " * (depth - 1) + "\\-- x%d" % depth)
    return "\n".join(lines) + "\n"


def test_deep_caterpillar_renders_and_cophenetics_without_recursion():
    depth = sys.getrecursionlimit() + 500
    tree = _rising_caterpillar(depth)
    assert render_text(tree) == _rising_caterpillar_text(depth)
    coph = cophenetic_matrix(tree)
    # leaves i < j first share the node over leaves i..depth
    assert coph.values == tuple(float(depth - i) for i in range(depth + 1)
                                for _ in range(i + 1, depth + 1))


def test_deep_caterpillar_validates_and_records_without_recursion():
    # the same shape as above, through validate and to_records
    depth = sys.getrecursionlimit() + 500
    node = Leaf(depth, "x%d" % depth)
    for i in range(depth - 1, 0, -1):
        node = internal((node, Leaf(i, "x%d" % i)), float(depth - i),
                        float(depth - i))
    root = internal((node, Leaf(0, "x0")), depth - 1.5, depth - 1.5)
    labels = tuple("x%d" % i for i in range(depth + 1))
    tree = MultivaluedTree(root=root, labels=labels)

    report = validate_tree(tree)
    assert report.errors == ()
    assert report.reversals == (
        "node {%s} tops out at %r, above its parent start %r"
        % (",".join(sorted(labels[1:])), depth - 1.0, depth - 1.5),)

    doc = to_records(tree)
    merges, members = doc["merges"], record_members(doc)
    assert [m["id"] for m in merges] == list(range(depth + 1, 2 * depth + 1))
    by_height = {m["h_lower"]: m for m in merges}
    for i in range(1, depth):
        # the node at height depth - i joins leaf i to the nodes below
        m = by_height[float(depth - i)]
        below = i + 1 if i == depth - 1 else by_height[float(depth - i - 1)]["id"]
        assert m["children"] == [i, below]
        assert members[m["id"]] == list(labels[i:])
        assert m["reversal"] == (i == 1)
    top = by_height[depth - 1.5]
    assert top["children"] == [0, by_height[depth - 1.0]["id"]]
    assert members[top["id"]] == list(labels)
    assert top["reversal"] is False


def test_single_child_rejected():
    with pytest.raises(ValueError):
        internal((Leaf(0, "a"),), 1.0, 1.0)


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        MultivaluedTree(root=Leaf(0, "a"), labels=("a", "a"))


def test_resolve_height_prefers_fusion():
    tree = small_tree()
    assert resolve_height(tree.root) == 2.5
    assert resolve_height(tree.root.children[0]) == 1.0
    with pytest.raises(UnresolvedHeights):
        resolve_height(internal((Leaf(0, "a"), Leaf(1, "b")), 1.0, 2.0))


# ---- validation ----

def test_validate_accepts_toy_output(toy):
    tree, _ = toy_vg_tree(toy)
    report = validate_tree(tree)
    assert report.ok
    assert report.errors == ()
    assert report.reversals == ()


def test_validate_flags_inverted_interval():
    root = internal((Leaf(0, "a"), Leaf(1, "b")), 3.0, 2.0)
    report = validate_tree(MultivaluedTree(root=root, labels=("a", "b")))
    assert not report.ok
    assert any("interval" in e for e in report.errors)


def test_validate_flags_fusion_outside_interval():
    root = internal((Leaf(0, "a"), Leaf(1, "b")), 1.0, 2.0, fusion=2.5)
    report = validate_tree(MultivaluedTree(root=root, labels=("a", "b")))
    assert not report.ok


def test_validate_reports_reversal_without_failing():
    inner = internal((Leaf(0, "a"), Leaf(1, "b")), 1.0, 4.0)
    root = internal((inner, Leaf(2, "c")), 3.0, 3.0)
    report = validate_tree(MultivaluedTree(root=root, labels=("a", "b", "c")))
    assert report.ok
    assert len(report.reversals) == 1


def test_a_leaf_is_never_a_reversal():
    # both leaves top the root's negative height; only the height is wrong
    tree = parse_newick_extended("(a,b)[-1.000,-1.000];")
    assert detect_reversals(tree) == ()
    report = validate_tree(tree)
    assert report.reversals == ()
    assert any("negative" in e for e in report.errors)
    assert to_records(tree)["merges"][0]["reversal"] is False


def test_validate_accepts_zero_distance_merge():
    # the parser warns about zero distances but accepts them, so the tree
    # they produce must validate: x1 and x2 merge at height zero
    with pytest.warns(ZeroDistanceWarning):
        matrix = parse_matrix("0 0 3\n0 0 3\n3 3 0\n")
    tree, _ = cluster_variable_group(matrix, "complete")
    assert to_newick_extended(tree) == "((x1,x2)[0.000,0.000],x3)[3.000,3.000];"
    report = validate_tree(tree)
    assert report.ok, report.errors
    assert report.reversals == ()


def test_validate_accepts_interval_starting_at_zero():
    root = internal((Leaf(0, "a"), Leaf(1, "b"), Leaf(2, "c")), 0.0, 3.0)
    assert validate_tree(MultivaluedTree(root=root, labels=("a", "b", "c"))).ok


def test_validate_flags_negative_height():
    root = internal((Leaf(0, "a"), Leaf(1, "b")), -1.0, 0.0)
    report = validate_tree(MultivaluedTree(root=root, labels=("a", "b")))
    assert any("negative" in e for e in report.errors)


# ---- equality and cophenetics ----

def test_tree_equal_tolerates_tiny_drift(toy):
    tree, _ = toy_vg_tree(toy)
    heights = tree.node_heights()
    rebuilt = parse_newick_extended(to_newick_extended(tree))
    assert tree_equal(tree, rebuilt)
    assert heights == rebuilt.node_heights()


def test_tree_equal_detects_shape_change():
    a = internal((Leaf(0, "a"), Leaf(1, "b")), 1.0, 1.0)
    t1 = MultivaluedTree(root=internal((a, Leaf(2, "c")), 2.0, 2.0),
                         labels=("a", "b", "c"))
    b = internal((Leaf(1, "b"), Leaf(2, "c")), 1.0, 1.0)
    t2 = MultivaluedTree(root=internal((Leaf(0, "a"), b), 2.0, 2.0),
                         labels=("a", "b", "c"))
    assert not tree_equal(t1, t2)


def test_cophenetic_matrix_toy(toy):
    tree, _ = toy_vg_tree(toy, policy="natural")
    coph = cophenetic_matrix(tree)
    third = 8.0 / 3.0
    assert coph.get("x1", "x2") == third
    assert coph.get("x2", "x3") == third
    assert coph.get("x1", "x4") == 5.0


def test_cophenetic_is_ultrametric(toy):
    tree, _ = toy_vg_tree(toy, policy="shortest")
    coph = tree and cophenetic_matrix(tree)
    labels = coph.labels
    for a in labels:
        for b in labels:
            for c in labels:
                if len({a, b, c}) < 3:
                    continue
                dab, dac, dbc = coph.get(a, b), coph.get(a, c), coph.get(b, c)
                assert dab <= max(dac, dbc) + 1e-12


# ---- newick serialization ----

def test_newick_golden(toy):
    tree, _ = toy_vg_tree(toy)
    want = "((x1,x2,x3)[2.000,4.000],x4)[5.000,5.000];"
    assert to_newick_extended(tree) == want


def test_newick_decimals_follow_precision():
    root = internal((Leaf(0, "a"), Leaf(1, "b")), 0.1234, 0.1234)
    tree = MultivaluedTree(root=root, labels=("a", "b"), height_decimals=4)
    assert to_newick_extended(tree) == "(a,b)[0.1234,0.1234];"


def test_newick_texts_of_trees_that_share_nodes():
    # (a,b) sits under two different parents and is a root of its own;
    # one root has only leaves below it, and one is a leaf (n = 1)
    a, b, c, d = (Leaf(i, label) for i, label in enumerate("abcd"))
    ab = internal((a, b), 1.0, 1.0)
    abc = internal((ab, c), 2.0, 2.0)
    cd = internal((c, d), 1.5, 1.5)
    roots = [internal((abc, d), 3.0, 3.0), internal((ab, cd), 4.0, 5.0),
             internal((a, b, c, d), 1.0, 2.0), ab, a]
    nodes = [ab, abc, roots[0], cd, roots[1], roots[2]]
    assert newick_texts(nodes, roots, 3) == [
        "(((a,b)[1.000,1.000],c)[2.000,2.000],d)[3.000,3.000];",
        "((a,b)[1.000,1.000],(c,d)[1.500,1.500])[4.000,5.000];",
        "(a,b,c,d)[1.000,2.000];",
        "(a,b)[1.000,1.000];",
        "a;",
    ]
    single = MultivaluedTree(root=a, labels=("a",))
    assert to_newick_extended(single) == "a;"
    assert newick_texts(nodes, [], 3) == []


def test_parse_newick_golden():
    tree = parse_newick_extended(
        "((x1,x2,x3)[2.000,4.000],x4)[5.000,5.000];")
    assert tree.labels == ("x1", "x2", "x3", "x4")
    heights = tree.node_heights()
    assert heights[frozenset(["x1", "x2", "x3"])] == (2.0, 4.0, None)
    assert heights[frozenset(["x1", "x2", "x3", "x4"])] == (5.0, 5.0, None)


def test_parse_newick_canonicalizes_child_order():
    a = parse_newick_extended("(b,a)[1.000,1.000];")
    b = parse_newick_extended("(a,b)[1.000,1.000];")
    assert to_newick_extended(a) == to_newick_extended(b)


@pytest.mark.parametrize("text", [
    "(a,b)[1.0,2.0]",            # missing terminator
    "(a)[1.0,1.0];",             # single child
    "(a,b)[2.0];",               # not an interval
    "(a,a)[1.0,1.0];",           # duplicate label
    "(a,b[1.0,1.0];",            # unbalanced
    "(a,b)[x,y];",               # bad number
    "",
])
def test_parse_newick_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_newick_extended(text)


def test_parse_error_carries_position():
    try:
        parse_newick_extended("(a,b[1.0,1.0];")
    except ParseError as err:
        assert isinstance(err.position, int)
    else:
        pytest.fail("expected a parse error")


label_st = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    labels = [f"t{i}" for i in range(n)]
    nodes = [Leaf(i, lab) for i, lab in enumerate(labels)]
    height = 0.0
    while len(nodes) > 1:
        take = draw(st.integers(min_value=2, max_value=len(nodes)))
        idx = sorted(draw(st.permutations(range(len(nodes))))[:take])
        height += draw(st.integers(min_value=1, max_value=50)) / 8.0
        upper = height + draw(st.integers(min_value=0, max_value=16)) / 8.0
        merged = internal([nodes[i] for i in idx], height, upper)
        nodes = [nd for i, nd in enumerate(nodes) if i not in idx] + [merged]
    return MultivaluedTree(root=nodes[0], labels=tuple(labels))


@settings(max_examples=100, deadline=None)
@given(tree=random_trees())
def test_newick_round_trip(tree):
    text = to_newick_extended(tree)
    again = parse_newick_extended(text)
    assert tree_equal(tree, again, tol=1e-9)
    assert to_newick_extended(again) == text


@settings(max_examples=300, deadline=None)
@given(tree=random_trees(), data=st.data())
def test_tree_equal_matches_leaf_set_reference(tree, data):
    # a copy with its leaves renumbered, and perhaps a label renamed, a
    # node flattened into its parent or one height moved by just under or
    # just over tol; or another random tree
    tol = data.draw(st.sampled_from([0.0, 2.0 ** -10, 0.5]))
    change = data.draw(st.sampled_from(
        ["none", "rename", "flatten", "drift", "other"]))
    inner = list(tree.internal_nodes())
    target = data.draw(st.sampled_from(inner))
    if change == "flatten" and target is tree.root:
        change = "none"
    shift = data.draw(st.sampled_from([0.75, 1.25])) * tol
    order = data.draw(st.permutations(range(tree.n)))
    labels = [None] * tree.n
    for old, new in enumerate(order):
        labels[new] = tree.labels[old] + ("x" if change == "rename"
                                          and old == 0 else "")
    made = {}
    for node in postorder(tree.root):
        if node.is_leaf:
            made[id(node)] = Leaf(order[node.index], labels[order[node.index]])
            continue
        children = []
        for c in node.children:
            if change == "flatten" and c is target:
                children.extend(made[id(c)].children)
            else:
                children.append(made[id(c)])
        lo, up = node.h_lower, node.h_upper
        if change == "drift" and node is target:
            if data.draw(st.booleans()):
                lo += shift
            else:
                up -= shift
        made[id(node)] = internal(children, lo, up)
    other = MultivaluedTree(root=made[id(tree.root)], labels=tuple(labels))
    if change == "other":
        other = data.draw(random_trees())
    want = tree_equal_by_leaf_sets(tree, other, tol)
    assert tree_equal(tree, other, tol) == tree_equal(other, tree, tol) == want
    if change in ("none", "drift"):
        assert want == (change == "none" or shift <= tol)


def _newick_outcome(parse, text):
    try:
        tree = parse(text)
    except ParseError as err:
        return ("error", str(err), err.position)
    return ("tree", to_newick_extended(tree), tree.labels,
            tree.height_decimals)


@settings(max_examples=300, deadline=None)
@given(tree=random_trees(), data=st.data())
def test_parse_newick_matches_recursive_reference(tree, data):
    # canonical text with a few characters replaced, inserted or dropped:
    # the same tree, or the same message at the same position
    text = list(to_newick_extended(replace(tree, height_decimals=data.draw(
        st.integers(min_value=0, max_value=5)))))
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        at = data.draw(st.integers(min_value=0, max_value=len(text)))
        edit = data.draw(st.sampled_from(["put", "insert", "drop"]))
        ch = data.draw(st.sampled_from(list("(),[];t0. e-")))
        if edit == "insert" or at == len(text):
            text.insert(at, ch)
        elif edit == "put":
            text[at] = ch
        else:
            del text[at]
    text = "".join(text)
    assert (_newick_outcome(parse_newick_extended, text)
            == _newick_outcome(parse_newick_extended_recursive, text))


def test_newick_round_trip_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 500
    node = Leaf(0, "c0")
    for i in range(1, n):
        node = internal((node, Leaf(i, "c%d" % i)), i, i)
    tree = MultivaluedTree(root=node, labels=tuple("c%d" % i for i in range(n)))
    again = parse_newick_extended(to_newick_extended(tree))
    assert tree_equal(tree, again)


# ---- records ----

def test_records_include_trace_and_flags(toy):
    tree, trace = toy_vg_tree(toy)
    doc = to_records(tree, trace)
    assert doc["format_version"] == "3"
    assert doc["labels"] == ["x1", "x2", "x3", "x4"]
    assert len(doc["merges"]) == 2
    first = doc["merges"][0]
    assert first["children"] == [0, 1, 2]
    assert "members" not in first
    assert "leaves" not in doc["trace"]["iterations"][0]["groups"][0]
    assert first["h_lower"] == 2.0 and first["h_upper"] == 4.0
    assert first["reversal"] is False
    assert doc["trace"]["iterations"][0]["d_lower"] == 2.0


def test_records_round_trip_bytes(toy):
    tree, trace = toy_vg_tree(toy)
    text = records_to_json(to_records(tree, trace))
    tree2, trace2 = parse_records(text)
    assert tree_equal(tree, tree2)
    assert records_to_json(to_records(tree2, trace2)) == text


def test_records_round_trip_without_trace(toy):
    tree, _ = toy_vg_tree(toy)
    text = records_to_json(to_records(tree))
    tree2, trace2 = parse_records(text)
    assert trace2 is None
    assert tree_equal(tree, tree2)


def test_records_reject_taken_ids_and_one_child_merges(toy):
    tree, _ = toy_vg_tree(toy)
    doc = to_records(tree)
    # one more label makes the first merge's id that of a leaf
    extra_label = dict(doc, labels=doc["labels"] + ["x5"])
    with pytest.raises(FormatError, match="already taken"):
        parse_records(extra_label)
    repeated = json.loads(json.dumps(doc))
    repeated["merges"].append(dict(repeated["merges"][0], children=[3, 5]))
    with pytest.raises(FormatError, match="already taken"):
        parse_records(repeated)
    one_child = json.loads(json.dumps(doc))
    one_child["merges"][0]["children"] = [0]
    with pytest.raises(FormatError, match="fewer than two children"):
        parse_records(one_child)


def test_records_reject_a_trace_of_another_run(toy):
    # the toy's single-linkage, shortest-policy run forms the same leaf sets
    # as its unweighted-average run, but its trace describes another tree
    tree, trace = toy_vg_tree(toy)
    other_tree, other = toy_vg_tree(toy, "single", "shortest")
    with pytest.raises(FormatError, match="trace does not describe this tree"):
        to_records(tree, other)
    doc = json.loads(records_to_json(to_records(tree, trace)))
    swapped = dict(doc, trace=to_records(other_tree, other)["trace"])
    retagged = dict(doc, trace=dict(doc["trace"], policy="shortest"))
    moved = json.loads(json.dumps(doc))
    formed = [g for it in moved["trace"]["iterations"] for g in it["groups"]
              if g["h_lower"] is not None]
    formed[0]["h_upper"] += 1.0
    for bad in (swapped, retagged, moved):
        with pytest.raises(FormatError,
                           match="trace does not describe this tree"):
            parse_records(bad)
    assert tree_equal(parse_records(doc)[0], tree)


def _four_point_records():
    matrix = parse_matrix("0 1 4 5\n1 0 4 5\n4 4 0 2\n5 5 2 0\n")
    return json.loads(records_to_json(to_records(
        *cluster_variable_group(matrix, "single"))))


def test_records_reject_a_trace_that_forms_more_than_the_tree():
    # a group that forms no node of the tree, taking leaf 0 a second time
    extra = _four_point_records()
    extra["trace"]["iterations"][0]["groups"].append(
        {"cluster_id": 50, "member_ids": [0, 99], "h_lower": 1.0,
         "h_upper": 1.0, "fusion": None})
    # the root's group first, naming clusters formed after it
    swapped = _four_point_records()
    its = swapped["trace"]["iterations"]
    its[0], its[-1] = its[-1], its[0]
    # a group of formed ids that forms no node
    unformed = _four_point_records()
    unformed["trace"]["iterations"][-1]["groups"].append(
        {"cluster_id": 50, "member_ids": [0, 2], "h_lower": 1.0,
         "h_upper": 1.0, "fusion": None})
    # the root's group under a leaf's id
    reused = _four_point_records()
    reused["trace"]["iterations"][-1]["groups"][0]["cluster_id"] = 0
    # a group naming one id twice
    repeated = _four_point_records()
    repeated["trace"]["iterations"][0]["groups"][0]["member_ids"].append(0)
    for bad in (extra, swapped, unformed, reused, repeated):
        with pytest.raises(FormatError,
                           match="trace does not describe this tree"):
            parse_records(bad)
    tree, trace = parse_records(_four_point_records())
    assert detect_reversals(trace) == detect_reversals(tree) == ()


def test_records_json_is_stable(toy):
    tree, trace = toy_vg_tree(toy)
    a = records_to_json(to_records(tree, trace))
    b = records_to_json(to_records(tree, trace))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


def _cloud_matrix(n, seed, precision):
    pts = np.random.default_rng(seed).uniform(0, 10, size=(n, 2))
    square = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return ProximityMatrix(tuple("p%d" % i for i in range(n)),
                           square[np.triu_indices(n, 1)], precision=precision)


def test_records_round_trip_on_a_tied_cloud():
    tree, trace = cluster_variable_group(_cloud_matrix(40, 3, precision=1),
                                         "unweighted_average")
    assert any(len(g.member_ids) > 2 for it in trace.iterations
               for g in it.groups)  # one decimal ties some groups
    doc = to_records(tree, trace)
    assert doc == json.loads(json.dumps(doc))
    tree2, trace2 = parse_records(doc)
    assert to_newick_extended(tree2) == to_newick_extended(tree)
    assert trace2 == trace
    tree3, _ = parse_records(records_to_json(doc))
    assert to_newick_extended(tree3) == to_newick_extended(tree)


# records written in format versions 1 and 2, which also listed each
# merge's member labels and each trace group's leaves; version 1 listed
# every cluster an iteration passed unmerged too, as a group with null
# heights; name: method
V1_RECORDS = {"toy": "unweighted_average",
              "cloud40_unweighted_average": "unweighted_average",
              "cloud40_single": "single"}


@pytest.mark.parametrize("name", sorted(V1_RECORDS))
def test_version_1_records_read_as_a_fresh_run(name, toy):
    matrix = toy if name == "toy" else _cloud_matrix(40, 3, precision=1)
    tree, trace = cluster_variable_group(matrix, V1_RECORDS[name])
    for version in ("1", "2"):
        text = (DATA / ("records_v%s_%s.json" % (version, name))).read_text()
        assert json.loads(text)["format_version"] == version
        tree1, trace1 = parse_records(text)
        assert to_newick_extended(tree1) == to_newick_extended(tree)
        assert trace1 == trace
        assert to_records(tree1, trace1) == to_records(tree, trace)


def test_records_with_an_alpha_tag_still_read(toy):
    # documents written while trees and traces carried an "alpha" tag
    tree, trace = cluster_variable_group(toy, "joint_between_within")
    doc = to_records(tree, trace)
    assert "alpha" not in doc and "alpha" not in doc["trace"]
    tagged = json.loads(records_to_json(doc))
    tagged["alpha"] = tagged["trace"]["alpha"] = 1.0
    tree1, trace1 = parse_records(tagged)
    assert (tree1, trace1) == parse_records(doc)
    assert to_records(tree1, trace1) == doc


_DROP = object()
_TRACE = ("trace",)
_ITERATION = _TRACE + ("iterations", 0)
_GROUP = _ITERATION + ("groups", 0)


def _malformed(path, value, named=None):
    # (path in the toy's records document, value to put there or _DROP,
    # what the message must hold: by default the key, quoted)
    named = named or repr(path[-1])
    return pytest.param(path, value, named, id="/".join(map(str, path)) + (
        "-missing" if value is _DROP else "-" + type(value).__name__))


_NOT_AN_OBJECT = "is not a JSON object"


@pytest.mark.parametrize("path,value,named", [
    _malformed((), [], _NOT_AN_OBJECT),
    _malformed(("labels",), _DROP),
    _malformed(("merges",), _DROP),
    _malformed(("merges",), None),
    _malformed(("merges", 0), "x", _NOT_AN_OBJECT),
    _malformed(("merges", 0, "children"), 5),
    _malformed(("merges", 0, "h_lower"), "2.0"),
    _malformed(("merges", 0, "fusion"), "x"),
    *[_malformed(("height_decimals",), value)
      for value in ("3", True, -1, 1.5, None)],
    *[_malformed(("merges", 0, key), _DROP)
      for key in ("id", "children", "h_lower", "h_upper")],
    _malformed(_TRACE, [], _NOT_AN_OBJECT),
    _malformed(_TRACE + ("iterations",), None),
    _malformed(_ITERATION + ("groups",), None),
    _malformed(_GROUP + ("member_ids",), 4),
    *[_malformed(_TRACE + (key,), _DROP)
      for key in ("n_items", "labels", "method", "policy", "precision",
                  "notes", "iterations")],
    *[_malformed(_ITERATION + (key,), _DROP)
      for key in ("index", "d_lower", "d_next", "reversal", "groups")],
    *[_malformed(_GROUP + (key,), _DROP)
      for key in ("cluster_id", "member_ids", "h_lower", "h_upper",
                  "fusion")],
    # JSON true and false are no numbers
    *[_malformed(("merges", 0, key), True)
      for key in ("h_lower", "h_upper", "fusion", "id")],
    _malformed(("merges", 0, "children"), [0, True, 2], "unknown id True"),
    _malformed(_ITERATION + ("d_lower",), True),
    _malformed(_ITERATION + ("d_next",), False),
    *[_malformed(_GROUP + (key,), True)
      for key in ("h_lower", "h_upper", "fusion")],
    _malformed(_GROUP + ("member_ids",), [0, True, 2]),
])
def test_malformed_records_raise_format_error(toy, path, value, named):
    doc = json.loads(records_to_json(to_records(*toy_vg_tree(toy))))
    if not path:
        doc = value
    else:
        *outer, last = path
        holder = doc
        for step in outer:
            holder = holder[step]
        if value is _DROP:
            del holder[last]
        else:
            holder[last] = value
    for source in (doc, json.dumps(doc)):
        with pytest.raises(FormatError) as info:
            parse_records(source)
        assert named in str(info.value)
