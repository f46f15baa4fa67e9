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
from oracles import parse_newick_extended_recursive

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

    merges = to_records(tree)["merges"]
    assert [m["id"] for m in merges] == list(range(depth + 1, 2 * depth + 1))
    by_height = {m["h_lower"]: m for m in merges}
    for i in range(1, depth):
        # the node at height depth - i joins leaf i to the nodes below
        m = by_height[float(depth - i)]
        below = i + 1 if i == depth - 1 else by_height[float(depth - i - 1)]["id"]
        assert m["children"] == [i, below]
        assert m["members"] == list(labels[i:])
        assert m["reversal"] == (i == 1)
    top = by_height[depth - 1.5]
    assert top["children"] == [0, by_height[depth - 1.0]["id"]]
    assert top["members"] == list(labels)
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
    assert doc["format_version"] == "2"
    assert doc["labels"] == ["x1", "x2", "x3", "x4"]
    assert len(doc["merges"]) == 2
    first = doc["merges"][0]
    assert first["members"] == ["x1", "x2", "x3"]
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


# records written in format version 1, which also listed every cluster an
# iteration passed unmerged, as a group with null heights; name: method
V1_RECORDS = {"toy": "unweighted_average",
              "cloud40_unweighted_average": "unweighted_average",
              "cloud40_single": "single"}


@pytest.mark.parametrize("name", sorted(V1_RECORDS))
def test_version_1_records_read_as_a_fresh_run(name, toy):
    matrix = toy if name == "toy" else _cloud_matrix(40, 3, precision=1)
    tree, trace = cluster_variable_group(matrix, V1_RECORDS[name])
    text = (DATA / ("records_v1_%s.json" % name)).read_text()
    assert json.loads(text)["format_version"] == "1"
    tree1, trace1 = parse_records(text)
    assert to_newick_extended(tree1) == to_newick_extended(tree)
    assert trace1 == trace
    assert to_records(tree1, trace1) == to_records(tree, trace)
