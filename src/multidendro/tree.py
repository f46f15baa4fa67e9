"""Multivalued trees: hierarchies whose nodes carry height intervals.

Every internal node stores a lower and an upper height. A classical
dendrogram is the degenerate case h_lower == h_upper everywhere. Nodes may
have more than two children, which is how simultaneous merges of whole tied
groups are represented without picking an arbitrary pair order.

Canonical form: children are ordered by the smallest leaf index they cover,
and leaf indices follow input order. Two runs over relabeled input therefore
serialize identically up to the labels themselves.

Trees of any depth are walked by three iterative helpers: ``preorder``,
``postorder`` and ``reversal_edges``, the one scan for reversals.

A cluster is known by its id and its children, not by its leaves: records
(format "3") and ``tree_equal`` work from those, so neither grows with the
square of a tree's depth. Only results that show leaf lists build them.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DuplicateLabel,
    FormatError,
    ParseError,
    UnresolvedHeights,
)
from .proximity import KIND_DISTANCE, ProximityMatrix, condensed_size

_LABEL_RE = re.compile(r"[^\s(),\[\];]+")
_HEIGHT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


@dataclass(frozen=True)
class Leaf:
    index: int
    label: str

    is_leaf = True
    h_lower = 0.0
    h_upper = 0.0
    fusion = None

    @property
    def min_leaf(self):
        return self.index

    def leaves(self):
        yield self


@dataclass(frozen=True)
class Internal:
    children: tuple
    h_lower: float
    h_upper: float
    fusion: "float | None" = None
    # smallest leaf index below; stored at construction so that building
    # a deep tree never walks the subtrees underneath
    min_leaf: int = field(init=False, compare=False, repr=False)

    is_leaf = False

    def __post_init__(self):
        object.__setattr__(self, "min_leaf",
                           min(c.min_leaf for c in self.children))

    def leaves(self):
        """Leaves left to right, without recursion."""
        return (node for node in postorder(self) if node.is_leaf)


def internal(children, h_lower, h_upper, fusion=None):
    """Build an internal node; children get canonical order."""
    children = tuple(sorted(children, key=lambda c: c.min_leaf))
    if len(children) < 2:
        raise ValueError("internal nodes need at least two children")
    return Internal(children, float(h_lower), float(h_upper),
                    None if fusion is None else float(fusion))


@dataclass(frozen=True)
class MultivaluedTree:
    """A hierarchy over labeled individuals with interval heights."""

    root: object
    labels: tuple
    method: "str | None" = None
    policy: "str | None" = None
    height_decimals: int = 3

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel("tree labels must be distinct")

    @property
    def n(self):
        return len(self.labels)

    def internal_nodes(self):
        """Preorder over internal nodes."""
        return (node for node, _ in preorder(self.root) if not node.is_leaf)

    def node_heights(self):
        """Map frozenset of member labels -> (h_lower, h_upper, fusion)."""
        out = {}
        for node in self.internal_nodes():
            members = frozenset(leaf.label for leaf in node.leaves())
            out[members] = (node.h_lower, node.h_upper, node.fusion)
        return out


def preorder(root):
    """(node, parent) pairs, each node before its children and children
    left to right; the root's parent is None. Iterative."""
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        if not node.is_leaf:
            stack.extend((child, node) for child in reversed(node.children))


def postorder(root):
    """The nodes as a list, children before parents and left to right."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if not node.is_leaf:
            stack.extend(node.children)
    out.reverse()
    return out


def resolve_height(node):
    """The single height of a node: the chosen fusion value if present,
    otherwise the interval bound when the interval is degenerate."""
    if node.is_leaf:
        return 0.0
    if node.fusion is not None:
        return node.fusion
    if node.h_lower == node.h_upper:
        return node.h_lower
    raise UnresolvedHeights(
        "node spans [%r, %r] and carries no fusion value"
        % (node.h_lower, node.h_upper)
    )


def reversals_between(child, parent):
    """How a node tops the node it merges into, as (kind, child value,
    parent value) tuples.

    An "interval" reversal is an upper bound above the parent's lower bound;
    a "fusion" reversal is a chosen fusion value above the parent's. Only
    ``reversal_edges`` and the variable-group engine's iteration flag ask.
    """
    found = []
    if child.h_upper > parent.h_lower:
        found.append(("interval", child.h_upper, parent.h_lower))
    if (child.fusion is not None and parent.fusion is not None
            and child.fusion > parent.fusion):
        found.append(("fusion", child.fusion, parent.fusion))
    return found


def reversal_edges(root):
    """(node, parent, kind, value, parent value) in preorder for every
    internal node that tops its parent, by ``reversals_between``. A leaf
    is never a reversal."""
    for node, parent in preorder(root):
        if parent is not None and not node.is_leaf:
            for kind, value, parent_value in reversals_between(node, parent):
                yield node, parent, kind, value, parent_value


# ---- validation ----

_REVERSAL_MESSAGES = {
    "interval": "node %s tops out at %r, above its parent start %r",
    "fusion": "node %s fuses at %r, above its parent fusion %r",
}


@dataclass(frozen=True)
class TreeReport:
    errors: tuple
    reversals: tuple

    @property
    def ok(self):
        return not self.errors


def validate(tree):
    """Check structural and height axioms.

    Hard errors: duplicate or unknown leaves, internal nodes with fewer than
    two children, negative heights, inverted intervals, fusion values outside
    their interval. Zero heights are legal: the parser accepts zero
    distances, and individuals at distance zero merge at height zero.
    Height monotonicity failures between nested nodes are reported
    separately as reversals, since the centroid family can produce them on
    valid input.
    """
    errors = []
    seen = []

    def name(node):
        return "{%s}" % ",".join(sorted(leaf.label for leaf in node.leaves()))

    for node, _ in preorder(tree.root):
        if node.is_leaf:
            seen.append(node.index)
            if not (0 <= node.index < tree.n) or tree.labels[node.index] != node.label:
                errors.append("leaf %r does not match the label table" % (node.label,))
            continue
        if len(node.children) < 2:
            errors.append("internal node %s has fewer than two children" % name(node))
        if node.h_lower < 0 or node.h_upper < 0:
            errors.append("negative height on node %s" % name(node))
        if node.h_lower > node.h_upper:
            errors.append(
                "inverted interval [%r, %r] on node %s"
                % (node.h_lower, node.h_upper, name(node))
            )
        if node.fusion is not None and not (
            node.h_lower <= node.fusion <= node.h_upper
        ):
            errors.append(
                "fusion %r outside [%r, %r] on node %s"
                % (node.fusion, node.h_lower, node.h_upper, name(node))
            )
    reversals = [_REVERSAL_MESSAGES[kind] % (name(node), value, parent_value)
                 for node, _, kind, value, parent_value
                 in reversal_edges(tree.root)]

    if sorted(seen) != list(range(tree.n)):
        errors.append("leaves do not cover the label table exactly once")
    return TreeReport(tuple(errors), tuple(reversals))


# ---- comparison ----

def tree_equal(a, b, tol=1e-9):
    """True when both trees nest the same label sets at the same heights.

    Heights compare within absolute ``tol``; child order and leaf numbering
    do not matter. Each node gets an int key, shared by both trees, from its
    label or its children's sorted keys; equal root keys mean the same nesting.
    """
    if set(a.labels) != set(b.labels):
        return False
    keys = {label: k for k, label in enumerate(a.labels)}
    found = []
    for tree in (a, b):
        key_of, heights = {}, {}  # id of node -> key; key -> heights
        for node in postorder(tree.root):
            key = keys.setdefault(node.label if node.is_leaf else tuple(
                sorted(key_of[id(c)] for c in node.children)), len(keys))
            heights[key] = (node.h_lower, node.h_upper)
            key_of[id(node)] = key
        found.append((key, heights))
    (root_a, ha), (root_b, hb) = found
    return root_a == root_b and not any(
        abs(lo - hb[key][0]) > tol or abs(up - hb[key][1]) > tol
        for key, (lo, up) in ha.items())


# ---- cophenetic matrix ----

def cophenetic_matrix(tree):
    """Pairwise heights at which leaves first share a node.

    Needs every interval resolved to a single height, either degenerate or
    via a fusion value; otherwise UnresolvedHeights.
    """
    n = tree.n
    values = np.zeros(condensed_size(n))
    # the leaf indices left to right, and the run of them each node covers
    order, runs = [], {}
    for node in postorder(tree.root):
        if node.is_leaf:
            runs[id(node)] = slice(len(order), len(order) + 1)
            order.append(node.index)
        else:
            runs[id(node)] = slice(runs[id(node.children[0])].start,
                                   runs[id(node.children[-1])].stop)
    order = np.array(order)
    # in preorder: the first unresolved node in preorder is reported
    for node in tree.internal_nodes():
        h = resolve_height(node)
        groups = [order[runs[id(c)]] for c in node.children]
        for gi, gj in combinations(groups, 2):
            a, b = np.minimum.outer(gi, gj), np.maximum.outer(gi, gj)
            values[a * (2 * n - a - 1) // 2 + (b - a - 1)] = h
    return ProximityMatrix(tree.labels, values, precision=None,
                           kind=KIND_DISTANCE)


# ---- extended newick ----

def to_newick_extended(tree):
    """Serialize with bracketed intervals: (a,b,c)[h_lower,h_upper];

    Heights get ``tree.height_decimals`` decimals. Labels must be free of
    whitespace and of the delimiters ()[],; so the format stays unambiguous.
    """
    return newick_texts((), [tree.root], tree.height_decimals)[0]


def newick_texts(nodes, roots, decimals):
    """``to_newick_extended`` of the tree under each of ``roots``. Of the
    internal ``nodes`` they share, children first, each one that several
    parents use is formatted once and dropped after its last use."""
    left = Counter(id(child) for node in nodes for child in node.children)
    text = {}  # id of a shared node -> its text

    def write(node):
        parts = []
        # nodes still to write, interleaved with the text that follows them
        stack = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.is_leaf:
                if not _LABEL_RE.fullmatch(item.label):
                    raise FormatError("label %r not serializable"
                                      % (item.label,))
                parts.append(item.label)
            elif id(item) in text:
                left[id(item)] -= 1
                parts.append(text[id(item)] if left[id(item)]
                             else text.pop(id(item)))
            else:
                stack.append(")[%.*f,%.*f]" % (decimals, item.h_lower,
                                               decimals, item.h_upper))
                for k, child in enumerate(reversed(item.children)):
                    if k:
                        stack.append(",")
                    stack.append(child)
                stack.append("(")
        return "".join(parts)

    for node in nodes:
        if left[id(node)] > 1:
            text[id(node)] = write(node)
    return [write(root) + ";" for root in roots]


def parse_newick_extended(text):
    """Inverse of to_newick_extended on canonical output.

    Reads without recursion, so a tree of any depth parses.
    """
    pos = 0
    labels = set()
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

    # postorder: a label for each leaf, (child count, h_lower, h_upper)
    # for each internal node
    ops = []
    open_counts = []  # children read so far by each open internal node
    while True:
        skip_ws()
        if pos >= len(text):
            fail("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            open_counts.append(0)
            continue
        m = _LABEL_RE.match(text, pos)
        if not m:
            fail("expected a label")
        label = m.group(0)
        pos = m.end()
        if label in labels:
            raise ParseError("label %r appears twice" % (label,), pos)
        labels.add(label)
        ops.append(label)
        # close every open node that this child completes
        while open_counts:
            open_counts[-1] += 1
            skip_ws()
            if pos < len(text) and text[pos] == ",":
                pos += 1
                break
            expect(")")
            if open_counts[-1] < 2:
                fail("internal nodes need at least two children")
            expect("[")
            lo = parse_height()
            expect(",")
            up = parse_height()
            expect("]")
            ops.append((open_counts.pop(), lo, up))
        else:
            break
    expect(";")
    skip_ws()
    if pos != len(text):
        fail("trailing text after ';'")

    # leaves are indexed by sorted label so equal trees parse identically
    labels = sorted(labels)
    order = {label: i for i, label in enumerate(labels)}
    nodes = []
    for op in ops:
        if isinstance(op, str):
            nodes.append(Leaf(order[op], op))
        else:
            count, lo, up = op
            children = nodes[-count:]
            del nodes[-count:]
            nodes.append(internal(children, lo, up))
    return MultivaluedTree(root=nodes[0], labels=tuple(labels),
                           height_decimals=max(3, decimals_seen))


# ---- records document ----

FORMAT_VERSION = "3"
_NUMBER = (int, float)
_MAYBE_NUMBER = (int, float, type(None))


def to_records(tree, trace=None):
    """Lossless dict form of a tree plus, when given, its merge trace.

    Node ids: leaves are 0..n-1 in label order, merges continue upward in
    formation order (taken from the trace when present, otherwise assigned
    bottom-up by lowest height, then smallest member leaf). A trace that
    does not describe the tree raises FormatError. The trace lists each
    iteration's merged groups, one plain dict per group.
    """
    index = {label: i for i, label in enumerate(tree.labels)}
    if trace is not None:
        node_ids = _ids_from_trace(tree, trace)
    else:
        node_ids = _ids_bottom_up(tree)
    reversed_nodes = {id(node) for node, *_ in reversal_edges(tree.root)}

    merges = []
    for node in tree.internal_nodes():
        merges.append({
            "id": node_ids[id(node)],
            "children": [index[child.label] if child.is_leaf
                         else node_ids[id(child)] for child in node.children],
            "h_lower": node.h_lower, "h_upper": node.h_upper,
            "fusion": node.fusion, "reversal": id(node) in reversed_nodes,
        })

    merges.sort(key=lambda rec: rec["id"])
    return {
        "format_version": FORMAT_VERSION,
        "labels": list(tree.labels),
        "method": tree.method,
        "policy": tree.policy,
        "height_decimals": tree.height_decimals,
        "merges": merges,
        "trace": None if trace is None else _trace_to_dict(trace),
    }


def _ids_bottom_up(tree):
    nodes = list(tree.internal_nodes())
    nodes.sort(key=lambda nd: (nd.h_lower, nd.min_leaf))
    return {id(nd): tree.n + k for k, nd in enumerate(nodes)}


def _ids_from_trace(tree, trace):
    """Map id of each internal node -> its cluster id in a trace with the
    tree's labels and tags, which forms each node from the same ids at
    the same heights."""
    if (tuple(trace.labels), trace.method, trace.policy) != (
            tree.labels, tree.method, tree.policy):
        raise FormatError("trace does not describe this tree")
    formed = {frozenset(grp.member_ids): grp
              for it in trace.iterations for grp in it.groups}
    ids = {}
    # reversed preorder: every node after the nodes below it
    for node in reversed(list(tree.internal_nodes())):
        grp = formed.get(frozenset(c.index if c.is_leaf else ids[id(c)]
                                   for c in node.children))
        if grp is None or (grp.h_lower, grp.h_upper, grp.fusion) != (
                node.h_lower, node.h_upper, node.fusion):
            raise FormatError("trace does not describe this tree")
        ids[id(node)] = grp.cluster_id
    return ids


def _trace_to_dict(trace):
    return {
        "n_items": trace.n_items,
        "labels": list(trace.labels),
        "method": trace.method,
        "policy": trace.policy,
        "precision": trace.precision,
        "notes": list(trace.notes),
        "iterations": [
            {"index": it.index, "d_lower": it.d_lower, "d_next": it.d_next,
             "reversal": it.reversal,
             "groups": [{"cluster_id": g.cluster_id,
                         "member_ids": list(g.member_ids),
                         "h_lower": g.h_lower, "h_upper": g.h_upper,
                         "fusion": g.fusion} for g in it.groups]}
            for it in trace.iterations
        ],
    }


def _is_a(value, kind):
    # JSON true and false are Python ints, so they pass only where a bool
    # (or anything at all) is asked for
    return isinstance(value, kind) and (
        kind in (bool, object) or not isinstance(value, bool))


def _checked(obj, where, **kinds):
    """``obj``, once it is a dict holding each keyword's key with a value
    of that keyword's type; FormatError naming the first that is not."""
    if not isinstance(obj, dict):
        raise FormatError("%s is not a JSON object" % (where,))
    for key, kind in kinds.items():
        if key not in obj or not _is_a(obj[key], kind):
            raise FormatError("%s lacks a valid %r" % (where, key))
    return obj


def records_to_json(doc):
    """Deterministic text form of a records document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_records(source):
    """Rebuild (tree, trace) from a records document or its JSON text.

    Reads versions "1" to "3" alike: the leaf lists of 1 and 2 are ignored,
    and so are a version 1 trace's pass-through groups, with null heights,
    and the "alpha" tag older documents carry. A missing or ill-typed key
    raises FormatError.
    """
    doc = json.loads(source) if isinstance(source, str) else source
    _checked(doc, "records document")
    if doc.get("format_version") not in ("1", "2", FORMAT_VERSION):
        raise FormatError("unsupported records version %r" % (doc.get("format_version"),))
    _checked(doc, "records document", labels=list, merges=list)
    labels = tuple(doc["labels"])
    nodes = {i: Leaf(i, lab) for i, lab in enumerate(labels)}
    consumed = set()
    merges = [_checked(rec, "merge", id=int, children=list,
                       h_lower=_NUMBER, h_upper=_NUMBER)
              for rec in doc["merges"]]
    for rec in sorted(merges, key=lambda r: r["id"]):
        if rec["id"] in nodes:
            raise FormatError("merge id %r is already taken" % (rec["id"],))
        if len(rec["children"]) < 2:
            raise FormatError("merge %r has fewer than two children" % (rec["id"],))
        if not _is_a(rec.get("fusion"), _MAYBE_NUMBER):
            raise FormatError("merge %r lacks a valid 'fusion'" % (rec["id"],))
        children = []
        for cid in rec["children"]:
            if not _is_a(cid, int) or cid not in nodes:
                raise FormatError("merge %r references unknown id %r" % (rec["id"], cid))
            if cid in consumed:
                raise FormatError("id %r used as a child twice" % (cid,))
            consumed.add(cid)
            children.append(nodes[cid])
        nodes[rec["id"]] = internal(children, rec["h_lower"], rec["h_upper"],
                                    rec.get("fusion"))
    roots = [nid for nid in nodes if nid not in consumed]
    if len(roots) != 1:
        raise FormatError("records describe %d roots" % (len(roots),))
    decimals = doc.get("height_decimals", 3)
    if type(decimals) is not int or decimals < 0:
        raise FormatError("records document lacks a valid 'height_decimals'")
    tree = MultivaluedTree(
        root=nodes[roots[0]], labels=labels, method=doc.get("method"),
        policy=doc.get("policy"), height_decimals=decimals)
    trace = None
    if doc.get("trace") is not None:
        from .agglomerate import GroupRecord, IterationRecord, MergeTrace

        td = _checked(doc["trace"], "trace", n_items=int, labels=list,
                      method=object, policy=object,
                      precision=object, notes=list, iterations=list)
        iterations = []
        for it in td["iterations"]:
            _checked(it, "trace iteration", index=int, d_lower=_NUMBER,
                     d_next=_MAYBE_NUMBER, reversal=bool, groups=list)
            groups = [_checked(g, "trace group", cluster_id=int,
                               member_ids=list, h_lower=_MAYBE_NUMBER,
                               h_upper=_MAYBE_NUMBER, fusion=_MAYBE_NUMBER)
                      for g in it["groups"]]
            for g in groups:
                if not all(_is_a(cid, int) for cid in g["member_ids"]):
                    raise FormatError("trace group lacks a valid 'member_ids'")
            iterations.append(IterationRecord(
                it["index"], it["d_lower"],
                tuple(GroupRecord(g["cluster_id"], tuple(g["member_ids"]),
                                  g["h_lower"], g["h_upper"], g["fusion"])
                      for g in groups if g["h_lower"] is not None),
                it["d_next"], it["reversal"]))
        trace = MergeTrace(td["n_items"], tuple(td["labels"]), td["method"],
                           td["policy"], td["precision"], tuple(iterations),
                           tuple(td["notes"]))
        _ids_from_trace(tree, trace)
    return tree, trace
