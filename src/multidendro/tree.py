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
"""

from __future__ import annotations

import json
import re
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
    alpha: "float | None" = None
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


def single_leaf_tree(label, **tags):
    return MultivaluedTree(root=Leaf(0, str(label)), labels=(str(label),), **tags)


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
    a "fusion" reversal is a chosen fusion value above the parent's. Works
    on tree nodes and on trace GroupRecords alike.
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
    do not matter.
    """
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


# ---- cophenetic matrix ----

def cophenetic_matrix(tree):
    """Pairwise heights at which leaves first share a node.

    Needs every interval resolved to a single height, either degenerate or
    via a fusion value; otherwise UnresolvedHeights.
    """
    n = tree.n
    values = np.zeros(condensed_size(n))
    leaf_lists = _leaf_lists(tree.root)
    # in preorder: the first unresolved node in preorder is reported
    for node in tree.internal_nodes():
        h = resolve_height(node)
        groups = [np.array([leaf.index for leaf in leaf_lists.get(id(c), (c,))])
                  for c in node.children]
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
    d = tree.height_decimals

    parts = []
    # nodes still to write, interleaved with the text that follows them
    stack = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            if not _LABEL_RE.fullmatch(item.label):
                raise FormatError("label %r not serializable" % (item.label,))
            parts.append(item.label)
        else:
            stack.append(")[%.*f,%.*f]" % (d, item.h_lower, d, item.h_upper))
            for k, child in enumerate(reversed(item.children)):
                if k:
                    stack.append(",")
                stack.append(child)
            stack.append("(")
    parts.append(";")
    return "".join(parts)


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

FORMAT_VERSION = "2"


def to_records(tree, trace=None):
    """Lossless dict form of a tree plus, when given, its merge trace.

    Node ids: leaves are 0..n-1 in label order, merges continue upward in
    formation order (taken from the trace when present, otherwise assigned
    bottom-up by lowest height, then smallest member leaf). A trace that
    does not describe the tree raises FormatError. The trace lists each
    iteration's merged groups, one plain dict per group.
    """
    index = {label: i for i, label in enumerate(tree.labels)}
    leaf_lists = _leaf_lists(tree.root)
    if trace is not None:
        node_ids = _ids_from_trace(tree, trace, leaf_lists)
    else:
        node_ids = _ids_bottom_up(tree)
    reversed_nodes = {id(node) for node, *_ in reversal_edges(tree.root)}

    merges = []
    for node in tree.internal_nodes():
        merges.append({
            "id": node_ids[id(node)],
            "children": [index[child.label] if child.is_leaf
                         else node_ids[id(child)] for child in node.children],
            "members": sorted((leaf.label for leaf in leaf_lists[id(node)]),
                              key=lambda lab: index[lab]),
            "h_lower": node.h_lower,
            "h_upper": node.h_upper,
            "fusion": node.fusion,
            "reversal": id(node) in reversed_nodes,
        })

    merges.sort(key=lambda rec: rec["id"])
    doc = {
        "format_version": FORMAT_VERSION,
        "labels": list(tree.labels),
        "method": tree.method,
        "alpha": tree.alpha,
        "policy": tree.policy,
        "height_decimals": tree.height_decimals,
        "merges": merges,
        "trace": None if trace is None else _trace_to_dict(trace),
    }
    return doc


def _leaf_lists(root):
    """Map id of each internal node -> its leaves, left to right."""
    lists = {}
    for node in postorder(root):
        if not node.is_leaf:
            lists[id(node)] = [leaf for child in node.children
                               for leaf in lists.get(id(child), (child,))]
    return lists


def _ids_bottom_up(tree):
    nodes = list(tree.internal_nodes())
    nodes.sort(key=lambda nd: (nd.h_lower, nd.min_leaf))
    return {id(nd): tree.n + k for k, nd in enumerate(nodes)}


def _ids_from_trace(tree, trace, leaf_lists):
    """Map id of each internal node -> its cluster id in the trace, which
    must form every node with the same leaves, heights, labels and tags."""
    if (tuple(trace.labels), trace.method, trace.alpha, trace.policy) != (
            tree.labels, tree.method, tree.alpha, tree.policy):
        raise FormatError("trace does not describe this tree")
    formed = {frozenset(grp.leaves): grp
              for it in trace.iterations for grp in it.groups}
    ids = {}
    for node in tree.internal_nodes():
        grp = formed.get(frozenset(leaf.index for leaf in leaf_lists[id(node)]))
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
        "alpha": trace.alpha,
        "policy": trace.policy,
        "precision": trace.precision,
        "notes": list(trace.notes),
        "iterations": [
            {
                "index": it.index,
                "d_lower": it.d_lower,
                "d_next": it.d_next,
                "reversal": it.reversal,
                "groups": [
                    {
                        "cluster_id": g.cluster_id,
                        "member_ids": list(g.member_ids),
                        "leaves": list(g.leaves),
                        "h_lower": g.h_lower,
                        "h_upper": g.h_upper,
                        "fusion": g.fusion,
                    }
                    for g in it.groups
                ],
            }
            for it in trace.iterations
        ],
    }


def records_to_json(doc):
    """Deterministic text form of a records document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_records(source):
    """Rebuild (tree, trace) from a records document or its JSON text.

    Reads versions "1" and "2"; a version 1 trace's pass-through groups,
    the ones with null heights, are dropped.
    """
    doc = json.loads(source) if isinstance(source, str) else source
    if doc.get("format_version") not in ("1", FORMAT_VERSION):
        raise FormatError("unsupported records version %r" % (doc.get("format_version"),))
    labels = tuple(doc["labels"])
    nodes = {i: Leaf(i, lab) for i, lab in enumerate(labels)}
    consumed = set()
    for rec in sorted(doc["merges"], key=lambda r: r["id"]):
        if rec["id"] in nodes:
            raise FormatError("merge id %r is already taken" % (rec["id"],))
        if len(rec["children"]) < 2:
            raise FormatError("merge %r has fewer than two children" % (rec["id"],))
        children = []
        for cid in rec["children"]:
            if cid not in nodes:
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
    tree = MultivaluedTree(
        root=nodes[roots[0]],
        labels=labels,
        method=doc.get("method"),
        alpha=doc.get("alpha"),
        policy=doc.get("policy"),
        height_decimals=doc.get("height_decimals", 3),
    )
    trace = None
    if doc.get("trace") is not None:
        from .agglomerate import GroupRecord, IterationRecord, MergeTrace

        td = doc["trace"]
        trace = MergeTrace(
            n_items=td["n_items"],
            labels=tuple(td["labels"]),
            method=td["method"],
            alpha=td["alpha"],
            policy=td["policy"],
            precision=td["precision"],
            iterations=tuple(
                IterationRecord(
                    index=it["index"],
                    d_lower=it["d_lower"],
                    groups=tuple(
                        GroupRecord(
                            cluster_id=g["cluster_id"],
                            member_ids=tuple(g["member_ids"]),
                            leaves=tuple(g["leaves"]),
                            h_lower=g["h_lower"],
                            h_upper=g["h_upper"],
                            fusion=g["fusion"],
                        )
                        for g in it["groups"] if g["h_lower"] is not None
                    ),
                    d_next=it["d_next"],
                    reversal=it["reversal"],
                )
                for it in td["iterations"]
            ),
            notes=tuple(td["notes"]),
        )
        _ids_from_trace(tree, trace, _leaf_lists(tree.root))
    return tree, trace
