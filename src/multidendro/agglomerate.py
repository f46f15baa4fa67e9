"""Agglomeration engines.

``cluster_variable_group`` merges every group of mutually tied clusters in
one step, which makes the output independent of input order and of any
tie-breaking rule; tied merges show up as nodes with more than two children
and a height interval. ``cluster_pair_group`` is the classical procedure
that merges one pair per iteration and needs a tie-break rule;
``enumerate_pair_group`` chases every tie-break choice of the classical
procedure and returns the set of distinct outcomes.

Ties are decided on comparison values (see proximity.comparison_value);
recorded heights always keep the raw full-precision numbers.

All three engines work on a ``ClusterState``: a square working matrix of
raw distances and one of comparison values, indexed by slot. After a merge
only the rows and columns of the new clusters are rewritten, so an
iteration costs one vectorised scan for the minimum plus the distances that
actually change. That scan also yields the tied edges the variable-group
engine builds its groups from; a group's height interval is the minimum and
maximum of its slice of the raw matrix, and its distances to the other
survivors come from ``linkage.vg_kernel`` called on plain lists sliced from
the matrix. The classical engine and the enumerator share one pair
merge step (``_merge_pair``); the enumerator searches depth first over
copies of the state, one per tied pair.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    EmptyInput,
    FusionFallbackWarning,
    PolicyUnavailable,
    TooManySolutions,
)
from .linkage import (
    COMPLETE,
    SINGLE,
    UNWEIGHTED_AVERAGE,
    WEIGHTED_AVERAGE,
    WITHIN_METHODS,
    MethodSpec,
    pg_distance,
    vg_kernel,
)
from .proximity import comparison_value
from .tree import (
    Leaf,
    MultivaluedTree,
    internal,
    reversals_between,
    single_leaf_tree,
    to_newick_extended,
)

POLICY_INTERVAL = "interval"
POLICY_NATURAL = "natural"
POLICY_SHORTEST = "shortest"
POLICIES = (POLICY_INTERVAL, POLICY_NATURAL, POLICY_SHORTEST)

TIEBREAK_FIRST = "first"
TIEBREAK_LAST = "last"
TIEBREAK_RANDOM = "random"
TIEBREAKS = (TIEBREAK_FIRST, TIEBREAK_LAST, TIEBREAK_RANDOM)

# natural fusion values exist only where a within-group summary is defined
_NATURAL_METHODS = (SINGLE, COMPLETE, UNWEIGHTED_AVERAGE, WEIGHTED_AVERAGE)


def normalize_policy(policy):
    if policy not in POLICIES:
        raise ValueError("unknown fusion policy %r" % (policy,))
    return policy


def normalize_tiebreak(tiebreak):
    if tiebreak not in TIEBREAKS:
        raise ValueError("unknown tie-break rule %r" % (tiebreak,))
    return tiebreak


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass(frozen=True)
class Cluster:
    cid: int
    members: tuple  # leaf indices, ascending
    node: object

    @property
    def size(self):
        return len(self.members)

    @property
    def min_leaf(self):
        return self.members[0]


@dataclass
class ClusterState:
    """Active clusters plus the working distance matrix.

    ``dist`` and ``keys`` are square float64 arrays over slots: ``dist``
    holds raw distances (zero diagonal) and ``keys`` the matching comparison
    values under ``precision``. Each active cluster owns one slot
    (``slot[cid]``; ``cid_at`` is the inverse). A merged cluster takes over
    the slot of its first constituent; the other constituents' rows and
    columns of ``keys`` are set to inf, like its diagonal, so ``keys.min()``
    is always the shortest live comparison value. Values leave the arrays as
    Python floats. ``next_id`` is the id the next merged cluster gets.
    """

    clusters: dict
    dist: np.ndarray
    keys: np.ndarray
    slot: dict
    cid_at: list
    precision: "int | None" = None
    iteration: int = 0
    next_id: int = 0

    @classmethod
    def from_matrix(cls, matrix):
        n = matrix.n
        clusters = {
            i: Cluster(i, (i,), Leaf(i, matrix.labels[i]))
            for i in range(n)
        }
        values = np.array(matrix.values, dtype=np.float64)
        if matrix.precision is None:
            key_values = values
        else:
            # a comparison value depends on the float alone, so one call
            # per distinct value is exact
            distinct, inverse = np.unique(values, return_inverse=True)
            key_values = np.array(
                [comparison_value(v, matrix.precision) for v in distinct.tolist()],
                dtype=np.float64,
            )[inverse]
        rows, cols = np.triu_indices(n, 1)
        dist = np.zeros((n, n))
        dist[rows, cols] = values
        dist[cols, rows] = values
        keys = np.full((n, n), np.inf)
        keys[rows, cols] = key_values
        keys[cols, rows] = key_values
        return cls(clusters, dist, keys, {i: i for i in range(n)},
                   list(range(n)), precision=matrix.precision, next_id=n)

    def copy(self):
        """An independent state that can be merged on without touching this one."""
        return ClusterState(dict(self.clusters), self.dist.copy(),
                            self.keys.copy(), dict(self.slot), list(self.cid_at),
                            self.precision, self.iteration, self.next_id)

    def shortest(self):
        """(raw value, comparison value, tied edges) of the current minimum.

        Edges are (low cid, high cid) pairs; the raw value is the smallest
        raw distance among them.
        """
        low_key = float(self.keys.min())
        rows, cols = self._tied_slots(low_key)
        low_raw = float(self.dist[rows, cols].min())
        return low_raw, low_key, self._edges(rows, cols)

    def tied_edges(self, key):
        """(low cid, high cid) of every active pair at comparison value key."""
        return self._edges(*self._tied_slots(key))

    def _tied_slots(self, key):
        rows, cols = np.nonzero(self.keys == key)
        upper = rows < cols
        return rows[upper], cols[upper]

    def _edges(self, rows, cols):
        cid_at = self.cid_at
        edges = []
        for r, c in zip(rows.tolist(), cols.tolist()):
            a, b = cid_at[r], cid_at[c]
            edges.append((a, b) if a < b else (b, a))
        return edges

    def block(self, row_cids, col_cids):
        """Raw distances between two lists of clusters, as nested lists."""
        slot = self.slot
        index = np.ix_([slot[c] for c in row_cids], [slot[c] for c in col_cids])
        return self.dist[index].tolist()

    def distances_from(self, cid):
        """{other active cid: raw distance} for one active cluster."""
        row = self.dist[self.slot[cid]].tolist()
        return {other: row[s] for other, s in self.slot.items() if other != cid}

    def merge(self, formed, values):
        """Replace constituents by merged clusters and store new distances.

        ``formed`` lists (new Cluster, constituent cids); the new cluster
        takes over its first constituent's slot. ``values`` maps a pair of
        active cids to its raw distance and must cover every pair that
        touches a new cluster; all other entries stay as they are.
        """
        for cluster, parts in formed:
            home = self.slot[parts[0]]
            for cid in parts:
                del self.clusters[cid]
                gone = self.slot.pop(cid)
                if gone != home:
                    self.keys[gone, :] = np.inf
                    self.keys[:, gone] = np.inf
            self.clusters[cluster.cid] = cluster
            self.slot[cluster.cid] = home
            self.cid_at[home] = cluster.cid
        if not values:
            return
        rows = [self.slot[a] for a, _ in values]
        cols = [self.slot[b] for _, b in values]
        raw = list(values.values())
        if self.precision is None:
            key_values = raw
        else:
            key_values = [comparison_value(v, self.precision) for v in raw]
        for table, new in ((self.dist, raw), (self.keys, key_values)):
            table[rows, cols] = new
            table[cols, rows] = new


def tie_groups(state, d_lower):
    """Partition active clusters by walking the tied shortest edges.

    ``d_lower`` is a comparison value; clusters joined by any chain of edges
    at that value land in one group, everything else stays alone. Groups and
    their members come back ordered by smallest leaf index.
    """
    return _groups_from_edges(state, state.tied_edges(d_lower))


def _groups_from_edges(state, edges):
    # union-find covers only the clusters the edges touch; every other
    # active cluster is a group of its own
    ds = DisjointSet({cid for edge in edges for cid in edge})
    for a, b in edges:
        ds.union(a, b)
    buckets = {}
    for cid in ds.parent:
        buckets.setdefault(ds.find(cid), []).append(cid)
    clusters = state.clusters
    min_leaf = lambda cid: clusters[cid].min_leaf
    groups = [tuple(sorted(bucket, key=min_leaf)) for bucket in buckets.values()]
    groups.extend((cid,) for cid in clusters if cid not in ds.parent)
    groups.sort(key=lambda grp: min_leaf(grp[0]))
    return tuple(groups)


def fusion_value(sizes, within, method, policy):
    """A single representative height for a tied group.

    ``within`` is the symmetric matrix of current distances between the
    group's constituent clusters. shortest picks the group minimum; natural
    picks the method's own summary (minimum, maximum, size-weighted mean or
    plain mean). The centroid and joint between-within rules have no natural
    summary, so natural falls back to shortest with a warning.
    """
    policy = normalize_policy(policy)
    if policy == POLICY_INTERVAL:
        raise PolicyUnavailable("interval policy carries no single value")
    k = len(sizes)
    if k < 2:
        raise ValueError("fusion values are defined for groups of >= 2")
    pair_values = [within[i][j] for i, j in combinations(range(k), 2)]
    if policy == POLICY_SHORTEST:
        return min(pair_values)
    kind = method.kind
    if kind == SINGLE:
        return min(pair_values)
    if kind == COMPLETE:
        return max(pair_values)
    if kind == UNWEIGHTED_AVERAGE:
        num = math.fsum(sizes[i] * sizes[j] * within[i][j]
                        for i, j in combinations(range(k), 2))
        den = math.fsum(sizes[i] * sizes[j]
                        for i, j in combinations(range(k), 2))
        return num / den
    if kind == WEIGHTED_AVERAGE:
        return math.fsum(pair_values) / len(pair_values)
    warnings.warn(
        "no natural fusion value for %r, using shortest" % (kind,),
        FusionFallbackWarning,
        stacklevel=2,
    )
    return min(pair_values)


# ---- merge trace ----

@dataclass(frozen=True)
class GroupRecord:
    cluster_id: int
    member_ids: tuple
    leaves: tuple  # leaf indices of the union
    h_lower: "float | None"  # None for pass-through singletons
    h_upper: "float | None"
    fusion: "float | None"


@dataclass(frozen=True)
class IterationRecord:
    index: int
    d_lower: float
    groups: tuple
    d_next: "float | None"
    reversal: bool


@dataclass(frozen=True)
class MergeTrace:
    n_items: int
    labels: tuple
    method: str
    alpha: "float | None"
    policy: "str | None"
    precision: "int | None"
    iterations: tuple
    notes: tuple = ()


def _as_method(method):
    # entry points take either a MethodSpec or a plain method name
    if isinstance(method, str):
        return MethodSpec(method)
    return method


# ---- variable-group engine ----

def cluster_variable_group(matrix, method, policy=POLICY_INTERVAL):
    """Cluster with simultaneous merging of tied groups.

    Returns (tree, trace). Each iteration finds the shortest current
    distance, partitions the tied clusters into groups, merges every group
    of two or more at once, and recomputes distances between all surviving
    superclusters from block views of their constituents.
    """
    policy = normalize_policy(policy)
    method = _as_method(method)
    if matrix.n == 0:
        raise EmptyInput("no individuals to cluster")
    tags = dict(method=method.kind, alpha=method.alpha, policy=policy,
                height_decimals=_decimals_for(matrix.precision))
    notes = []
    if policy == POLICY_NATURAL and method.kind not in _NATURAL_METHODS:
        notes.append(
            "no natural fusion value for %r, shortest used" % (method.kind,)
        )
    if matrix.n == 1:
        tree = single_leaf_tree(matrix.labels[0], **tags)
        trace = MergeTrace(1, matrix.labels, method.kind, method.alpha,
                           policy, matrix.precision, (), tuple(notes))
        return tree, trace

    state = ClusterState.from_matrix(matrix)
    records = []
    low = state.shortest()
    # within blocks are read only by some rules' updates and by fusion values
    keep_within = policy != POLICY_INTERVAL or method.kind in WITHIN_METHODS

    while len(state.clusters) > 1:
        state.iteration += 1
        d_lower_raw, _, edges = low
        groups = _groups_from_edges(state, edges)

        formed = []  # (merged Cluster, constituent Clusters, within or None)
        group_records = []
        reversal = False

        for grp in groups:
            members = [state.clusters[cid] for cid in grp]
            if len(grp) == 1:
                c = members[0]
                group_records.append(GroupRecord(
                    cluster_id=c.cid, member_ids=grp, leaves=c.members,
                    h_lower=None, h_upper=None, fusion=None))
                continue
            slots = [state.slot[cid] for cid in grp]
            block = state.dist[np.ix_(slots, slots)]
            pair_values = block[np.triu_indices(len(grp), 1)]
            h_lower = float(pair_values.min())
            h_upper = float(pair_values.max())
            within = block.tolist() if keep_within else None
            fusion = None
            if policy != POLICY_INTERVAL:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", FusionFallbackWarning)
                    fusion = fusion_value([c.size for c in members], within,
                                          method, policy)
            node = internal([c.node for c in members], h_lower, h_upper, fusion)
            if any(reversals_between(c.node, node) for c in members):
                reversal = True
            merged = Cluster(
                state.next_id,
                tuple(sorted(i for c in members for i in c.members)),
                node,
            )
            state.next_id += 1
            formed.append((merged, members, within))
            group_records.append(GroupRecord(
                cluster_id=merged.cid, member_ids=grp, leaves=merged.members,
                h_lower=h_lower, h_upper=h_upper, fusion=fusion))

        values = _group_update(state, formed, method)
        state.merge([(m, tuple(c.cid for c in parts)) for m, parts, _ in formed],
                    values)
        d_next = None
        if len(state.clusters) > 1:
            low = state.shortest()
            d_next = low[0]
        records.append(IterationRecord(
            index=state.iteration, d_lower=d_lower_raw,
            groups=tuple(group_records), d_next=d_next, reversal=reversal))

    root = next(iter(state.clusters.values())).node
    tree = MultivaluedTree(root=root, labels=matrix.labels, **tags)
    trace = MergeTrace(matrix.n, matrix.labels, method.kind, method.alpha,
                       policy, matrix.precision, tuple(records), tuple(notes))
    return tree, trace


def _group_update(state, formed, method):
    """Distances from each newly merged cluster to every other survivor.

    Clusters that did not merge keep their distances to each other. Block I
    is always the cluster with the lower id: an unmerged cluster against a
    merged one, or the earlier of two merged ones. The blocks come straight
    from the working matrix as Python floats, so they go to ``vg_kernel``
    unchecked.
    """
    kind = method.kind
    absorbed = {c.cid for _, parts, _ in formed for c in parts}
    kept = [c for cid, c in state.clusters.items() if cid not in absorbed]
    kept_ids = [c.cid for c in kept]
    values = {}
    for t, (merged, parts, within) in enumerate(formed):
        part_ids = [c.cid for c in parts]
        sizes = [c.size for c in parts]
        for other, cross in zip(kept, state.block(kept_ids, part_ids)):
            values[(other.cid, merged.cid)] = vg_kernel(
                kind, (other.size,), sizes, (cross,), None, within)
        for later, later_parts, later_within in formed[t + 1:]:
            values[(merged.cid, later.cid)] = vg_kernel(
                kind, sizes, [c.size for c in later_parts],
                state.block(part_ids, [c.cid for c in later_parts]),
                within, later_within)
    return values


def _decimals_for(precision):
    return 3 if precision is None else max(3, precision + 1)


# ---- classical pair-group engine ----

def _merge_pair(state, a, b, method):
    """Merge active clusters ``a`` and ``b`` at their current distance.

    The new cluster gets ``state.next_id``; its distance to every other
    survivor comes from the pair-group update. Returns the new Cluster.
    """
    d_left = state.distances_from(a)
    d_right = state.distances_from(b)
    h = d_left[b]
    left = state.clusters[a]
    right = state.clusters[b]
    node = internal([left.node, right.node], h, h, fusion=h)
    merged = Cluster(state.next_id, tuple(sorted(left.members + right.members)),
                     node)
    state.next_id += 1
    values = {}
    for cid, other in state.clusters.items():
        if cid == a or cid == b:
            continue
        values[(cid, merged.cid)] = pg_distance(
            method,
            (left.size, right.size, other.size),
            d_between=h,
            d_left=d_left[cid],
            d_right=d_right[cid],
        )
    state.merge([(merged, (a, b))], values)
    return merged


def cluster_pair_group(matrix, method, tiebreak=TIEBREAK_FIRST, seed=None):
    """Classical clustering: one pair per iteration, ties broken by rule.

    first and last take the smallest or largest tied id pair; random draws
    from the tied pairs with the given seed. All nodes are binary with
    degenerate intervals.
    """
    tiebreak = normalize_tiebreak(tiebreak)
    method = _as_method(method)
    if matrix.n == 0:
        raise EmptyInput("no individuals to cluster")
    tags = dict(method=method.kind, alpha=method.alpha, policy=None,
                height_decimals=_decimals_for(matrix.precision))
    if matrix.n == 1:
        return single_leaf_tree(matrix.labels[0], **tags)
    rng = random.Random(seed)
    state = ClusterState.from_matrix(matrix)
    while len(state.clusters) > 1:
        candidates = sorted(state.shortest()[2])
        if tiebreak == TIEBREAK_FIRST:
            a, b = candidates[0]
        elif tiebreak == TIEBREAK_LAST:
            a, b = candidates[-1]
        else:
            a, b = rng.choice(candidates)
        _merge_pair(state, a, b, method)
    root = next(iter(state.clusters.values())).node
    return MultivaluedTree(root=root, labels=matrix.labels, **tags)


# ---- enumeration of every tie-break outcome ----

def enumerate_pair_group(matrix, method, limit=10000):
    """Every distinct tree the classical procedure can produce.

    Searches depth first over working states, merging each tied pair in turn
    on a copy of the state. An outcome is the set of (members, height)
    merges made from a state onward, memoized on the live clusters' members
    plus their raw distances. Outcomes whose nesting and heights (to 12
    decimals) agree collapse into one; the one kept has the smallest
    heights read in postorder. Raises TooManySolutions once more than
    ``limit`` distinct outcomes accumulate.
    """
    method = _as_method(method)
    if matrix.n == 0:
        raise EmptyInput("no individuals to cluster")
    tags = dict(method=method.kind, alpha=method.alpha, policy=None,
                height_decimals=_decimals_for(matrix.precision))
    if matrix.n == 1:
        return (single_leaf_tree(matrix.labels[0], **tags),)
    memo = {}

    def complete(state):
        live = sorted(state.clusters.values(), key=lambda c: c.min_leaf)
        if len(live) == 1:
            return (frozenset(),)
        slots = [state.slot[c.cid] for c in live]
        key = (tuple(c.members for c in live),
               state.dist[np.ix_(slots, slots)].tobytes())
        found = memo.get(key)
        if found is not None:
            return found
        acc = set()
        pairs = state.shortest()[2]
        for k, (a, b) in enumerate(pairs):
            # nothing reads this state after its last pair, so that pair
            # merges in place; a run without ties then copies nothing
            after = state if k == len(pairs) - 1 else state.copy()
            merged = _merge_pair(after, a, b, method)
            step = frozenset(((merged.members, merged.node.h_lower),))
            for rest in complete(after):
                acc.add(rest | step)
                if len(acc) > limit:
                    raise TooManySolutions(
                        "more than %d tie-break outcomes" % (limit,)
                    )
        memo[key] = acc
        return acc

    # outcomes that collapse differ only past 12 decimals; keeping the one
    # with the smallest postorder heights makes the choice independent of
    # the order the search met them in
    kept = {}
    for merges in complete(ClusterState.from_matrix(matrix)):
        root = _root_from_merges(merges, matrix.labels)
        collapsed = frozenset((members, round(h, 12)) for members, h in merges)
        heights = _postorder_heights(root)
        if collapsed not in kept or heights < kept[collapsed][0]:
            kept[collapsed] = (heights, root)
    if len(kept) > limit:
        raise TooManySolutions("more than %d tie-break outcomes" % (limit,))
    trees = (MultivaluedTree(root=root, labels=matrix.labels, **tags)
             for _, root in kept.values())
    return tuple(sorted(trees, key=to_newick_extended))


def _root_from_merges(merges, labels):
    # a merge's children are the largest clusters already formed inside it
    top = [Leaf(i, label) for i, label in enumerate(labels)]
    for members, h in sorted(merges, key=lambda merge: len(merge[0])):
        children = {id(top[i]): top[i] for i in members}
        node = internal(children.values(), h, h, fusion=h)
        for i in members:
            top[i] = node
    return node


def _postorder_heights(root):
    # preorder with the children taken last to first, reversed
    heights = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            heights.append(node.h_lower)
            stack.extend(node.children)
    heights.reverse()
    return heights


# ---- reversal reporting ----

@dataclass(frozen=True)
class ReversalReport:
    kind: str  # "interval" or "fusion"
    child: tuple  # leaf labels of the inner node
    parent: tuple  # leaf labels of the outer node
    child_value: float
    parent_value: float


def detect_reversals(source):
    """Reversal reports from a merge trace or from a finished tree.

    An interval reversal is a node whose upper bound exceeds the lower bound
    of the node it later merges into; a fusion reversal is a chosen fusion
    value above the enclosing node's chosen value.
    """
    if isinstance(source, MergeTrace):
        return _reversals_from_trace(source)
    if isinstance(source, MultivaluedTree):
        return _reversals_from_tree(source)
    raise TypeError("expected a MergeTrace or a MultivaluedTree")


def _reversals_from_trace(trace):
    labels = trace.labels
    formed = {}
    reports = []
    for it in trace.iterations:
        for grp in it.groups:
            if grp.h_lower is None:
                continue
            parent_leaves = tuple(labels[i] for i in grp.leaves)
            for cid in grp.member_ids:
                child = formed.get(cid)
                if child is None:
                    continue
                child_leaves = tuple(labels[i] for i in child.leaves)
                for kind, child_value, parent_value in reversals_between(child, grp):
                    reports.append(ReversalReport(
                        kind, child_leaves, parent_leaves,
                        child_value, parent_value))
        for grp in it.groups:
            if grp.h_lower is not None:
                formed[grp.cluster_id] = grp
    return tuple(reports)


def _reversals_from_tree(tree):
    reports = []

    def leaves_of(node):
        return tuple(leaf.label for leaf in node.leaves())

    # preorder over (node, parent), without recursion
    stack = [(tree.root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            for kind, value, parent_value in reversals_between(node, parent):
                reports.append(ReversalReport(
                    kind, leaves_of(node), leaves_of(parent),
                    value, parent_value))
        if not node.is_leaf:
            stack.extend((child, node) for child in reversed(node.children))
    return tuple(reports)
