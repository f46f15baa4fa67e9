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

Both clustering engines work on a ``ClusterState``: a square working matrix
of raw distances and one of comparison values, indexed by slot. After a
merge only the rows and columns of the new clusters are rewritten, so an
iteration costs one vectorised scan for the minimum plus the distances that
actually change.
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
    BlockView,
    MethodSpec,
    pg_distance,
    vg_distance,
)
from .proximity import comparison_value
from .tree import Leaf, MultivaluedTree, internal, single_leaf_tree, to_newick_extended

POLICY_INTERVAL = "interval"
POLICY_NATURAL = "natural"
POLICY_SHORTEST = "shortest"
POLICIES = (POLICY_INTERVAL, POLICY_NATURAL, POLICY_SHORTEST)
_POLICY_ALIASES = {"interval-only": POLICY_INTERVAL}

TIEBREAK_FIRST = "first"
TIEBREAK_LAST = "last"
TIEBREAK_RANDOM = "random"
TIEBREAKS = (TIEBREAK_FIRST, TIEBREAK_LAST, TIEBREAK_RANDOM)
_TIEBREAK_ALIASES = {"first-pair": TIEBREAK_FIRST,
                     "last-pair": TIEBREAK_LAST,
                     "seeded-random": TIEBREAK_RANDOM}

# natural fusion values exist only where a within-group summary is defined
_NATURAL_METHODS = (SINGLE, COMPLETE, UNWEIGHTED_AVERAGE, WEIGHTED_AVERAGE)


def normalize_policy(policy):
    policy = _POLICY_ALIASES.get(policy, policy)
    if policy not in POLICIES:
        raise ValueError("unknown fusion policy %r" % (policy,))
    return policy


def normalize_tiebreak(tiebreak):
    tiebreak = _TIEBREAK_ALIASES.get(tiebreak, tiebreak)
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
    Python floats.
    """

    clusters: dict
    dist: np.ndarray
    keys: np.ndarray
    slot: dict
    cid_at: list
    precision: "int | None" = None
    iteration: int = 0

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
                   list(range(n)), precision=matrix.precision)

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
    ds = DisjointSet(state.clusters)
    for a, b in state.tied_edges(d_lower):
        ds.union(a, b)
    buckets = {}
    for cid in state.clusters:
        buckets.setdefault(ds.find(cid), []).append(cid)
    min_leaf = lambda cid: state.clusters[cid].min_leaf
    groups = [tuple(sorted(bucket, key=min_leaf)) for bucket in buckets.values()]
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
    next_id = matrix.n
    low = state.shortest()

    while len(state.clusters) > 1:
        state.iteration += 1
        d_lower_raw, d_lower_key, _ = low
        groups = tie_groups(state, d_lower_key)

        formed = []  # (merged Cluster, constituent Clusters, within matrix)
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
            k = len(members)
            within = state.block(grp, grp)
            pair_values = [within[a][b] for a, b in combinations(range(k), 2)]
            h_lower = min(pair_values)
            h_upper = max(pair_values)
            fusion = None
            if policy != POLICY_INTERVAL:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", FusionFallbackWarning)
                    fusion = fusion_value([c.size for c in members], within,
                                          method, policy)
            for c in members:
                if c.node.h_upper > h_lower:
                    reversal = True
                if (c.node.fusion is not None and fusion is not None
                        and c.node.fusion > fusion):
                    reversal = True
            node = internal([c.node for c in members], h_lower, h_upper, fusion)
            merged = Cluster(
                next_id,
                tuple(sorted(i for c in members for i in c.members)),
                node,
            )
            next_id += 1
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


_SINGLE_WITHIN = ((0.0,),)


def _group_update(state, formed, method):
    """Distances from each newly merged cluster to every other survivor.

    Clusters that did not merge keep their distances to each other. Block I
    is always the cluster with the lower id: an unmerged cluster against a
    merged one, or the earlier of two merged ones.
    """
    absorbed = {c.cid for _, parts, _ in formed for c in parts}
    kept = [c for cid, c in state.clusters.items() if cid not in absorbed]
    kept_ids = [c.cid for c in kept]
    values = {}
    for t, (merged, parts, within) in enumerate(formed):
        part_ids = [c.cid for c in parts]
        sizes = [c.size for c in parts]
        for other, cross in zip(kept, state.block(kept_ids, part_ids)):
            blocks = BlockView(sizes_i=(other.size,), sizes_j=sizes,
                               cross=(cross,), within_i=_SINGLE_WITHIN,
                               within_j=within)
            values[(other.cid, merged.cid)] = vg_distance(method, blocks)
        for later, later_parts, later_within in formed[t + 1:]:
            blocks = BlockView(
                sizes_i=sizes,
                sizes_j=[c.size for c in later_parts],
                cross=state.block(part_ids, [c.cid for c in later_parts]),
                within_i=within,
                within_j=later_within,
            )
            values[(merged.cid, later.cid)] = vg_distance(method, blocks)
    return values


def _decimals_for(precision):
    return 3 if precision is None else max(3, precision + 1)


# ---- classical pair-group engine ----

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
    next_id = matrix.n
    while len(state.clusters) > 1:
        candidates = sorted(state.shortest()[2])
        if tiebreak == TIEBREAK_FIRST:
            a, b = candidates[0]
        elif tiebreak == TIEBREAK_LAST:
            a, b = candidates[-1]
        else:
            a, b = rng.choice(candidates)
        d_left = state.distances_from(a)
        d_right = state.distances_from(b)
        h = d_left[b]
        left = state.clusters[a]
        right = state.clusters[b]
        node = internal([left.node, right.node], h, h, fusion=h)
        merged = Cluster(next_id, tuple(sorted(left.members + right.members)),
                         node)
        next_id += 1
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
    root = next(iter(state.clusters.values())).node
    return MultivaluedTree(root=root, labels=matrix.labels, **tags)


# ---- enumeration of every tie-break outcome ----

def enumerate_pair_group(matrix, method, limit=10000):
    """Every distinct tree the classical procedure can produce.

    Explores each tied choice at each iteration, memoizing on the reduced
    state (cluster sizes plus raw distances), and collapses outcomes whose
    nesting and heights agree. Raises TooManySolutions once more than
    ``limit`` distinct outcomes accumulate.
    """
    method = _as_method(method)
    if matrix.n == 0:
        raise EmptyInput("no individuals to cluster")
    tags = dict(method=method.kind, alpha=method.alpha, policy=None,
                height_decimals=_decimals_for(matrix.precision))
    if matrix.n == 1:
        return (single_leaf_tree(matrix.labels[0], **tags),)
    precision = matrix.precision
    n = matrix.n
    sizes0 = (1,) * n
    dists0 = tuple(matrix.values)
    memo = {}

    def idx(k, a, b):
        return a * (2 * k - a - 1) // 2 + (b - a - 1)

    def comp_min(comp):
        if comp[0] == "atom":
            return comp[1]
        return min(comp_min(comp[1]), comp_min(comp[2]))

    def lift(comp, mapping, merged_at, merged_comp):
        if comp[0] == "atom":
            old = mapping[comp[1]]
            return merged_comp if old == merged_at else ("atom", old)
        left = lift(comp[1], mapping, merged_at, merged_comp)
        right = lift(comp[2], mapping, merged_at, merged_comp)
        if comp_min(left) > comp_min(right):
            left, right = right, left
        return ("merge", left, right, comp[3])

    def complete(sizes, dists):
        key = (sizes, dists)
        found = memo.get(key)
        if found is not None:
            return found
        k = len(sizes)
        if k == 1:
            memo[key] = (("atom", 0),)
            return memo[key]
        keys = tuple(comparison_value(d, precision) for d in dists)
        low = min(keys)
        candidates = [(a, b) for a, b in combinations(range(k), 2)
                      if keys[idx(k, a, b)] == low]
        acc = set()
        for a, b in candidates:
            h = dists[idx(k, a, b)]
            # merged cluster takes slot a, slot b disappears
            mapping = [x for x in range(k) if x != b]
            new_sizes = []
            for x in mapping:
                new_sizes.append(sizes[a] + sizes[b] if x == a else sizes[x])
            new_dists = []
            for pa in range(k - 1):
                for pb in range(pa + 1, k - 1):
                    xa, xb = mapping[pa], mapping[pb]
                    if xa == a or xb == a:
                        other = xb if xa == a else xa
                        new_dists.append(pg_distance(
                            method,
                            (sizes[a], sizes[b], sizes[other]),
                            d_between=dists[idx(k, a, b)],
                            d_left=dists[idx(k, min(a, other), max(a, other))],
                            d_right=dists[idx(k, min(b, other), max(b, other))],
                        ))
                    else:
                        new_dists.append(dists[idx(k, xa, xb)])
            merged_comp = ("merge", ("atom", a), ("atom", b), h)
            for sub in complete(tuple(new_sizes), tuple(new_dists)):
                acc.add(lift(sub, mapping, a, merged_comp))
                if len(acc) > limit:
                    raise TooManySolutions(
                        "more than %d tie-break outcomes" % (limit,)
                    )
        memo[key] = tuple(sorted(acc))
        return memo[key]

    def build(comp):
        if comp[0] == "atom":
            return Leaf(comp[1], matrix.labels[comp[1]])
        return internal([build(comp[1]), build(comp[2])], comp[3], comp[3],
                        fusion=comp[3])

    def signature(node):
        if node.is_leaf:
            return ("leaf", node.index)
        return ("node", round(node.h_lower, 12),
                tuple(signature(c) for c in node.children))

    distinct = {}
    for comp in complete(sizes0, dists0):
        root = build(comp)
        sig = signature(root)
        if sig not in distinct:
            distinct[sig] = MultivaluedTree(root=root, labels=matrix.labels,
                                            **tags)
    if len(distinct) > limit:
        raise TooManySolutions("more than %d tie-break outcomes" % (limit,))
    return tuple(sorted(distinct.values(), key=to_newick_extended))


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
                if child.h_upper > grp.h_lower:
                    reports.append(ReversalReport(
                        "interval", child_leaves, parent_leaves,
                        child.h_upper, grp.h_lower))
                if (child.fusion is not None and grp.fusion is not None
                        and child.fusion > grp.fusion):
                    reports.append(ReversalReport(
                        "fusion", child_leaves, parent_leaves,
                        child.fusion, grp.fusion))
        for grp in it.groups:
            if grp.h_lower is not None:
                formed[grp.cluster_id] = grp
    return tuple(reports)


def _reversals_from_tree(tree):
    reports = []

    def leaves_of(node):
        return tuple(leaf.label for leaf in node.leaves())

    def walk(node):
        if node.is_leaf:
            return
        for child in node.children:
            if child.h_upper > node.h_lower:
                reports.append(ReversalReport(
                    "interval", leaves_of(child), leaves_of(node),
                    child.h_upper, node.h_lower))
            if (child.fusion is not None and node.fusion is not None
                    and child.fusion > node.fusion):
                reports.append(ReversalReport(
                    "fusion", leaves_of(child), leaves_of(node),
                    child.fusion, node.fusion))
            walk(child)

    walk(tree.root)
    return tuple(reports)
