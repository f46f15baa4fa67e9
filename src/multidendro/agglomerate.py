"""Agglomeration engines.

``cluster_variable_group`` merges every group of mutually tied clusters in
one step, which makes the output independent of input order and of any
tie-breaking rule; tied merges show up as nodes with more than two children
and a height interval. ``cluster_pair_group`` is the classical procedure
that merges one pair per iteration and needs a tie-break rule;
``enumerate_pair_group`` chases every tie-break choice of the classical
procedure and returns the set of distinct outcomes.

Ties are decided on comparison values: distances rounded half away from
zero to the matrix's precision (``proximity.round_half_away_array``);
recorded heights always keep the raw full-precision numbers.

All three engines work on a ``ClusterState``, which keys everything by slot
(a row of the working matrix), as Müllner's "generic" algorithm
(arXiv:1109.2378) keys its state by row: a square working matrix of raw
distances and one of comparison values, each row's smallest comparison
value and a column holding it, and per slot the cluster's leaves, tree node,
size and id. Ids exist only for the output: the trace's groups, and the
order in which ``cluster_pair_group``'s tie-break rules see tied pairs.
Finding the shortest distance scans the row minima and then only the rows
at that level, which yield the tied edges as slot pairs in row-major order;
the variable-group engine builds its groups from them. A merge is a few
whole-row numpy operations: a merged cluster's distances to every unmerged
survivor come from its constituents' rows (``linkage.vg_row``, or
``linkage.pg_update`` in the classical engine), bit for bit what the scalar
update ``linkage.vg_kernel`` gives. Only the merged rows are then scanned
again in full; every other row folds in the new columns and is rescanned
only when its minimum sat in a column that changed. A group's height
interval is the minimum and maximum of its slice of the raw matrix. The
classical engine and the enumerator share one pair merge step
(``_merge_pair``); the enumerator searches depth first over copies of the
state, one per tied pair.
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
    pg_update,
    vg_kernel,
    vg_row,
)
from .proximity import round_half_away_array, square_from_condensed
from .tree import (
    Leaf,
    MultivaluedTree,
    internal,
    postorder,
    reversal_edges,
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


def _comparison_keys(raw, precision):
    # +0.0 stands for both zeros (rounding -0.04 to 0 places gives -0.0), so
    # a row minimum folded in column by column has the bits of a fresh scan
    keys = raw if precision is None else round_half_away_array(raw, precision)
    return np.asarray(keys, dtype=np.float64) + 0.0


@dataclass
class ClusterState:
    """Active clusters plus the working distance matrix, all indexed by slot.

    ``dist`` and ``keys`` are square float64 arrays over slots: ``dist``
    holds raw distances (zero diagonal) and ``keys`` the matching comparison
    values under ``precision``. Slot i starts as leaf i, and a merged
    cluster takes over the slot of its constituent with the smallest leaf,
    so slot order is smallest-leaf order and slot 0 ends up holding the
    root. Per slot, ``members`` holds the cluster's leaf indices ascending,
    ``nodes`` its tree node, ``cid_at`` its cluster id (the id output
    reports), and ``sizes`` and ``live`` its size and whether it is active;
    ``count`` is the number of active clusters. A retired slot's row and
    column of ``keys`` are inf, like the diagonal. ``row_min[s]`` is the
    smallest key in row s (inf once retired) and ``row_arg[s]`` a column
    holding it, so the shortest live comparison value is
    ``row_min.min()``. Values leave the arrays as Python floats.
    ``next_id`` is the id the next merged cluster gets.
    """

    dist: np.ndarray
    keys: np.ndarray
    members: list
    nodes: list
    cid_at: list
    sizes: np.ndarray
    live: np.ndarray
    row_min: np.ndarray
    row_arg: np.ndarray
    count: int
    precision: "int | None" = None
    iteration: int = 0
    next_id: int = 0

    @classmethod
    def from_matrix(cls, matrix):
        n = matrix.n
        dist = square_from_condensed(matrix.condensed, n)
        keys = square_from_condensed(
            _comparison_keys(matrix.condensed, matrix.precision), n, np.inf)
        return cls(dist, keys, [(i,) for i in range(n)],
                   [Leaf(i, label) for i, label in enumerate(matrix.labels)],
                   list(range(n)), np.ones(n, dtype=np.int64),
                   np.ones(n, dtype=bool), keys.min(axis=1),
                   keys.argmin(axis=1), n, precision=matrix.precision,
                   next_id=n)

    def copy(self):
        """An independent state that can be merged on without touching this one."""
        return ClusterState(self.dist.copy(), self.keys.copy(),
                            list(self.members), list(self.nodes),
                            list(self.cid_at), self.sizes.copy(),
                            self.live.copy(), self.row_min.copy(),
                            self.row_arg.copy(), self.count, self.precision,
                            self.iteration, self.next_id)

    def shortest(self):
        """(raw value, comparison value, tied edges) of the current minimum.

        Edges are (low slot, high slot) pairs in row-major order; the raw
        value is the smallest raw distance among them.
        """
        low_key = float(self.row_min.min())
        # only a row whose minimum is at most low_key can hold it
        rows = (self.row_min <= low_key).nonzero()[0]
        at, cols = np.nonzero(self.keys[rows] == low_key)
        rows = rows[at]
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        low_raw = float(self.dist[rows, cols].min())
        return low_raw, low_key, list(zip(rows.tolist(), cols.tolist()))

    def live_slots(self):
        """Slots of the active clusters, ascending."""
        return self.live.nonzero()[0]

    def merge(self, formed, writes):
        """Replace constituents by merged clusters and store new distances.

        ``formed`` lists (constituent slots ascending, leaf members, node)
        and may carry more fields after those; each new cluster takes over
        the first of its slots and the next id, in list order. ``writes``
        lists (slot, other slots, raw distances) triples, written
        symmetrically, and must cover every pair that touches a new
        cluster; all other entries stay as they are.
        """
        homes, gone = [], []
        for parts, members, node, *_ in formed:
            home = parts[0]
            homes.append(home)
            gone.extend(parts[1:])
            self.members[home] = members
            self.nodes[home] = node
            self.cid_at[home] = self.next_id
            self.next_id += 1
            self.sizes[home] = len(members)
        self.count -= len(gone)
        # one slot at a time: a handful of scalar and view assignments cost
        # less than indexing with a list
        for s in gone:
            self.live[s] = False
            self.keys[s] = np.inf
            self.keys[:, s] = np.inf
            self.row_min[s] = np.inf
        for s, cols, raw in writes:
            key_values = _comparison_keys(raw, self.precision)
            for table, new in ((self.dist, raw), (self.keys, key_values)):
                table[s][cols] = new
                table[:, s][cols] = new
        self._refresh_minima(homes, gone)

    def _refresh_minima(self, homes, gone):
        # every live row folds in the new columns; it is scanned again only
        # when its old minimum sat in a column that changed and no new
        # entry matches it, and the merged rows are always scanned again
        keys, row_min, row_arg = self.keys, self.row_min, self.row_arg
        changed = np.zeros(len(row_min), dtype=bool)
        for s in homes + gone:
            changed[s] = True
        stale = changed[row_arg]
        stale &= self.live
        for home in homes:
            column = keys[:, home]
            better = column <= row_min
            row_arg[better] = home
            np.minimum(row_min, column, out=row_min)
            stale[better] = False
        for home in homes:
            stale[home] = True
        rows = stale.nonzero()[0]
        block = keys[rows]
        row_min[rows] = block.min(axis=1)
        row_arg[rows] = block.argmin(axis=1)


def _groups_from_edges(edges):
    # the slots the edges join, one ascending tuple per connected set; in
    # ascending order the first slot met opens each set, so the sets come
    # out ordered by smallest leaf too
    ds = DisjointSet(sorted({s for pair in edges for s in pair}))
    for a, b in edges:
        ds.union(a, b)
    buckets = {}
    for s in ds.parent:
        buckets.setdefault(ds.find(s), []).append(s)
    return [tuple(bucket) for bucket in buckets.values()]


def fusion_value(sizes, within, method, policy):
    """A single representative height for a tied group.

    ``within`` is the symmetric matrix of current distances between the
    group's constituent clusters; ``method`` is a MethodSpec or a method
    name. shortest picks the group minimum; natural picks the method's own
    summary (minimum, maximum, size-weighted mean or plain mean). The
    centroid and joint between-within rules have no natural summary, so
    natural falls back to shortest with a warning.
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
    kind = _as_method(method).kind
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
    """One tied group merged into a new cluster, with its height interval."""

    cluster_id: int
    member_ids: tuple  # ids of the clusters merged
    leaves: tuple  # leaf indices of the union
    h_lower: float
    h_upper: float
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
    """What a variable-group run merged, one IterationRecord per iteration.

    An iteration lists only the groups it merged, in smallest-leaf order;
    a cluster that passes an iteration unmerged appears in none of its
    groups. Leaves have ids 0..n-1 and merged clusters continue from n.
    """

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


def _run_tags(matrix, method, policy=None):
    """The method and the tags every engine's tree carries for a run."""
    method = _as_method(method)
    if matrix.n == 0:
        raise EmptyInput("no individuals to cluster")
    decimals = 3 if matrix.precision is None else max(3, matrix.precision + 1)
    return method, dict(method=method.kind, alpha=method.alpha, policy=policy,
                        height_decimals=decimals)


# ---- variable-group engine ----

def cluster_variable_group(matrix, method, policy=POLICY_INTERVAL):
    """Cluster with simultaneous merging of tied groups.

    Returns (tree, trace). Each iteration finds the shortest current
    distance, partitions the tied clusters into groups, merges every group
    of two or more at once, and computes each merged cluster's distances to
    every survivor from its constituents' rows of the working matrix. The
    trace records each iteration's merged groups only.
    """
    method, tags = _run_tags(matrix, method, normalize_policy(policy))
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

    while state.count > 1:
        state.iteration += 1
        d_lower_raw, _, edges = low
        formed = []  # (constituent slots, members, node, sizes, within or None)
        group_records = []
        reversal = False

        for parts in _groups_from_edges(edges):
            nodes = [state.nodes[s] for s in parts]
            block = state.dist[np.ix_(parts, parts)]
            pair_values = block[np.triu_indices(len(parts), 1)]
            h_lower = float(pair_values.min())
            h_upper = float(pair_values.max())
            within = block.tolist() if keep_within else None
            sizes = state.sizes[list(parts)].tolist()
            fusion = None
            if policy != POLICY_INTERVAL:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", FusionFallbackWarning)
                    fusion = fusion_value(sizes, within, method, policy)
            node = internal(nodes, h_lower, h_upper, fusion)
            if any(reversals_between(c, node) for c in nodes):
                reversal = True
            members = tuple(sorted(i for s in parts for i in state.members[s]))
            # merge gives the new clusters the next ids in this order
            group_records.append(GroupRecord(
                cluster_id=state.next_id + len(formed),
                member_ids=tuple(state.cid_at[s] for s in parts),
                leaves=members, h_lower=h_lower, h_upper=h_upper,
                fusion=fusion))
            formed.append((parts, members, node, sizes, within))

        writes = _group_update(state, formed, method)
        state.merge(formed, writes)
        d_next = None
        if state.count > 1:
            low = state.shortest()
            d_next = low[0]
        records.append(IterationRecord(
            index=state.iteration, d_lower=d_lower_raw,
            groups=tuple(group_records), d_next=d_next, reversal=reversal))

    tree = MultivaluedTree(root=state.nodes[0], labels=matrix.labels, **tags)
    trace = MergeTrace(matrix.n, matrix.labels, method.kind, method.alpha,
                       policy, matrix.precision, tuple(records), tuple(notes))
    return tree, trace


def _group_update(state, formed, method):
    """Writes (slot, other slots, raw distances) from each newly merged
    cluster to every other survivor, for ``ClusterState.merge``.

    ``formed`` lists (constituent slots, members, node, sizes, within or
    None) per new cluster, in slot order. Clusters that did not merge keep
    their distances to each other. A merged cluster's distances to all
    unmerged ones are one row, computed by ``linkage.vg_row`` from its
    constituents' rows of the working matrix. Two clusters merged in the
    same iteration go through ``linkage.vg_kernel`` with the earlier one
    (lower slot) as block I.
    """
    kind = method.kind
    kept = state.live.copy()
    for parts, *_ in formed:
        kept[list(parts)] = False
    kept = kept.nonzero()[0]
    kept_sizes = state.sizes[kept]
    dist = state.dist
    writes = []
    for t, (parts, _, _, sizes, within) in enumerate(formed):
        cross = dist[np.ix_(parts, kept)]
        writes.append((parts[0], kept,
                       vg_row(kind, kept_sizes, sizes, cross, within)))
        later = formed[t + 1:]
        if later:
            between = [vg_kernel(kind, sizes, other_sizes,
                                 dist[np.ix_(parts, others)].tolist(),
                                 within, other_within)
                       for others, _, _, other_sizes, other_within in later]
            writes.append((parts[0], [others[0] for others, *_ in later],
                           np.array(between)))
    return writes


# ---- classical pair-group engine ----

def _merge_pair(state, a, b, method):
    """Merge the active clusters in slots ``a`` and ``b`` at their current
    distance.

    The new cluster's distances to every other survivor are one row of the
    pair-group update. Returns the slot the new cluster takes.
    """
    dist = state.dist
    h = float(dist[a, b])
    node = internal([state.nodes[a], state.nodes[b]], h, h, fusion=h)
    members = tuple(sorted(state.members[a] + state.members[b]))
    parts = (a, b) if a < b else (b, a)
    kept = state.live.copy()
    kept[a] = kept[b] = False
    kept = kept.nonzero()[0]
    size_a, size_b = state.sizes[[a, b]].tolist()
    row = pg_update(method.kind, size_a, size_b, state.sizes[kept],
                    h, dist[a][kept], dist[b][kept])
    state.merge([(parts, members, node)], [(parts[0], kept, row)])
    return parts[0]


def cluster_pair_group(matrix, method, tiebreak=TIEBREAK_FIRST, seed=None):
    """Classical clustering: one pair per iteration, ties broken by rule.

    first and last take the smallest or largest tied id pair; random draws
    from the tied pairs with the given seed. All nodes are binary with
    degenerate intervals.
    """
    tiebreak = normalize_tiebreak(tiebreak)
    method, tags = _run_tags(matrix, method)
    if matrix.n == 1:
        return single_leaf_tree(matrix.labels[0], **tags)
    rng = random.Random(seed)
    state = ClusterState.from_matrix(matrix)
    cid_at = state.cid_at
    while state.count > 1:
        # the rules order tied pairs by their cluster ids, low id first
        candidates = sorted(
            state.shortest()[2],
            key=lambda edge: sorted(map(cid_at.__getitem__, edge)))
        if tiebreak == TIEBREAK_FIRST:
            a, b = candidates[0]
        elif tiebreak == TIEBREAK_LAST:
            a, b = candidates[-1]
        else:
            a, b = rng.choice(candidates)
        _merge_pair(state, a, b, method)
    return MultivaluedTree(root=state.nodes[0], labels=matrix.labels, **tags)


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
    method, tags = _run_tags(matrix, method)
    if matrix.n == 1:
        return (single_leaf_tree(matrix.labels[0], **tags),)
    memo = {}

    def complete(state):
        if state.count == 1:
            return (frozenset(),)
        slots = state.live_slots()
        key = (tuple(map(state.members.__getitem__, slots.tolist())),
               state.dist[slots[:, None], slots].tobytes())
        found = memo.get(key)
        if found is not None:
            return found
        acc = set()
        pairs = state.shortest()[2]
        for k, (a, b) in enumerate(pairs):
            # nothing reads this state after its last pair, so that pair
            # merges in place; a run without ties then copies nothing
            after = state if k == len(pairs) - 1 else state.copy()
            home = _merge_pair(after, a, b, method)
            merged = (after.members[home], after.nodes[home].h_lower)
            step = frozenset((merged,))
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
        heights = [nd.h_lower for nd in postorder(root) if not nd.is_leaf]
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
            # a group's own id is new, so no group of its iteration holds it
            formed[grp.cluster_id] = grp
    return tuple(reports)


def _reversals_from_tree(tree):
    def leaves_of(node):
        # in leaf-index order, as the trace lists a group's leaves
        leaves = sorted(node.leaves(), key=lambda leaf: leaf.index)
        return tuple(leaf.label for leaf in leaves)

    return tuple(
        ReversalReport(kind, leaves_of(node), leaves_of(parent),
                       value, parent_value)
        for node, parent, kind, value, parent_value
        in reversal_edges(tree.root))
