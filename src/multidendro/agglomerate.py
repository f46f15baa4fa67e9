"""Agglomeration engines.

``cluster_variable_group`` merges every group of mutually tied clusters in
one step, which makes the output independent of input order and of any
tie-breaking rule; tied merges show up as nodes with more than two children
and a height interval. ``cluster_pair_group`` is the classical procedure
that merges one pair per iteration and needs a tie-break rule;
``enumerate_pair_group`` chases every tie-break choice of the classical
procedure and returns the set of distinct outcomes.

Ties are decided on comparison values: distances rounded half away from
zero to the matrix's precision (``proximity.round_half_away``);
recorded heights always keep the raw full-precision numbers.

All three engines work on a ``ClusterState``, which keys everything by slot
(a row of the working matrix), as Müllner's "generic" algorithm
(arXiv:1109.2378) keys its state by row, and holds no tree nodes. Finding
the shortest distance rounds only the smallest one: the entries below the
float where its comparison value ends (``proximity.tie_edge``) tie with it.
Every engine merges through ``ClusterState.merge``, which makes two
``linkage.vg_update`` calls per new cluster, to the unmerged clusters and
to those merged before it in the same step; a classical merge is a step of
one group, the pair as block J. A group's height interval is the minimum
and maximum of the raw distances between its constituents. One tied group
can hold almost every cluster, yet beside the working matrix a run makes
at most one array as large: the tied rows and a group's interval are read
in bands of rows (``proximity.row_bands``), each from its first row's
column on, as the matrix is symmetric, and a merge gathers the blocks
it reads one at a time. A cluster's leaves are an int mask. The
enumerator sweeps forward one merge at a time. It holds a level's distinct
states as one stack over their live clusters, which a ``ClusterState``
also is, and makes every successor of the level with one ``merge`` call on
a stack that puts each tied pair in slots 0 and 1. It gives each distinct
merge of a run, keyed by its two children, one bit, and so holds every
outcome as an int bitmask. Outcomes are written straight from those
merges; only ``enumerate_pair_group`` builds their trees, sharing subtrees.

Ids exist only for the output, where they are a cluster's one identity,
and for the order in which ``cluster_pair_group``'s tie-break rules see
tied pairs. The trace names each merged group by its new id and the ids
of the clusters it merged, never by its leaves; ``detect_reversals``
builds the nodes a trace's groups form and scans them as it scans a tree.
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
    OutOfRange,
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
    vg_update,
    within_term,
)
from .proximity import MAX_VALUE, row_bands, square_from_condensed, tie_edge
from .tree import (
    Leaf,
    MultivaluedTree,
    internal,
    merge_newick_texts,
    reversal_edges,
    reversals_between,
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


@dataclass
class ClusterState:
    """Active clusters plus the working distance matrix, all indexed by slot.

    ``dist`` is a square float64 array of raw distances over slots, inf on
    the diagonal and, once a slot retires, along its row and column. Slot i
    starts as leaf i, and a merged cluster takes over the slot of its
    constituent with the smallest leaf, so slot order is smallest-leaf order
    and slot 0 ends up holding the root. Per slot, ``members`` holds the
    cluster's leaves as an int mask (bit i for leaf i), ``cid_at`` its
    cluster id (the id output reports), and ``sizes`` and ``live`` its size
    and whether it is active; ``count`` is the number of active clusters.
    ``row_min[s]`` is the smallest distance in row s (inf once retired) and
    ``row_arg[s]`` a column holding it, so the shortest live distance is
    ``row_min.min()``. Comparison values under ``precision`` are made only
    by ``shortest``. Values leave the array as Python floats. ``next_id`` is
    the id the next merged cluster gets. Only ``merge`` writes distances.
    The state holds no tree nodes: an engine that builds a tree keeps its
    nodes by slot beside the state.

    A stack holds S states of the same slots that merge the same slots:
    ``dist`` is k x k x S, the other per-slot arrays are k x S (``members``
    an object array of masks), and ``live`` is k x 1, as every state
    retires the same slots. ``merge``, ``_refresh_minima`` and ``shortest``
    run the same steps on a stack as on one state, one numpy call for all
    of them. ``unmerged`` numbers a new stack's clusters from its slots.
    """

    dist: np.ndarray
    members: list
    cid_at: list
    sizes: np.ndarray
    live: np.ndarray
    row_min: np.ndarray
    row_arg: np.ndarray
    count: int
    precision: "int | None" = None
    next_id: int = 0

    @classmethod
    def from_matrix(cls, matrix):
        """The unmerged state; OutOfRange past ``proximity.MAX_VALUE``."""
        big = matrix.condensed[matrix.condensed > MAX_VALUE]
        if big.size:
            raise OutOfRange("value %r is above 2**900, the largest accepted"
                             % (float(big[0]),))
        n = matrix.n
        return cls.unmerged(square_from_condensed(matrix.condensed, n, np.inf),
                            [1 << i for i in range(n)],
                            np.ones(n, dtype=np.int64), matrix.precision)

    @classmethod
    def unmerged(cls, dist, members, sizes, precision):
        """Every slot of ``dist`` active, as one state or, with a trailing
        stack axis on each array, as a stack."""
        k = len(dist)
        live = np.ones((k, 1) if dist.ndim == 3 else k, dtype=bool)
        return cls(dist, members, list(range(k)), sizes, live,
                   dist.min(axis=1), dist.argmin(axis=1), k,
                   precision=precision, next_id=k)

    def gather(self, slots, states):
        """The distances, leaf masks and sizes of a stack of states: the
        j-th holds, in this order, the clusters at slots ``slots[:, j]`` of
        state ``states[j]`` (all 0 for one state)."""
        dist, members, sizes = self.dist, self.members, self.sizes
        if dist.ndim == 2:  # one state, a stack of one
            dist, sizes = dist[:, :, None], sizes[:, None]
            members = np.array(members, dtype=object)[:, None]
        return (dist[slots[:, None], slots, states], members[slots, states],
                sizes[slots, states])

    def shortest(self):
        """(raw value, comparison value, tied pairs) of the current minimum.

        The tied pairs are the (low slot, high slot) pairs whose comparison
        values equal the smallest one, as an int array of low slots and one
        of high slots in row-major order; the raw value is the smallest raw
        distance among them. On a stack both values are arrays, each
        state's pairs tie with its own least, and a first array gives each
        pair's state, the pairs running state by state. One state reads its
        tied rows, which can be every row, a band at a time, each right of
        its first row, as the matrix is symmetric.
        """
        low = self.row_min.min(axis=0)
        stack = low.ndim == 1
        lows = low.tolist() if stack else [float(low)]
        for value in lows:
            if not math.isfinite(value):  # a distance update overflowed
                raise ValueError("no finite distance left, the least is %r"
                                 % value)
        if stack:
            keys, edges = np.array([tie_edge(value, self.precision)
                                    for value in lows]).T
            # a stack holds small states, so its pairs are found at once
            at = np.nonzero(np.moveaxis(self.dist < edges, -1, 0))
            upper = at[1] < at[2]
            return low, keys, tuple(index[upper] for index in at)
        low = lows[0]
        low_key, edge = tie_edge(low, self.precision)
        under, found = (self.row_min < edge).nonzero()[0], []
        for band in row_bands(len(under), len(self.dist)):
            rows = under[band]
            at, cols = np.nonzero(self.dist[rows, rows[0] + 1:] < edge)
            rows, cols = rows[at], cols + (rows[0] + 1)
            upper = rows < cols
            found.append((rows[upper], cols[upper]))
        rows, cols = (found[0] if len(found) == 1
                      else map(np.concatenate, zip(*found)))
        return low, low_key, (rows, cols)

    def merge(self, groups, method):
        """Merge each group of active clusters into one new cluster.

        ``groups`` lists the new clusters' constituent slots, each tuple
        ascending and the tuples in slot order; a new cluster takes over the
        first of its slots and the next id. Its distances to the unmerged
        clusters and to the clusters merged before it are
        ``linkage.vg_update`` rows of ``method``; no other entry changes.
        A stack merges one pair.
        """
        kind, dist, sizes = method.kind, self.dist, self.sizes
        kept = self.live.copy()
        for g in groups:
            # scalar writes, here and below, cost less than a list index
            for s in g:
                kept[s] = False
        kept = kept.nonzero()[0]
        homes, merged, starts, within = [], [], [], []
        # a group writes only its own row and column, at the unmerged
        # clusters and the groups before it, so no entry it reads has
        # changed; it gathers one block it reads at a time, not its rows
        for g in groups:
            home, size, at = g[0], sizes.take(g, axis=0), np.array(g)[:, None]
            # only these rules read the within block, a row at a time
            term = (within_term(kind, size, dist, g)
                    if kind in WITHIN_METHODS else 0.0)
            row = vg_update(kind, size, term, sizes[kept], dist[at, kept])
            dist[home][kept] = row
            dist[:, home][kept] = row
            if merged:
                row = vg_update(kind, size, term, sizes[merged],
                                dist[at, merged], starts, within)
                dist[home][homes] = row
                dist[:, home][homes] = row
            homes.append(home)
            starts.append(len(merged))
            merged.extend(g)
            within.append(term)
        gone, members = [], self.members
        for home, g in zip(homes, groups):
            for s in g[1:]:
                members[home] |= members[s]
                sizes[home] += sizes[s]
                self.live[s] = False
                dist[s] = np.inf
                dist[:, s] = np.inf
                self.row_min[s] = np.inf
                gone.append(s)
            self.cid_at[home] = self.next_id
            self.next_id += 1
        self.count -= len(gone)
        self._refresh_minima(homes, gone)

    def _refresh_minima(self, homes, gone):
        # every live row folds in the new columns; it is scanned again only
        # when its old minimum sat in a column that changed and no new
        # entry matches it, and the merged rows are always scanned again
        dist, row_min, row_arg = self.dist, self.row_min, self.row_arg
        changed = np.zeros(len(row_min), dtype=bool)
        for s in homes + gone:
            changed[s] = True
        stale = changed[row_arg]
        stale &= self.live
        for home in homes:
            column = dist[:, home]
            better = column <= row_min
            row_arg[better] = home
            np.minimum(row_min, column, out=row_min)
            stale[better] = False
        for home in homes:
            stale[home] = True
        # (rows,), or (rows, states) on a stack, whose rows swapaxes lays
        # out by state
        at = stale.nonzero()
        block = dist.swapaxes(1, -1)[at]
        row_min[at] = block.min(axis=1)
        row_arg[at] = block.argmin(axis=1)


def _least(state):
    # shortest() for an engine about to merge there, as no tree has a node
    # below zero; only centroid and joint between-within updates go there
    low = state.shortest()
    lows = low[0].tolist() if state.dist.ndim == 3 else (low[0],)
    for value in lows:
        if value < 0:
            raise ValueError("a distance update went negative, to %r; this "
                             "rule needs Euclidean input" % value)
    return low


def _groups_from_edges(low, high):
    # the slots the edges (low[e], high[e]) join, one ascending tuple per
    # connected set, in order of smallest slot: a union keeps the smaller
    # root, so every parent is at most its child and each set's root is
    # its smallest slot
    edges = list(zip(low.tolist(), high.tolist()))
    if len(edges) == 1:
        return edges
    parent = {s: s for pair in edges for s in pair}
    for a, b in edges:
        # path halving: point the slot at its grandparent (assignments run
        # left to right), then step there
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a > b:
            a, b = b, a
        parent[b] = a
    groups = {}
    for s in sorted(parent):
        # a smaller slot, met before, already points at its root
        root = parent[s] = parent[parent[s]]
        groups.setdefault(root, []).append(s)
    return [tuple(group) for group in groups.values()]


def fusion_value(sizes, within, method, policy):
    """A single representative height for a tied group.

    ``within`` is the symmetric matrix of current distances between the
    group's constituent clusters, read off the diagonal only; ``method`` is
    a MethodSpec or a method name. shortest picks the group minimum;
    natural picks the method's own summary (minimum, maximum, size-weighted
    mean or plain mean). The centroid and joint between-within rules have
    no natural summary, so natural falls back to shortest with a warning.
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
    member_ids: tuple  # leaf indices below n_items, else earlier cluster_ids
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
    return method, dict(method=method.kind, policy=policy,
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
    # shortest asked for outright: fusion_value's fallback gives the same
    # minimum, but warns for every group
    fusion_policy = policy
    if policy == POLICY_NATURAL and method.kind not in _NATURAL_METHODS:
        fusion_policy = POLICY_SHORTEST
        notes.append(
            "no natural fusion value for %r, shortest used" % (method.kind,)
        )
    state = ClusterState.from_matrix(matrix)
    nodes = [Leaf(i, label) for i, label in enumerate(matrix.labels)]
    records = []
    low = _least(state) if state.count > 1 else None

    while low is not None:
        d_lower_raw, _, pairs = low
        formed = []  # constituent slots, one tuple per new cluster
        group_records = []
        reversal = False

        for parts in _groups_from_edges(*pairs):
            children = [nodes[s] for s in parts]
            # a band of the group's rows from its first row's column on (the
            # matrix is symmetric), its rows and block one _BLOCK in all; the
            # inf diagonal goes -inf to drop out of max
            h_lower, h_upper, k = math.inf, -math.inf, len(parts)
            at = np.array(parts)
            for band in row_bands(k, len(state.dist) + k):
                block = state.dist.take(at[band], 0).take(at[band.start:], 1)
                h_lower = min(h_lower, float(block.min()))
                block.flat[::k - band.start + 1] = -math.inf
                h_upper = max(h_upper, float(block.max()))
            fusion = (None if policy == POLICY_INTERVAL else fusion_value(
                state.sizes.take(parts).tolist(),
                state.dist[np.ix_(at, at)].tolist(), method, fusion_policy))
            node = internal(children, h_lower, h_upper, fusion)
            # a leaf, at 0 with no fusion value, never tops a merge
            reversal |= any(reversals_between(c, node) for c in children
                            if not c.is_leaf)
            # merge gives the new clusters the next ids in this order
            group_records.append(GroupRecord(
                cluster_id=state.next_id + len(formed),
                member_ids=tuple(state.cid_at[s] for s in parts),
                h_lower=h_lower, h_upper=h_upper, fusion=fusion))
            formed.append(parts)
            # the groups are disjoint, so no later group reads this slot
            nodes[parts[0]] = node

        state.merge(formed, method)
        low = _least(state) if state.count > 1 else None
        records.append(IterationRecord(
            index=len(records) + 1, d_lower=d_lower_raw,
            groups=tuple(group_records),
            d_next=None if low is None else low[0], reversal=reversal))

    tree = MultivaluedTree(root=nodes[0], labels=matrix.labels, **tags)
    trace = MergeTrace(matrix.n, matrix.labels, method.kind, policy,
                       matrix.precision, tuple(records), tuple(notes))
    return tree, trace


# ---- classical pair-group engine ----

def cluster_pair_group(matrix, method, tiebreak=TIEBREAK_FIRST, seed=None):
    """Classical clustering: one pair per iteration, ties broken by rule.

    first and last take the smallest or largest tied id pair; random draws
    from the tied pairs with the given seed. All nodes are binary with
    degenerate intervals.
    """
    tiebreak = normalize_tiebreak(tiebreak)
    method, tags = _run_tags(matrix, method)
    rng = random.Random(seed)
    state = ClusterState.from_matrix(matrix)
    nodes = [Leaf(i, label) for i, label in enumerate(matrix.labels)]
    while state.count > 1:
        # one distinct key per tied pair orders them by (low id, high id);
        # a rule takes the first, the last or the r-th random.choice draws
        pairs = np.stack(_least(state)[2])
        ida, idb = np.array(state.cid_at)[pairs]
        key = np.minimum(ida, idb) * state.next_id + np.maximum(ida, idb)
        r = (0 if tiebreak == TIEBREAK_FIRST else len(key) - 1
             if tiebreak == TIEBREAK_LAST else rng.randrange(len(key)))
        a, b = pairs[:, np.argpartition(key, r)[r]].tolist()
        h = float(state.dist[a, b])
        state.merge([(a, b)], method)
        nodes[a] = internal([nodes[a], nodes[b]], h, h, fusion=h)
    return MultivaluedTree(root=nodes[0], labels=matrix.labels, **tags)


# ---- enumeration of every tie-break outcome ----

def enumerate_pair_group(matrix, method, limit=10000):
    """Every distinct tree the classical procedure can produce.

    Sweeps forward one merge at a time: level t holds each distinct state t
    merges reach, keyed on the live clusters' leaf masks plus their raw
    distances, with the outcomes of every way to reach it. The states are
    one stack over their live clusters; one ``shortest`` call finds every
    state's tied pairs, and each band of successors (state by state, pairs
    in row-major order) is gathered as a stack with its pair in slots 0
    and 1, merged with one ``merge`` call, and gathered back to
    smallest-leaf order for its key. A level with one state and one tied
    pair merges it in place and keys nothing, as nothing else can reach
    its successor, so a run without ties copies no state. A merge is its
    two children's masks, smallest leaf first, and its height; the first
    time the run makes one it gets the next bit of a per-run table, so an
    outcome is an int bitmask.

    Outcomes whose clusters and heights (to 12 decimals) agree collapse into
    one; the one kept has the smallest heights read in postorder, with
    children ordered by smallest leaf. Kept outcomes come back sorted by
    their extended newick text, then by those heights, as trees built off
    their merges that share a node per distinct merge and children. Raises
    TooManySolutions once some state has more than ``limit`` distinct
    (collapsed) outcomes; a state's distinct outcomes are distinct outcomes
    of the whole run, so the result never holds more than ``limit`` trees.
    """
    merges, found = _enumerate_newick(matrix, method, limit)
    _, tags = _run_tags(matrix, method)
    leaf_at = {1 << i: Leaf(i, label) for i, label in enumerate(matrix.labels)}
    nodes = {}  # (bit, id of each child node) -> node, for the whole run

    def build(bits):
        # an outcome's root, children first
        node_at = dict(leaf_at)
        for bit in bits:
            ma, mb, h = merges[bit]
            a, b = node_at.pop(ma), node_at.pop(mb)
            key = (bit, id(a), id(b))
            if key not in nodes:
                nodes[key] = internal((a, b), h, h, fusion=h)
            node_at[ma | mb] = nodes[key]
        return node_at.popitem()[1]

    return tuple(MultivaluedTree(root=build(bits), labels=matrix.labels,
                                 **tags) for _, _, bits in found)


def _enumerate_newick(matrix, method, limit):
    """The run's merges, (low mask, high mask, height) by bit, and
    ``enumerate_pair_group``'s outcomes in its order as (extended newick
    text, reversal flag, bits children first), built into no tree."""
    if limit < 1:
        raise ValueError("the outcome limit must be at least 1, not %d" % limit)
    method, tags = _run_tags(matrix, method)
    bit_of = {}  # (low slot's mask, high slot's mask, h) -> bit, in bit order
    collapsed = []  # bit -> collapsed id of its merge
    collapsed_id = {}  # (mask, h to 12 decimals) -> collapsed id

    def collapse(bits):
        return frozenset(map(collapsed.__getitem__, bits))

    def bit(ma, mb, h):
        # within one outcome a cluster's children follow from its other
        # clusters, so keying a merge by the children splits no outcome
        bit = bit_of.setdefault((ma, mb, h), len(bit_of))
        if bit == len(collapsed):
            collapsed.append(collapsed_id.setdefault(
                (ma | mb, round(h, 12)), len(collapsed_id)))
        return 1 << bit

    def reach(acc, made, step):
        acc.update([rest | step for rest in made])
        # only outcomes that differ past 12 decimals make the raw count
        # larger than the distinct one
        if len(acc) > limit and len({collapse(_bits(m)) for m in acc}) > limit:
            raise TooManySolutions(
                "more than %d tie-break outcomes" % (limit,))
        return acc

    def successors(level, live, a, b, at):
        # a band of successors, as (children's masks, height) of each
        # merge, each state's key, and its sizes: each pair goes to slots 0
        # and 1 of a stack of the live clusters, so one merge makes them
        # all, and back to smallest-leaf order, where the new cluster takes
        # its first constituent's place
        k, count = len(live), len(a)
        rest = np.broadcast_to(live, (count, k))
        rest = rest[(rest != a[:, None]) & (rest != b[:, None])]
        stack = ClusterState.unmerged(*level.gather(
            np.vstack([a, b, rest.reshape(count, k - 2).T]), at),
            level.precision)
        merged = zip(stack.members[0].tolist(), stack.members[1].tolist(),
                     stack.dist[0, 1].tolist())
        stack.merge([(0, 1)], method)
        c, first = np.arange(k - 1)[:, None], np.searchsorted(live, a)
        dist, masks, sizes = stack.gather(
            np.where(c < first, c + 2, np.where(c == first, 0, c + 1)),
            np.arange(count))
        keys = zip(map(tuple, masks.T.tolist()),
                   map(np.ndarray.tobytes, np.moveaxis(dist, -1, 0)))
        return list(zip(merged, keys)), sizes

    # a level is one state, or a stack of the distinct states its merges
    # reach, in the order first reached, with each one's outcomes; every
    # state of a level has the same clusters count, so equal states meet
    # only within a level, and only its dict needs their keys: their leaf
    # masks and raw distances
    level, made = ClusterState.from_matrix(matrix), [{0}]
    for _ in range(matrix.n - 1):
        *on, low, high = _least(level)[2]
        if len(made) == len(low) == 1:
            # nothing else can reach the one successor, so the pair merges
            # in place; a run without ties copies nothing
            a, b = int(low[0]), int(high[0])
            step = bit(level.members[a], level.members[b],
                       float(level.dist[a, b]))
            level.merge([(a, b)], method)
            made = [reach(set(), made[0], step)]
            continue
        live = np.flatnonzero(level.live)
        k, states = len(live), on[0] if on else np.zeros_like(low)
        reached, sizes = {}, []
        # state by state, row-major pairs within a state, a band at a time
        for band in row_bands(len(low), 4 * k * k):
            found, band_sizes = successors(level, live, low[band],
                                           high[band], states[band])
            new = []
            for j, (((ma, mb, h), key), s) in enumerate(
                    zip(found, states[band].tolist())):
                step = bit(ma, mb, h)
                acc = reached.get(key)
                if acc is None:
                    acc = reached[key] = set()
                    new.append(j)
                reach(acc, made[s], step)
            sizes.append(band_sizes[:, new])
        made, sizes = list(reached.values()), np.concatenate(sizes, axis=1)
        # the next level's distances are its keys' bytes, read in place
        dist = np.frombuffer(b"".join(key for _, key in reached),
                             dtype=np.float64).reshape(len(made), k - 1, k - 1)
        if len(made) == 1:  # one state again, which merges in place
            (masks, _), = reached
            level = ClusterState.unmerged(dist[0].copy(), list(masks),
                                          sizes[:, 0], level.precision)
        else:
            masks = np.array([masks for masks, _ in reached], dtype=object)
            level = ClusterState.unmerged(np.moveaxis(dist, 0, -1), masks.T,
                                          sizes, level.precision)

    merges = list(bit_of)
    # a cluster strictly holds its children, so merges by size put them
    # first; bit order need not, as a merge's bit is where it was first met
    size = [(ma | mb).bit_count() for ma, mb, _ in merges]
    groups = {}
    for mask in made[0]:
        bits = sorted(_bits(mask), key=size.__getitem__)
        groups.setdefault(collapse(bits), []).append(bits)

    def heights(bits):
        # postorder heights, leaves left out: outcomes compared nest alike
        at = {}
        for bit in bits:
            ma, mb, h = merges[bit]
            at[ma | mb] = at.pop(ma, ()) + at.pop(mb, ()) + (h,)
        return at.popitem()[1]

    # keeping the outcome with the smallest postorder heights makes the
    # choice independent of the order the search met them in
    kept = [made[0] if len(made) == 1 else min(made, key=heights)
            for made in groups.values()]
    found = sorted(merge_newick_texts(matrix.labels, merges, kept,
                                      tags["height_decimals"]),
                   key=lambda f: f[0])
    if len({text for text, _, _ in found}) < len(found):
        # heights apart past the printed digits
        found.sort(key=lambda f: (f[0], heights(f[2])))
    return merges, found


def _bits(mask):
    """The positions of the set bits of a non-negative int, highest first."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return out


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
    value above the enclosing node's chosen value. A trace is read as the
    nodes its groups form, one root per cluster left unmerged, in the order
    they formed, so reports come in preorder, by ``tree.reversal_edges``.
    """
    if isinstance(source, MergeTrace):
        nodes = {i: Leaf(i, label) for i, label in enumerate(source.labels)}
        for it in source.iterations:
            for grp in it.groups:
                nodes[grp.cluster_id] = internal(
                    [nodes.pop(cid) for cid in grp.member_ids],
                    grp.h_lower, grp.h_upper, grp.fusion)
        roots = nodes.values()
    elif isinstance(source, MultivaluedTree):
        roots = [source.root]
    else:
        raise TypeError("expected a MergeTrace or a MultivaluedTree")

    def leaves_of(node):  # labels in leaf-index order
        return tuple(leaf.label for leaf in sorted(
            node.leaves(), key=lambda leaf: leaf.index))

    return tuple(
        ReversalReport(kind, leaves_of(node), leaves_of(parent),
                       value, parent_value)
        for root in roots
        for node, parent, kind, value, parent_value in reversal_edges(root))
