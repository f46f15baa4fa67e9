"""End-to-end checks, one per shipped guarantee.

Each test prints one CRITERION line; run with ``pytest -s`` to see them all.
Tolerances are stated inline next to each assertion.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from multidendro import (
    METHOD_KINDS,
    MethodSpec,
    ProximityMatrix,
    TooManySolutions,
    cluster_pair_group,
    cluster_variable_group,
    cophenetic_matrix,
    enumerate_pair_group,
    fusion_value,
    parse_matrix,
    to_newick_extended,
    tree_equal,
)

from block_update import pair_row, vg_block
from oracles import (
    Blocks,
    centroid_oracle,
    direct_distance,
    jbw_oracle,
    lance_williams,
    vg_distance_tabular,
)

TOY_TEXT = "0 2 4 7\n2 0 2 5\n4 2 0 3\n7 5 3 0\n"


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print("CRITERION %02d FAIL %s" % (num, name))
        raise
    print("CRITERION %02d PASS %s" % (num, name))


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def matrix_from_values(n, values, labels=None):
    labels = labels or tuple("x%d" % (i + 1) for i in range(n))
    return ProximityMatrix(tuple(labels), values)


def tie_free(trace):
    for it in trace.iterations:
        multi = [g for g in it.groups if len(g.member_ids) > 1]
        if len(multi) != 1 or len(multi[0].member_ids) != 2:
            return False
    return True


def has_tie(trace):
    return not tie_free(trace)


def look(table, a, b):
    return table[(a, b) if a < b else (b, a)]


# ---- 1: toy multidendrogram, exact heights, under a millisecond ----

def test_criterion_01_toy_group_merge():
    with criterion(1, "toy unweighted_average multidendrogram"):
        toy = parse_matrix(TOY_TEXT)
        tree, trace = cluster_variable_group(toy, "unweighted_average")

        want = "((x1,x2,x3)[2.000,4.000],x4)[5.000,5.000];"
        assert to_newick_extended(tree) == want
        heights = tree.node_heights()
        assert heights[frozenset(["x1", "x2", "x3"])] == (2.0, 4.0, None)
        assert heights[frozenset(["x1", "x2", "x3", "x4"])] == (5.0, 5.0, None)

        multi = [g for it in trace.iterations for g in it.groups
                 if g.h_lower is not None and len(g.member_ids) > 2]
        assert len(multi) == 1
        assert (multi[0].h_lower, multi[0].h_upper) == (2.0, 4.0)

        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            cluster_variable_group(toy, "unweighted_average")
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, "slowest-of-best run took %.4fs" % best


# ---- 2: fusion summaries on the toy tied group ----

def test_criterion_02_toy_fusion_values():
    with criterion(2, "toy fusion values per policy"):
        within = ((0.0, 2.0, 4.0), (2.0, 0.0, 2.0), (4.0, 2.0, 0.0))
        sizes = (1, 1, 1)
        mean = fusion_value(sizes, within, MethodSpec("unweighted_average"),
                            "natural")
        assert abs(mean - 8.0 / 3.0) <= 1e-12
        assert fusion_value(sizes, within, MethodSpec("single"),
                            "natural") == 2.0
        assert fusion_value(sizes, within, MethodSpec("complete"),
                            "natural") == 4.0

        # the engine derives the same values on the real toy group
        toy = parse_matrix(TOY_TEXT)
        tree, _ = cluster_variable_group(toy, "unweighted_average",
                                         policy="natural")
        assert abs(tree.root.children[0].fusion - 8.0 / 3.0) <= 1e-12


# ---- 3: exhaustive toy tie-break outcomes against a hand recursion ----

def upgma_hand_recursion(n, table):
    """Plain recursion over every tied choice; no memo, no shortcuts."""
    outcomes = []

    def rec(members, sizes, dists, merges):
        if len(members) == 1:
            outcomes.append(dict(merges))
            return
        low = min(dists.values())
        ties = [pair for pair, v in dists.items() if v == low]
        for a, b in ties:
            union = members[a] | members[b]
            new = max(members) + 1
            members2 = {c: m for c, m in members.items() if c not in (a, b)}
            sizes2 = {c: s for c, s in sizes.items() if c not in (a, b)}
            dists2 = {}
            for c1, c2 in itertools.combinations(sorted(members2), 2):
                dists2[(c1, c2)] = look(dists, c1, c2)
            for c in members2:
                dists2[(c, new)] = (
                    sizes[a] * look(dists, a, c) + sizes[b] * look(dists, b, c)
                ) / (sizes[a] + sizes[b])
            members2[new] = union
            sizes2[new] = sizes[a] + sizes[b]
            merges2 = merges + [(frozenset(union), low)]
            rec(members2, sizes2, dists2, merges2)

    rec({i: frozenset([i]) for i in range(n)},
        {i: 1 for i in range(n)}, dict(table), [])
    # collapse duplicate orderings of the same outcome
    unique = []
    for out in outcomes:
        if out not in unique:
            unique.append(out)
    return unique


def test_criterion_03_toy_enumeration():
    with criterion(3, "toy enumeration matches hand recursion"):
        toy = parse_matrix(TOY_TEXT)
        trees = enumerate_pair_group(toy, "unweighted_average")
        assert len(trees) == 3

        table = {}
        for i, j, v in toy.pairs():
            table[(i, j)] = v
        oracle = upgma_hand_recursion(toy.n, table)
        assert len(oracle) == 3

        index = {i: lab for i, lab in enumerate(toy.labels)}
        matched = set()
        for tree in trees:
            got = {members: lohi[0]
                   for members, lohi in tree.node_heights().items()}
            hits = [
                k for k, out in enumerate(oracle)
                if k not in matched
                and {frozenset(index[i] for i in ms) for ms in out} == set(got)
                and all(abs(out[ms] - got[frozenset(index[i] for i in ms)])
                        <= 1e-12 for ms in out)
            ]
            assert hits, "no oracle outcome matches %s" % (sorted(got),)
            matched.add(hits[0])
        assert matched == {0, 1, 2}

        multisets = sorted(sorted(lohi[0] for lohi in t.node_heights().values())
                           for t in trees)
        assert multisets == [[2.0, 3.0, 4.5], [2.0, 3.0, 5.0], [2.0, 3.0, 5.0]]


# ---- 4: group recurrence equals flat recomputation ----

def test_criterion_04_recurrence_equals_direct():
    with criterion(4, "block recurrence equals flat recomputation"):
        rng = np.random.default_rng(404)
        t0 = time.perf_counter()
        checked = 0
        while checked < 1000:
            n = int(rng.integers(4, 11))
            sq = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    sq[i][j] = sq[j][i] = float(rng.uniform(0.1, 10))
            k = int(rng.integers(2, n + 1))
            owner = rng.integers(0, k, size=n)
            blocks = [np.flatnonzero(owner == c).tolist() for c in range(k)]
            blocks = [b for b in blocks if b]
            if len(blocks) < 2:
                continue
            cut = int(rng.integers(1, len(blocks)))
            perm = rng.permutation(len(blocks)).tolist()
            side_i = [blocks[p] for p in perm[:cut]]
            side_j = [blocks[p] for p in perm[cut:]]
            for kind in ("single", "complete", "unweighted_average"):
                m = MethodSpec(kind)
                cross = tuple(tuple(direct_distance(m, sq, a, b)
                                    for b in side_j) for a in side_i)
                wi = tuple(tuple(0.0 if x == y
                                 else direct_distance(m, sq, side_i[x],
                                                      side_i[y])
                                 for y in range(len(side_i)))
                           for x in range(len(side_i)))
                wj = tuple(tuple(0.0 if x == y
                                 else direct_distance(m, sq, side_j[x],
                                                      side_j[y])
                                 for y in range(len(side_j)))
                           for x in range(len(side_j)))
                got = vg_block(kind, tuple(len(a) for a in side_i),
                               tuple(len(b) for b in side_j), cross, wi, wj)
                want = direct_distance(m, sq, sum(side_i, []), sum(side_j, []))
                assert rel(got, want) <= 1e-9
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, "took %.1fs" % elapsed


# ---- 5: recursive centroid distances equal point-based centroids ----

def run_centroid_config(rng, weighted):
    dim = int(rng.integers(2, 6))
    n = int(rng.integers(4, 13))
    pts = rng.uniform(-5, 5, size=(n, dim))
    method = MethodSpec("weighted_centroid" if weighted
                        else "unweighted_centroid")
    clusters = [dict(members=[i], center=pts[i].copy(), size=1)
                for i in range(n)]
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(((pts[i] - pts[j]) ** 2).sum())
    ids = list(range(n))
    next_id = n
    while len(ids) > 1:
        k = int(rng.integers(2, min(3, len(ids)) + 1))
        chosen = sorted(rng.choice(ids, size=k, replace=False).tolist())
        rest = [c for c in ids if c not in chosen]
        sizes = tuple(clusters[c]["size"] for c in chosen)
        within = tuple(tuple(0.0 if a == b else look(dist, a, b)
                             for b in chosen) for a in chosen)
        new = dict(
            members=sum((clusters[c]["members"] for c in chosen), []),
            center=np.mean([clusters[c]["center"] for c in chosen], axis=0),
            size=sum(sizes),
        )
        clusters.append(new)
        all_singletons = all(s == 1 for s in sizes)
        for other in rest:
            d = vg_block(method.kind, sizes, (clusters[other]["size"],),
                         tuple((look(dist, c, other),) for c in chosen),
                         within, ((0.0,),))
            dist[(min(other, next_id), max(other, next_id))] = d
            if weighted:
                want = centroid_oracle([new["center"]],
                                       [clusters[other]["center"]])
                if all_singletons and clusters[other]["size"] == 1:
                    direct = centroid_oracle(
                        [[pts[m]] for m in new["members"]],
                        [[pts[m]] for m in clusters[other]["members"]],
                        weighted=True,
                    )
                    assert rel(d, direct) <= 1e-9
            else:
                want = centroid_oracle(pts[new["members"]],
                                       pts[clusters[other]["members"]])
            assert rel(d, want) <= 1e-9
        ids = rest + [next_id]
        next_id += 1


def test_criterion_05_centroid_recursion_tracks_points():
    with criterion(5, "centroid recursion tracks point centroids"):
        rng = np.random.default_rng(202)
        for trial in range(500):
            run_centroid_config(rng, weighted=bool(trial % 2))


# ---- 6: recursive joint between-within equals its direct form ----

def run_jbw_config(rng, alpha):
    dim = int(rng.integers(2, 6))
    n = int(rng.integers(4, 13))
    pts = rng.uniform(-5, 5, size=(n, dim))
    # the rule takes distances already raised to the power alpha
    method = MethodSpec("joint_between_within")
    clusters = [dict(members=[i], size=1) for i in range(n)]
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(((pts[i] - pts[j]) ** 2).sum()) ** (alpha / 2)
    ids = list(range(n))
    next_id = n
    while len(ids) > 1:
        k = int(rng.integers(2, min(3, len(ids)) + 1))
        chosen = sorted(rng.choice(ids, size=k, replace=False).tolist())
        rest = [c for c in ids if c not in chosen]
        sizes = tuple(clusters[c]["size"] for c in chosen)
        within = tuple(tuple(0.0 if a == b else look(dist, a, b)
                             for b in chosen) for a in chosen)
        new = dict(members=sum((clusters[c]["members"] for c in chosen), []),
                   size=sum(sizes))
        clusters.append(new)
        for other in rest:
            d = vg_block(method.kind, sizes, (clusters[other]["size"],),
                         tuple((look(dist, c, other),) for c in chosen),
                         within, ((0.0,),))
            dist[(min(other, next_id), max(other, next_id))] = d
            want = jbw_oracle(pts[new["members"]],
                              pts[clusters[other]["members"]], alpha=alpha)
            assert rel(d, want) <= 1e-9
            if alpha == 2.0:
                na, nb = new["size"], clusters[other]["size"]
                twice = 2.0 * (na * nb / (na + nb)) * centroid_oracle(
                    pts[new["members"]], pts[clusters[other]["members"]])
                assert rel(d, twice) <= 1e-9
        ids = rest + [next_id]
        next_id += 1


def test_criterion_06_jbw_recursion_tracks_points():
    with criterion(6, "joint between-within recursion tracks points"):
        rng = np.random.default_rng(303)
        alphas = (0.5, 1.0, 2.0)
        for trial in range(500):
            run_jbw_config(rng, alphas[trial % 3])


# ---- 7: two-against-one blocks collapse to the classical update ----

def test_criterion_07_reduction_to_classical():
    with criterion(7, "group formula reduces to the classical row"):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            sizes = tuple(int(s) for s in rng.integers(1, 7, size=3))
            d_between, d_left, d_right = rng.uniform(0.05, 50.0, size=3)
            for kind in METHOD_KINDS:
                m = MethodSpec(kind)
                blocks = Blocks(
                    sizes_i=sizes[:2], sizes_j=sizes[2:],
                    cross=((d_left,), (d_right,)),
                    within_i=((0.0, d_between), (d_between, 0.0)),
                    within_j=((0.0,),),
                )
                want = lance_williams(kind, *sizes, d_between, d_left,
                                      d_right)
                assert rel(vg_distance_tabular(m, blocks), want) <= 1e-9
                assert rel(vg_block(kind, *blocks), want) <= 1e-9
                # the classical engine's own merge of the pair
                got = pair_row(kind, sizes[:2], d_between, sizes[2:],
                               [d_left], [d_right])
                assert rel(float(got[0]), want) <= 1e-9


# ---- 8: without ties both engines build the same tree ----

def test_criterion_08_no_tie_equivalence():
    # both engines update through linkage.vg_update, a merged pair being a
    # block J of two clusters, so their heights agree to the last bit
    with criterion(8, "tie-free runs match the classical engine"):
        rng = np.random.default_rng(505)
        done = 0
        redraws = 0
        while done < 200:
            n = int(rng.integers(4, 41))
            vals = rng.uniform(0.5, 100.0, size=n * (n - 1) // 2)
            m = matrix_from_values(n, vals)
            all_clean = True
            for kind in METHOD_KINDS:
                vg, trace = cluster_variable_group(m, kind)
                if not tie_free(trace):
                    all_clean = False
                    break
                pg = cluster_pair_group(m, kind)
                assert tree_equal(vg, pg, 0.0), (kind, n)
            if not all_clean:
                redraws += 1
                assert redraws < 10, "continuous draws keep producing ties"
                continue
            done += 1


def test_criterion_08_no_tie_equivalence_at_scale():
    # one tie-free draw of 800 points under every rule, about 1.2 s
    with criterion(8, "tie-free runs match the classical engine at n=800"):
        n = 800
        vals = np.random.default_rng(808).uniform(0.5, 100.0,
                                                  size=n * (n - 1) // 2)
        m = matrix_from_values(n, vals)
        for kind in METHOD_KINDS:
            vg, trace = cluster_variable_group(m, kind)
            assert tie_free(trace), kind
            assert tree_equal(vg, cluster_pair_group(m, kind), 0.0), kind


# ---- 9: single linkage is immune to tie-break order ----

def test_criterion_09_single_linkage_tie_invariance():
    with criterion(9, "single linkage cophenetics ignore tie order"):
        rng = np.random.default_rng(42)
        done = 0
        redraws = 0
        while done < 100:
            n = int(rng.integers(4, 9))
            sq = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    sq[i][j] = sq[j][i] = float(rng.integers(1, 7))
            vals = tuple(sq[i][j] for i in range(n) for j in range(i + 1, n))
            m = matrix_from_values(n, vals)
            try:
                trees = enumerate_pair_group(m, "single", limit=20000)
            except TooManySolutions:
                redraws += 1
                assert redraws < 50
                continue
            vg, _ = cluster_variable_group(m, "single", policy="shortest")
            want = cophenetic_matrix(vg).values
            for t in trees:
                assert cophenetic_matrix(t).values == want
            done += 1


# ---- 10: input order never changes the answer ----

def test_criterion_10_permutation_determinism():
    with criterion(10, "permuting the input changes nothing"):
        rng = np.random.default_rng(606)
        done = 0
        redraws = 0
        while done < 50:
            n = int(rng.integers(5, 13))
            sq = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    sq[i][j] = sq[j][i] = float(rng.integers(1, 8))
            labels = tuple("s%d" % i for i in range(n))

            def matrix_of(order):
                vals = tuple(sq[order[i]][order[j]]
                             for i in range(n) for j in range(i + 1, n))
                return matrix_from_values(
                    n, vals, labels=tuple(labels[o] for o in order))

            base = matrix_of(list(range(n)))
            _, probe = cluster_variable_group(base, "single")
            if not has_tie(probe):
                redraws += 1
                assert redraws < 20, "integer draws keep coming out tie-free"
                continue
            for kind in METHOD_KINDS:
                ref, _ = cluster_variable_group(base, kind)
                ref_heights = ref.node_heights()
                for _ in range(2):
                    order = rng.permutation(n).tolist()
                    got, _ = cluster_variable_group(matrix_of(order), kind)
                    assert got.node_heights() == ref_heights, (kind, order)
            done += 1
