"""What the benchmark checks, none of it timed.

``reference`` runs a workload once in this process through the library and
keeps the trees, traces and the exact stdout the CLI must produce. ``gate``
judges one timed invocation against it. ``scipy_oracle`` and
``input_order`` are the independent checks: they hold for every seed,
whereas the recorded sha256 of the reference output only exists for the
default seed.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from math import comb

import numpy as np
from multidendro import (
    cluster_variable_group,
    detect_reversals,
    enumerate_pair_group,
    parse_matrix,
    parse_records,
    round_to_precision,
    to_newick_extended,
    tree_equal,
)

import workloads as wl

ALLOWED_EXIT_CODES = (0, 2)  # 2: reversals found and reported


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Reference:
    """Library results for each matrix of one workload invocation."""

    trees: list
    traces: list  # None per matrix under --enumerate
    outcomes: list  # classical outcome trees per matrix under --enumerate
    newicks: list  # variable-group tree, or every outcome, per matrix
    stdouts: list  # exact CLI stdout for newick and --enumerate
    exit_codes: list

    @property
    def tree_sha256(self):
        return sha256("".join(self.newicks))


def reference(workload, texts):
    ref = Reference([], [], [], [], [], [])
    for text in texts:
        matrix = parse_matrix(text)
        if workload.precision is not None:
            matrix = round_to_precision(matrix, workload.precision)
        if workload.output == "enumerate":
            trees = enumerate_pair_group(matrix, workload.method)
            newick = "".join(to_newick_extended(t) + "\n" for t in trees)
            reversed_any = any(detect_reversals(t) for t in trees)
            ref.outcomes.append(trees)
            ref.traces.append(None)
            ref.trees.append(None)
            ref.stdouts.append(newick)
        else:
            tree, trace = cluster_variable_group(matrix, workload.method)
            newick = to_newick_extended(tree) + "\n"
            reversed_any = bool(detect_reversals(trace))
            ref.trees.append(tree)
            ref.traces.append(trace)
            ref.stdouts.append(newick)
        ref.newicks.append(newick)
        ref.exit_codes.append(2 if reversed_any else 0)
    return ref


def gate(workload, ref, exit_codes, stdouts, stderrs):
    """Names of the checks applied and the first failure, or None."""
    applied = {"exit_code"}
    for k, (code, out, err) in enumerate(zip(exit_codes, stdouts, stderrs)):
        where = "matrix %d: " % (k + 1) if len(stdouts) > 1 else ""
        if code not in ALLOWED_EXIT_CODES or code != ref.exit_codes[k]:
            return applied, "%sexit code %r, expected %r (stderr %r)" % (
                where, code, ref.exit_codes[k], err[-300:])
        if workload.output in ("newick", "enumerate"):
            applied.add("stdout_bytes")
            if out != ref.stdouts[k]:
                return applied, "%sstdout differs from the reference" % where
        if workload.output == "enumerate":
            applied.add("outcome_count")
            count = "%d distinct outcome(s)" % len(ref.outcomes[k])
            if err.strip() != count:
                return applied, "%sstderr %r, expected %r" % (where, err, count)
        if workload.output == "records":
            applied.add("records_roundtrip")
            tree, _ = parse_records(out)
            if to_newick_extended(tree) + "\n" != ref.newicks[k]:
                return applied, "%srecords describe another tree" % where
        if workload.output == "svg":
            applied.add("svg_leaf_order")
            texts = [el.text for el in ET.fromstring(out).iter()
                     if el.tag.endswith("text") and el.text]
            leaves = [leaf.label for leaf in ref.trees[k].root.leaves()]
            if texts[:len(leaves)] != leaves:
                return applied, "%sSVG leaf order differs from the tree" % where
    return applied, None


def scipy_oracle(workload, paths, ref):
    """(status, detail) of the check against scipy.cluster.hierarchy."""
    if workload.output == "enumerate" or workload.precision is not None:
        return None
    try:
        from scipy.cluster.hierarchy import cophenet, linkage
        from scipy.spatial.distance import squareform
    except ImportError as exc:
        return "skipped", "scipy unavailable: %s" % exc
    condensed = squareform(np.loadtxt(paths[0]))
    tree = ref.trees[0]
    if workload.method == "unweighted_average":
        z = linkage(condensed, "average")
        members = [frozenset(["x%d" % (i + 1)]) for i in range(tree.n)]
        expected = {}
        for a, b, h, _ in z:
            members.append(members[int(a)] | members[int(b)])
            expected[members[-1]] = h
        got = tree.node_heights()
        if set(got) != set(expected):
            return "fail", "cluster sets differ from scipy average linkage"
        worst = max(max(abs(lo - expected[m]), abs(up - expected[m]))
                    for m, (lo, up, _) in got.items())
        status = "pass" if worst <= 1e-9 else "fail"
        return status, "max |height - scipy| = %.3g (limit 1e-9)" % worst
    if workload.method == "single":
        want = cophenet(linkage(condensed, "single"))
        worst = float(np.max(np.abs(want - lower_cophenetic(tree))))
        status = "pass" if worst == 0.0 else "fail"
        return status, "max |h_lower cophenetic - scipy| = %.3g (limit 0)" % worst
    return None


def lower_cophenetic(tree):
    """Condensed matrix of the h_lower at which each pair first joins."""
    from scipy.spatial.distance import squareform

    square = np.zeros((tree.n, tree.n))
    for node in tree.internal_nodes():  # preorder: descendants overwrite
        members = [leaf.index for leaf in node.leaves()]
        square[np.ix_(members, members)] = node.h_lower
    np.fill_diagonal(square, 0.0)
    return squareform(square)


def input_order(ties, seed, unpermuted):
    """(status, detail): a permuted, labelled copy of the ties input must
    give exactly the same tree."""
    pts = wl.points(seed, ties)[0]
    text = wl.matrix_text(pts, ties.write, order=wl.permutation(seed, ties.n),
                          header=True)
    matrix = round_to_precision(parse_matrix(text), ties.precision)
    tree, _ = cluster_variable_group(matrix, ties.method)
    if tree_equal(unpermuted, tree, tol=0.0):
        return "pass", "permuted ties input (n=%d) gives the same tree" % ties.n
    return "fail", "permuted ties input (n=%d) gives another tree" % ties.n


def counts(ref):
    """Work counts of the engines, taken from the returned traces."""
    iterations = merges = largest = rebuilt = updated = records = 0
    for trace in ref.traces:
        if trace is None:
            continue
        # clusters alive after each iteration, derived from the merges so the
        # count holds whether or not a trace lists pass-through clusters
        k = trace.n_items
        for it in trace.iterations:
            iterations += 1
            new = [g for g in it.groups if g.h_lower is not None]
            k -= sum(len(g.member_ids) - 1 for g in new)
            merges += len(new)
            largest = max([largest] + [len(g.member_ids) for g in new])
            rebuilt += comb(k, 2)
            updated += comb(k, 2) - comb(k - len(new), 2)
            records += len(it.groups)
    return {
        "agglomerate.iterations": iterations,
        "agglomerate.merges": merges,
        "agglomerate.largest_group": largest,
        "agglomerate.pairs_rebuilt": rebuilt,
        "agglomerate.pairs_updated": updated,
        "agglomerate.update_ratio": updated / rebuilt if rebuilt else 0.0,
        "agglomerate.trace_records": records,
        "agglomerate.outcomes": sum(len(t) for t in ref.outcomes),
    }
