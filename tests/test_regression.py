"""Byte-for-byte regression of the engines' serialized output.

A seeded 40-point cloud, written three ways, goes through every linkage rule
under every fusion policy and through the classical engine with each
tie-break rule: at full precision, rounded to one decimal (so ties appear),
and as whole numbers d + 1 with a zero diagonal (so most distances tie and
tied groups grow large). The sha256 of the extended newick text and of the
records JSON of each run are pinned in ``data/regression_sha256.json``; any
change to the engines that moves a single output byte fails here.

The raw and one-decimal newick hashes were recorded from the dict-backed
engine that preceded the array-backed working matrix; the whole-number ones
from the array-backed engine that still built every distance update through
``BlockView`` and scanned for ties twice per iteration. The records hashes
were recorded again for records format version 2, whose trace lists merged
groups only. Before that, each case's version 2 document was checked to
equal its version 1 document with "format_version" set to "2" and with the
null-height groups, which listed clusters passing an iteration unmerged,
removed. The raw and one-decimal classical single and complete records
hashes were recorded once more when their update became an exact min and
max: each document was checked to hold the same labels, nesting and
newick text as before, with only heights moved by an ulp or two, and the
id order and reversal flags that follow from them; every height is now
one of the input distances. They were recorded again for records format
version 3, which lists neither a merge's member labels nor a trace
group's leaves. Before that, each case's version 3 document was checked
to equal its version 2 document once "members" was rebuilt from each
merge's "children", "leaves" from each group's "member_ids", and
"format_version" was set to "2"; all 126 agreed, byte for byte as JSON.
The classical unweighted average and unweighted centroid hashes on all
three matrices, and the joint between-within ones on the one-decimal and
whole-number matrices (24 cases), were recorded again when the classical
engine's update became the block formula with the merged pair as block J,
whose terms sum correctly rounded. Before that, each case's tree was
checked to nest the same clusters as before, with every height moved by 3
ulps at most; the records moved only in those heights and, in two joint
between-within cases, in the id order that follows from them. All 126
records hashes were recorded again when trees and traces lost their
"alpha" tag, after a check that each new document equals the one before
with the two "alpha" keys removed.
To record them again after an intended output change, run
``python tests/test_regression.py > tests/data/regression_sha256.json``
with ``src`` on the import path.

The tie-break enumerator is pinned the same way on one 14-point
whole-number matrix, under every linkage rule: the sha256 of its newick
lines is kept in ``data/enumerate_sha256.json`` (record with
``python tests/test_regression.py enumerate``). Those hashes were recorded
from the enumerator that kept its own condensed state, before it moved onto
the engines' working matrix. The unweighted centroid hash was recorded
again with the block formula above: the same 648 outcomes nest the same
clusters, heights moved by 6 ulps at most, and 16 texts differ in one
printed digit, a height near 3.1875 printed as 3.187 or 3.188.
"""

import hashlib
import json
import math
import random
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import pytest

from multidendro import (
    METHOD_KINDS,
    POLICIES,
    TIEBREAKS,
    ZeroDistanceWarning,
    cluster_pair_group,
    cluster_variable_group,
    parse_matrix,
    records_to_json,
    to_newick_extended,
    to_records,
)
from multidendro.agglomerate import _enumerate_newick

GOLDEN = Path(__file__).parent / "data" / "regression_sha256.json"
ENUMERATE_GOLDEN = Path(__file__).parent / "data" / "enumerate_sha256.json"
N_POINTS = 40
CLOUD_SEED = 2027
RANDOM_TIEBREAK_SEED = 3


def _cloud_text(value_format, offset):
    rng = random.Random(CLOUD_SEED)
    pts = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
           for _ in range(N_POINTS)]
    rows = []
    for a, (xa, ya) in enumerate(pts):
        row = []
        for b, (xb, yb) in enumerate(pts):
            dx, dy = xa - xb, ya - yb
            d = math.sqrt(dx * dx + dy * dy)
            row.append(value_format % (d + offset if a != b else 0.0))
        rows.append(" ".join(row))
    return "\n".join(rows) + "\n"


# name: (value format, offset added off the diagonal)
MATRICES = {"raw": ("%.18e", 0.0), "dec1": ("%.1f", 0.0), "whole": ("%.0f", 1.0)}


@lru_cache(maxsize=None)
def _matrix(name):
    # the rounded cloud may hold zero distances; their warning is not the point
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDistanceWarning)
        return parse_matrix(_cloud_text(*MATRICES[name]))


def _cases():
    for name in MATRICES:
        for method in METHOD_KINDS:
            for policy in POLICIES:
                yield "%s-%s-vg-%s" % (name, method, policy)
            for tiebreak in TIEBREAKS:
                yield "%s-%s-pg-%s" % (name, method, tiebreak)


@lru_cache(maxsize=None)
def _result(case):
    """(tree, trace) of a case; the trace is None for the classical engine."""
    name, method, engine, rule = case.split("-")
    matrix = _matrix(name)
    if engine == "vg":
        return cluster_variable_group(matrix, method, policy=rule)
    seed = RANDOM_TIEBREAK_SEED if rule == "random" else None
    return cluster_pair_group(matrix, method, tiebreak=rule, seed=seed), None


def _run(case):
    tree, trace = _result(case)
    newick = to_newick_extended(tree).encode()
    records = records_to_json(to_records(tree, trace)).encode()
    return [hashlib.sha256(newick).hexdigest(),
            hashlib.sha256(records).hexdigest()]


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_output_bytes_unchanged(case):
    assert _run(case) == _golden()[case]


@pytest.mark.parametrize("case", [c for c in _cases() if "-vg-" in c])
def test_trace_lists_one_group_per_merge(case):
    tree, trace = _result(case)
    groups = sum(len(it.groups) for it in trace.iterations)
    assert groups == sum(1 for _ in tree.internal_nodes())


# whole numbers, so almost every distance ties with another
ENUMERATE_TEXT = """\
0 10 9 8 7 11 6 10 4 9 7 7 6 9
10 0 10 4 8 5 5 2 8 2 7 5 9 7
9 10 0 7 4 7 7 9 7 10 4 7 4 4
8 4 7 0 5 4 3 4 5 4 4 2 6 4
7 8 4 5 0 6 4 7 4 7 2 4 3 3
11 5 7 4 6 0 6 4 8 5 6 5 8 4
6 5 7 3 4 6 0 5 3 5 4 2 5 5
10 2 9 4 7 4 5 0 8 3 7 4 9 6
4 8 7 5 4 8 3 8 0 7 4 5 4 6
9 2 10 4 7 5 5 3 7 0 7 4 9 7
7 7 4 4 2 6 4 7 4 7 0 4 3 3
7 5 7 2 4 5 2 4 5 4 4 0 6 4
6 9 4 6 3 8 5 9 4 9 3 6 0 5
9 7 4 4 3 4 5 6 6 7 3 4 5 0
"""


def _enumerate_run(method):
    # the texts the command line prints, not the trees written again
    _, found = _enumerate_newick(parse_matrix(ENUMERATE_TEXT), method, 10000)
    text = "".join(text + "\n" for text, _, _ in found)
    return [len(found), hashlib.sha256(text.encode()).hexdigest()]


def test_enumerate_golden_covers_every_rule():
    assert sorted(json.loads(ENUMERATE_GOLDEN.read_text())) == sorted(METHOD_KINDS)


@pytest.mark.parametrize("method", METHOD_KINDS)
def test_enumerate_bytes_unchanged(method):
    assert _enumerate_run(method) == json.loads(ENUMERATE_GOLDEN.read_text())[method]


if __name__ == "__main__":
    if sys.argv[1:] == ["enumerate"]:
        golden = {method: _enumerate_run(method) for method in METHOD_KINDS}
    else:
        golden = {case: _run(case) for case in _cases()}
    print(json.dumps(golden, sort_keys=True, indent=1))
