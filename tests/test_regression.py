"""Byte-for-byte regression of the engines' serialized output.

Two seeded 40-point clouds, one written at full precision and one rounded to
one decimal (so ties appear), go through every linkage rule under every
fusion policy and through the classical engine with each tie-break rule.
The sha256 of the extended newick text and of the records JSON of each run
are pinned in ``data/regression_sha256.json``; any change to the engines
that moves a single output byte fails here.

The hashes were recorded from the dict-backed engine that preceded the
array-backed working matrix. To record them again after an intended output
change, run ``python tests/test_regression.py > tests/data/regression_sha256.json``
with ``src`` on the import path.
"""

import hashlib
import json
import math
import random
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

GOLDEN = Path(__file__).parent / "data" / "regression_sha256.json"
N_POINTS = 40
CLOUD_SEED = 2027
RANDOM_TIEBREAK_SEED = 3


def _cloud_text(value_format):
    rng = random.Random(CLOUD_SEED)
    pts = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
           for _ in range(N_POINTS)]
    rows = []
    for xa, ya in pts:
        row = []
        for xb, yb in pts:
            dx, dy = xa - xb, ya - yb
            row.append(value_format % math.sqrt(dx * dx + dy * dy))
        rows.append(" ".join(row))
    return "\n".join(rows) + "\n"


MATRICES = {"raw": "%.18e", "dec1": "%.1f"}


@lru_cache(maxsize=None)
def _matrix(name):
    # the rounded cloud may hold zero distances; their warning is not the point
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDistanceWarning)
        return parse_matrix(_cloud_text(MATRICES[name]))


def _cases():
    for name in MATRICES:
        for method in METHOD_KINDS:
            for policy in POLICIES:
                yield "%s-%s-vg-%s" % (name, method, policy)
            for tiebreak in TIEBREAKS:
                yield "%s-%s-pg-%s" % (name, method, tiebreak)


def _run(case):
    name, method, engine, rule = case.split("-")
    matrix = _matrix(name)
    if engine == "vg":
        tree, trace = cluster_variable_group(matrix, method, policy=rule)
    else:
        seed = RANDOM_TIEBREAK_SEED if rule == "random" else None
        tree = cluster_pair_group(matrix, method, tiebreak=rule, seed=seed)
        trace = None
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


if __name__ == "__main__":
    print(json.dumps({case: _run(case) for case in _cases()},
                     sort_keys=True, indent=1))
