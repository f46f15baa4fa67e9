"""Optional checks against a similarity table shipped separately.

Drop a 23-soil similarity matrix at tests/data/soils.txt (square layout,
unit diagonal, values in [0, 1], three written decimals) and these checks
run; without the file they skip.
"""

from pathlib import Path

import pytest

from multidendro import (
    cluster_variable_group,
    parse_matrix,
    round_to_precision,
    similarity_to_dissimilarity,
)

from oracles import trace_leaves

DATA = Path(__file__).parent / "data" / "soils.txt"


def tied_groups(trace):
    return [g for it in trace.iterations for g in it.groups
            if g.h_lower is not None and len(g.member_ids) > 2]


def iterations_with_ties(trace):
    count = 0
    for it in trace.iterations:
        multi = [g for g in it.groups if len(g.member_ids) > 1]
        if len(multi) > 1 or any(len(g.member_ids) > 2 for g in multi):
            count += 1
    return count


@pytest.mark.skipif(not DATA.exists(), reason="soils table not bundled")
def test_soils_tie_block_at_three_decimals():
    sim = parse_matrix(DATA.read_text(), "square", similarity=True)
    matrix = similarity_to_dissimilarity(sim)
    matrix = round_to_precision(matrix, 3)
    _, trace = cluster_variable_group(matrix, "unweighted_average")
    wanted = {"3", "15", "20"}
    labels = trace.labels
    leaves = trace_leaves(trace)
    hits = [
        g for g in tied_groups(trace)
        if wanted <= {labels[i] for i in leaves[g.cluster_id]}
    ]
    assert hits, "no tied group holds soils 3, 15 and 20"


@pytest.mark.skipif(not DATA.exists(), reason="soils table not bundled")
def test_soils_coarser_rounding_adds_ties():
    sim = parse_matrix(DATA.read_text(), "square", similarity=True)
    matrix = similarity_to_dissimilarity(sim)
    fine = round_to_precision(matrix, 3)
    coarse = round_to_precision(matrix, 2)
    _, fine_trace = cluster_variable_group(fine, "unweighted_average")
    _, coarse_trace = cluster_variable_group(coarse, "unweighted_average")
    assert iterations_with_ties(coarse_trace) > iterations_with_ties(fine_trace)
