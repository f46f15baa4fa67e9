import xml.etree.ElementTree as ET

import numpy as np
import pytest

from multidendro import (
    METHOD_KINDS,
    POLICIES,
    ProximityMatrix,
    cluster_pair_group,
    cluster_variable_group,
    render_svg,
    render_text,
    round_to_precision,
)

from oracles import render_svg_recursive


def test_text_outline_toy(toy):
    tree, _ = cluster_variable_group(toy, "unweighted_average")
    out = render_text(tree)
    lines = out.splitlines()
    assert lines[0].startswith("[2..4]") or "[2..4]" in out
    for label in ("x1", "x2", "x3", "x4"):
        assert any(line.endswith(label) for line in lines)
    assert "[5..5]" in out


def test_text_shows_fusion_when_it_differs(toy):
    tree, _ = cluster_variable_group(toy, "unweighted_average",
                                     policy="natural")
    out = render_text(tree)
    assert "@2.66667" in out


def test_text_is_deterministic(toy):
    tree, _ = cluster_variable_group(toy, "single")
    assert render_text(tree) == render_text(tree)


def test_svg_parses_and_marks_bands(toy):
    tree, _ = cluster_variable_group(toy, "unweighted_average")
    svg = render_svg(tree)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    bands = [el for el in root.iter() if el.get("class") == "band"]
    wide = [nd for nd in tree.internal_nodes() if nd.h_upper > nd.h_lower]
    assert len(bands) == len(wide) == 1


def test_svg_contains_all_labels(toy):
    tree, _ = cluster_variable_group(toy, "complete")
    svg = render_svg(tree)
    for label in ("x1", "x2", "x3", "x4"):
        assert ">%s<" % label in svg


def test_svg_escapes_markup_in_labels():
    from multidendro import ProximityMatrix

    matrix = ProximityMatrix(labels=("a<b", "c&d"), values=(1.0,))
    tree, _ = cluster_variable_group(matrix, "single")
    svg = render_svg(tree)
    assert "a&lt;b" in svg and "c&amp;d" in svg
    ET.fromstring(svg)


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_svg_matches_recursive_reference(kind):
    # seeded clouds written raw, at one decimal and as whole numbers, so
    # that trees come with and without tied groups and height bands
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = (4, 9, 16, 30)[seed]
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        values = d[np.triu_indices(n, 1)]
        labels = tuple("x%d" % (i + 1) for i in range(n))
        raw = ProximityMatrix(labels, values)
        whole = ProximityMatrix(labels, np.round(values), precision=0)
        for matrix in (raw, round_to_precision(raw, 1), whole):
            trees = [cluster_variable_group(matrix, kind, policy)[0]
                     for policy in POLICIES]
            trees.append(cluster_pair_group(matrix, kind))
            for tree in trees:
                assert render_svg(tree) == render_svg_recursive(tree)
