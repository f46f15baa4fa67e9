import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multidendro import (
    METHOD_KINDS,
    Leaf,
    MultivaluedTree,
    ZeroDistanceWarning,
    cluster_variable_group,
    internal,
    parse_matrix,
    parse_newick_extended,
    render_text,
    to_newick_extended,
    validate_tree,
)
from multidendro import agglomerate, cli
from multidendro.cli import main
from multidendro.proximity import MAX_VALUE

TOY_NEWICK = "((x1,x2,x3)[2.000,4.000],x4)[5.000,5.000];"


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_newick_output(toy_file, capsys):
    rc, out, err = run_cli(capsys, "--input", str(toy_file),
                           "--method", "unweighted_average")
    assert rc == 0
    assert out == TOY_NEWICK + "\n"


def test_negative_zero_prints_as_zero(tmp_path, capsys):
    path = tmp_path / "negzero.txt"
    path.write_text("0 -0 3\n-0 0 3\n3 3 0\n")
    with pytest.warns(ZeroDistanceWarning):
        rc, out, _ = run_cli(capsys, "--input", str(path),
                             "--method", "complete")
    assert rc == 0
    assert out == "((x1,x2)[0.000,0.000],x3)[3.000,3.000];\n"


def test_zero_distance_warning_is_one_plain_line(tmp_path):
    # in a fresh interpreter, so that Python's own warning display runs
    path = tmp_path / "z.txt"
    path.write_text("0 0 3\n0 0 3\n3 3 0\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from multidendro.cli import main; sys.exit(main())",
         "--input", str(path), "--method", "single"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "((x1,x2)[0.000,0.000],x3)[3.000,3.000];\n"
    assert proc.stderr == "warning: 1 distinct pair(s) at distance zero\n"


SIMILARITY_TEXT = "1 0.8 0.1\n0.8 1 0.4\n0.1 0.4 1\n"


@pytest.mark.parametrize("args", [
    ("--output", "newick"), ("--output", "records"), ("--output", "text"),
    ("--output", "svg"), ("--policy", "natural"), ("--precision", "0"),
    ("--tiebreak", "first"), ("--enumerate",), ("--similarity",),
])
def test_cli_never_builds_the_values_tuple(toy_file, tmp_path, capsys,
                                           monkeypatch, args):
    # every step from parser to output reads the matrix's array; the tuple
    # of Python floats behind .values is built only when asked for
    made = []
    for name in ("parse_matrix", "similarity_to_dissimilarity",
                 "round_to_precision"):
        def keep(*a, _real=getattr(cli, name), **k):
            made.append(_real(*a, **k))
            return made[-1]
        monkeypatch.setattr(cli, name, keep)
    path = toy_file
    if "--similarity" in args:
        path = tmp_path / "similarity.txt"
        path.write_text(SIMILARITY_TEXT)
    rc, _, err = run_cli(capsys, "--input", str(path), "--method", "complete",
                         *args)
    assert rc == 0, err
    assert made
    assert not any(hasattr(m, "_values") for m in made)


def test_library_run_never_builds_the_values_tuple(toy_text):
    matrix = parse_matrix(toy_text)
    tree, _ = cluster_variable_group(matrix, "unweighted_average")
    to_newick_extended(tree)
    assert not hasattr(matrix, "_values")
    assert matrix.values == (2.0, 4.0, 7.0, 2.0, 5.0, 3.0)
    assert hasattr(matrix, "_values")


def test_records_output(toy_file, capsys):
    rc, out, _ = run_cli(capsys, "--input", str(toy_file),
                         "--method", "unweighted_average",
                         "--output", "records")
    assert rc == 0
    doc = json.loads(out)
    assert doc["format_version"] == "3"
    assert doc["method"] == "unweighted_average"
    assert len(doc["merges"]) == 2
    assert doc["trace"]["iterations"][0]["d_lower"] == 2.0


def test_text_output(toy_file, capsys):
    rc, out, _ = run_cli(capsys, "--input", str(toy_file),
                         "--method", "unweighted_average",
                         "--output", "text")
    assert rc == 0
    assert "[2..4]" in out


def test_text_output_of_deep_caterpillar(toy_file, capsys, monkeypatch):
    # a chain deep enough needs far too long to cluster in a test, so the
    # engine hands back a caterpillar built directly
    depth = sys.getrecursionlimit() + 500
    node = Leaf(depth, "x%d" % depth)
    for i in range(depth - 1, -1, -1):
        node = internal((node, Leaf(i, "x%d" % i)), float(depth - i),
                        float(depth - i))
    tree = MultivaluedTree(root=node,
                           labels=tuple("x%d" % i for i in range(depth + 1)))
    monkeypatch.setattr(cli, "cluster_pair_group", lambda *a, **k: tree)
    rc, out, err = run_cli(capsys, "--input", str(toy_file),
                           "--method", "single", "--tiebreak", "first",
                           "--output", "text")
    assert (rc, err) == (0, "")
    assert out == render_text(tree)
    assert out.count("\n") == 2 * depth + 1


def test_svg_output_of_chain_deeper_than_recursion_limit(tmp_path, capsys):
    # single linkage on points at the triangular numbers adds one point per
    # iteration, so the tree is a caterpillar n - 1 levels deep
    n = sys.getrecursionlimit() + 200
    pos = [k * (k + 1) // 2 for k in range(n)]
    path = tmp_path / "chain.txt"
    path.write_text("".join(
        " ".join(str(pos[i] - pos[j]) for j in range(i + 1)) + "\n"
        for i in range(n)))
    rc, out, err = run_cli(capsys, "--input", str(path), "--format", "lower",
                           "--method", "single", "--output", "svg")
    assert (rc, err) == (0, "")
    texts = [el.text for el in ET.fromstring(out).iter()
             if el.tag.endswith("text")]
    assert texts[:n] == ["x%d" % (i + 1) for i in range(n)]


def test_svg_output(toy_file, capsys):
    rc, out, _ = run_cli(capsys, "--input", str(toy_file),
                         "--method", "unweighted_average",
                         "--output", "svg")
    assert rc == 0
    ET.fromstring(out)


def test_enumerate_lists_all_outcomes(toy_file, capsys):
    rc, out, err = run_cli(capsys, "--input", str(toy_file),
                           "--method", "unweighted_average", "--enumerate")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)
    assert "3 distinct outcome(s)" in err


def test_enumerate_writes_the_enumerator_texts(toy, toy_file, capsys,
                                              monkeypatch):
    found = agglomerate._enumerate_newick(toy, "unweighted_average", 10000)
    texts = [text for text, _ in found]
    assert len(texts) == 3 and texts == sorted(texts)
    assert texts == [to_newick_extended(tree) for _, tree in found]

    def refuse(tree):
        raise AssertionError("the command line serialized a tree itself")

    monkeypatch.setattr(cli, "to_newick_extended", refuse)
    rc, out, _ = run_cli(capsys, "--input", str(toy_file),
                         "--method", "unweighted_average", "--enumerate")
    assert rc == 0
    assert out.splitlines() == texts


@pytest.mark.parametrize("mode", [("--output", "newick"), ("--enumerate",)])
def test_unserializable_label_is_an_error(tmp_path, capsys, mode):
    path = tmp_path / "paren.txt"
    path.write_text("a(b x2 x3\n0 2 4\n2 0 2\n4 2 0\n")
    rc, out, err = run_cli(capsys, "--input", str(path),
                           "--method", "single", *mode)
    assert rc == 1
    assert out == ""
    assert err == "error: label 'a(b' not serializable\n"


def test_reversal_exit_code(toy_file, capsys):
    rc, out, _ = run_cli(capsys, "--input", str(toy_file),
                         "--method", "single")
    assert rc == 2
    assert out.endswith(";\n")


def test_tiebreak_first(toy_file, capsys):
    rc, out, _ = run_cli(capsys, "--input", str(toy_file),
                         "--method", "unweighted_average",
                         "--tiebreak", "first")
    assert rc == 0
    assert out == ("((x1,x2)[2.000,2.000],(x3,x4)[3.000,3.000])"
                   "[4.500,4.500];\n")


def test_tiebreak_random_is_seeded(toy_file, capsys):
    rc1, out1, _ = run_cli(capsys, "--input", str(toy_file),
                           "--method", "unweighted_average",
                           "--tiebreak", "random", "--seed", "11")
    rc2, out2, _ = run_cli(capsys, "--input", str(toy_file),
                           "--method", "unweighted_average",
                           "--tiebreak", "random", "--seed", "11")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_seed_requires_random_rule(toy_file, capsys):
    rc, _, err = run_cli(capsys, "--input", str(toy_file),
                         "--method", "single", "--seed", "4")
    assert rc == 1
    assert err.startswith("error:")


def test_enumerate_excludes_tiebreak(toy_file, capsys):
    rc, _, err = run_cli(capsys, "--input", str(toy_file),
                         "--method", "single", "--enumerate",
                         "--tiebreak", "first")
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("flags", [
    ("--enumerate", "--output", "svg"),
    ("--enumerate", "--output", "records"),
    ("--policy", "natural", "--tiebreak", "first"),
    ("--policy", "interval", "--enumerate"),
])
def test_ignored_flags_rejected(toy_file, capsys, flags):
    rc, out, err = run_cli(capsys, "--input", str(toy_file),
                           "--method", "unweighted_average", *flags)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("text,newick", [
    ("0 1\n1 0\n", "(x1,x2)[1.000,1.000];\n"),
    ("a b\n0 1\n1 0\n", "(a,b)[1.000,1.000];\n"),
])
def test_byte_order_mark_ignored(tmp_path, capsys, text, newick):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    rc, out, err = run_cli(capsys, "--input", str(path), "--method", "single")
    assert (rc, out, err) == (0, newick, "")


def test_missing_input_file(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "--input", str(tmp_path / "nope.txt"),
                         "--method", "single")
    assert rc == 1
    assert err.startswith("error:")


def test_unknown_method_rejected(toy_file, capsys):
    rc, _, err = run_cli(capsys, "--input", str(toy_file),
                         "--method", "median")
    assert rc == 1
    assert "usage" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0
    assert "usage" in out


def test_similarity_flow(tmp_path, capsys):
    path = tmp_path / "sim.txt"
    path.write_text("1.0 0.9 0.2\n0.9 1.0 0.4\n0.2 0.4 1.0\n")
    rc, out, _ = run_cli(capsys, "--input", str(path),
                         "--method", "single", "--similarity")
    assert rc == 0
    assert out == "((x1,x2)[0.100,0.100],x3)[0.600,0.600];\n"


def test_precision_flag_changes_ties(tmp_path, capsys):
    path = tmp_path / "close.txt"
    path.write_text("0 2.04 9\n2.04 0 1.96\n9 1.96 0\n")
    rc, raw_out, _ = run_cli(capsys, "--input", str(path),
                             "--method", "single")
    assert rc == 0
    assert raw_out == "(x1,(x2,x3)[1.960,1.960])[2.040,2.040];\n"

    rc, rounded_out, _ = run_cli(capsys, "--input", str(path),
                                 "--method", "single", "--precision", "1")
    assert rc == 0  # single wide merge, nothing above it to invert
    assert rounded_out == "(x1,x2,x3)[2.000,9.000];\n"


def test_pairs_format(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("1 2 2\n1 3 4\n1 4 7\n2 3 2\n2 4 5\n3 4 3\n")
    rc, out, _ = run_cli(capsys, "--input", str(path),
                         "--format", "pairs",
                         "--method", "unweighted_average")
    assert rc == 0
    assert out == TOY_NEWICK + "\n"


def test_enumeration_limit_is_enforced(tmp_path, capsys):
    n = 7
    rows = [" ".join("0" if i == j else "1" for j in range(n))
            for i in range(n)]
    path = tmp_path / "flat.txt"
    path.write_text("\n".join(rows) + "\n")
    rc, _, err = run_cli(capsys, "--input", str(path),
                         "--method", "single", "--enumerate",
                         "--limit", "5")
    assert rc == 1
    assert "error:" in err


def test_enumeration_limit_below_one_is_rejected(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("0 9\n9 0\n")
    rc, out, err = run_cli(capsys, "--input", str(path),
                           "--method", "single", "--enumerate",
                           "--limit", "0")
    assert rc == 1
    assert out == ""
    assert err == "error: the outcome limit must be at least 1, not 0\n"


def test_alpha_flag(tmp_path, capsys):
    # no rule reads an exponent: joint between-within takes distances
    # already raised to it, so --alpha is refused, not silently ignored
    path = tmp_path / "two.txt"
    path.write_text("0 9\n9 0\n")
    rc, out, err = run_cli(capsys, "--input", str(path),
                           "--method", "joint_between_within",
                           "--alpha", "2.0")
    assert (rc, out) == (1, "")
    assert "unrecognized arguments: --alpha 2.0" in err
    rc, out, _ = run_cli(capsys, "--input", str(path),
                         "--method", "joint_between_within")
    assert (rc, out) == (0, "(x1,x2)[9.000,9.000];\n")


HUGE_TEXT = "0 1e30 2\n1e30 0 3\n2 3 0\n"


def test_values_beyond_28_digits_round_at_any_precision(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_TEXT)
    rc, raw_out, _ = run_cli(capsys, "--input", str(path),
                             "--method", "single")
    assert rc == 0
    rc, rounded_out, err = run_cli(capsys, "--input", str(path),
                                   "--method", "single", "--precision", "0")
    assert (rc, err) == (0, "")
    assert rounded_out == raw_out == "((x1,x3)[2.000,2.000],x2)[3.000,3.000];\n"


@pytest.mark.parametrize("text,flags", [
    (HUGE_TEXT, ("--precision", "0")),
    ("", ()),
    ("0 nan\nnan 0\n", ()),
    ("1 1.5\n1.5 1\n", ("--similarity",)),
    ("0 2\n2 0\n", ("--precision", "-1")),
    ("a b c\n", ("--format", "lower")),
])
def test_extreme_and_malformed_input_never_raises(tmp_path, capsys, text,
                                                  flags):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "--input", str(path),
                           "--method", "single", *flags)
    if rc == 1:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert rc == 0


# the ends of the accepted range and their neighbours
_EDGES = [0.0, 5e-324, 2.0 ** -1022, 1.0, MAX_VALUE,
          math.nextafter(MAX_VALUE, 0.0)]
_ENGINES = [(), ("--tiebreak", "first"), ("--tiebreak", "last"),
            ("--tiebreak", "random", "--seed", "1"), ("--enumerate",)]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 64), method=st.sampled_from(METHOD_KINDS),
       engine=st.sampled_from(_ENGINES))
def test_accepted_values_give_a_valid_tree_or_one_error(
        tmp_path, capsys, seed, method, engine):
    # the matrix comes from the seed, as hypothesis' own float draws would
    # take most of the time: up to 5 points, and a pool of up to 10 values
    # from subnormals to the largest accepted that each pair picks from, so
    # that some tie. The tree of every run that exits 0 or 2 is valid, and
    # any other run prints one error line and no traceback
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    pool = [rng.choice(_EDGES) if rng.random() < 0.2
            else math.ldexp(rng.random(), rng.randint(-1073, 900))
            for _ in range(rng.randint(1, 10))]
    square = [[0.0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        square[i][j] = square[j][i] = rng.choice(pool)
    path = tmp_path / "accepted.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n"
                            for row in square))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDistanceWarning)
        rc, out, err = run_cli(capsys, "--input", str(path),
                               "--method", method, *engine)
    if rc == 1:
        assert out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == err.splitlines()[-1:]
        return
    assert rc in (0, 2), err
    for line in out.splitlines():
        report = validate_tree(parse_newick_extended(line))
        assert not report.errors, (line, report.errors)


@pytest.mark.parametrize("method", ["unweighted_centroid", "weighted_centroid",
                                    "joint_between_within"])
def test_negative_update_is_one_error_line(tmp_path, capsys, method):
    # x1 and x3 are 100 apart but join x2 at distance 0 in one group, and
    # the group's within term takes its distance to x4 below zero
    path = tmp_path / "bent.txt"
    path.write_text("0 0 100 1\n0 0 0 1\n100 0 0 1\n1 1 1 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDistanceWarning)
        rc, out, err = run_cli(capsys, "--input", str(path),
                               "--method", method)
    assert (rc, out) == (1, "")
    assert err.startswith("error: a distance update went negative")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["a b\n", "a b\n \n\t\n"])
def test_header_only_input_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "header.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "--input", str(path),
                               "--method", "single")
    assert (rc, out) == (1, "")
    assert err == "error: square input has a header but no rows\n"
