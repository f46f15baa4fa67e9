import math
import struct
import tracemalloc
import warnings
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multidendro import (
    AsymmetricInput,
    DuplicateLabel,
    DuplicatePair,
    FormatError,
    KIND_FROM_SIMILARITY,
    MissingPair,
    NegativeValue,
    OutOfRange,
    ProximityMatrix,
    ZeroDistanceWarning,
    cluster_variable_group,
    parse_matrix,
    round_to_precision,
    serialize_matrix,
    similarity_to_dissimilarity,
    to_newick_extended,
)
from multidendro.errors import MultidendroError
from multidendro.proximity import (
    _precision,
    _read_square,
    round_half_away,
    round_half_away_array,
    tie_edge,
)

from oracles import (
    check_values_scalar,
    parse_lower_scalar,
    parse_square_scalar,
    precision_from_every_token,
)


# ---- parsing ----

def test_square_toy(toy):
    assert toy.labels == ("x1", "x2", "x3", "x4")
    assert toy.values == (2.0, 4.0, 7.0, 2.0, 5.0, 3.0)
    assert toy.precision == 0
    assert toy.get(0, 2) == 4.0
    assert toy.get(2, 0) == 4.0
    assert toy.get(1, 1) == 0.0


@pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (-1, 0), (0, -1), (3, 3)])
def test_get_rejects_indices_out_of_range(i, j):
    m = ProximityMatrix(("x1", "x2", "x3"), (1.0, 2.0, 3.0))
    with pytest.raises(IndexError):
        m.get(i, j)


def test_square_with_header():
    m = parse_matrix("a b\n0 1.5\n1.5 0\n", "square")
    assert m.labels == ("a", "b")
    assert m.values == (1.5,)
    assert m.precision == 1


@pytest.mark.parametrize("text,labels", [
    ("\ufeff0 1\n1 0\n", ("x1", "x2")),
    ("\ufeffa b\n0 1\n1 0\n", ("a", "b")),
])
def test_byte_order_mark_stripped(text, labels):
    m = parse_matrix(text)
    assert m.labels == labels
    assert m.values == (1.0,)
    assert m.precision == 0


def test_square_asymmetric():
    with pytest.raises(AsymmetricInput):
        parse_matrix("0 3\n4 0\n", "square")


def test_square_nonzero_diagonal():
    with pytest.raises(FormatError):
        parse_matrix("1 3\n3 0\n", "square")


def test_square_ragged():
    with pytest.raises(FormatError):
        parse_matrix("0 3\n3\n", "square")


def test_square_bad_token():
    with pytest.raises(FormatError):
        parse_matrix("0 x\nx 0\n", "square")


def test_lower_triangle(toy):
    text = "0\n2 0\n4 2 0\n7 5 3 0\n"
    m = parse_matrix(text, "lower")
    assert m.values == toy.values
    assert m.labels == toy.labels


def test_lower_accepts_alias():
    m = parse_matrix("0\n2 0\n", "lower-triangle")
    assert m.values == (2.0,)


def test_pairs_with_indices():
    m = parse_matrix("1 2 1.5\n", "pairs")
    assert m.labels == ("x1", "x2")
    assert m.values == (1.5,)


def test_pairs_with_labels_autodetected():
    m = parse_matrix("a b 1.5\n", "pairs")
    assert m.labels == ("a", "b")
    assert m.values == (1.5,)
    assert m.get(0, 1) == 1.5


def test_labeled_pairs():
    text = "a b 1\na c 2\nb c 3\n"
    m = parse_matrix(text, "labeled-pairs")
    assert m.labels == ("a", "b", "c")
    assert m.values == (1.0, 2.0, 3.0)


def test_pairs_missing():
    with pytest.raises(MissingPair):
        parse_matrix("1 2 1.0\n1 3 2.0\n", "pairs")


def test_pairs_duplicate():
    with pytest.raises(DuplicatePair):
        parse_matrix("1 2 1.0\n2 1 1.0\n", "pairs")


@pytest.mark.parametrize("text,fmt,similarity,message", [
    ("nan 1\n1 0\n", "square", False, "diagonal entry (1,1) must be 0"),
    ("nan 1\r\n1 0\r\n", "square", False,
     "diagonal entry (1,1) must be 0"),
    ("nan\n1 0\n", "lower", False, "diagonal entry on row 1 must be 0"),
    ("nan 0.5\n0.5 1\n", "square", True, "diagonal entry (1,1) must be 1"),
    ("1 1 nan\n1 2 1\n", "pairs", False, "self entry for 'x1' must be 0"),
])
def test_nan_self_entry_is_rejected(text, fmt, similarity, message):
    with pytest.raises(FormatError) as info:
        parse_matrix(text, fmt, similarity=similarity)
    assert str(info.value) == message


@pytest.mark.parametrize("text,fmt", [
    ("1e-13 1\n1 0\n", "square"),
    ("1e-13 1\r\n1 0\r\n", "square"),
    ("1e-13\n1 0\n", "lower"),
    ("1 1 1e-13\n1 2 1\n", "pairs"),
])
def test_self_entries_share_one_tolerance(text, fmt):
    m = parse_matrix(text, fmt)
    assert (m.labels, m.values) == (("x1", "x2"), (1.0,))


def test_negative_value():
    with pytest.raises(NegativeValue):
        parse_matrix("0 -1\n-1 0\n", "square")


def test_duplicate_header_label():
    with pytest.raises(DuplicateLabel):
        parse_matrix("a a\n0 1\n1 0\n", "square")


def test_zero_distance_warns():
    with pytest.warns(ZeroDistanceWarning):
        parse_matrix("0 0 1\n0 0 1\n1 1 0\n", "square")


def test_negative_zero_reads_as_zero():
    with pytest.warns(ZeroDistanceWarning):
        m = parse_matrix("0 -0 3\n-0 0 3\n3 3 0\n", "square")
    assert m.values == (0.0, 3.0, 3.0)
    assert math.copysign(1.0, m.values[0]) == 1.0
    with pytest.warns(ZeroDistanceWarning):
        m = ProximityMatrix(("a", "b"), (-0.0,))
    assert math.copysign(1.0, m.values[0]) == 1.0
    with pytest.warns(ZeroDistanceWarning):
        m = ProximityMatrix(("a", "b", "c"), np.array([-0.0, 1.0, 2.0]))
    assert math.copysign(1.0, float(m.condensed[0])) == 1.0
    assert math.copysign(1.0, m.values[0]) == 1.0


def test_unknown_format():
    with pytest.raises(FormatError):
        parse_matrix("0", "diagonal")


# ---- precision inference ----

@pytest.mark.parametrize("text,expected", [
    ("0 2.50\n2.50 0\n", 2),
    ("0 1\n1 0\n", 0),
    ("0 0.25 3\n0.25 0 1.5\n3 1.5 0\n", 2),
    # "_" separates digits: float reads 0.1_5 as 0.15 and 1_0.2_5 as 10.25
    ("0 0.1_5\n0.1_5 0\n", 2),
    ("0 1_0.2_5\n1_0.2_5 0\n", 2),
    ("0 .5\n.5 0\n", 1),
    ("0 1.\n1. 0\n", 0),
    # header labels are no values: neither their dots nor their "e"s count
    ("a.123 e.f\n0 1.5\n1.5 0\n", 1),
])
def test_precision_inferred_from_written_decimals(text, expected):
    assert parse_matrix(text, "square").precision == expected


def test_precision_not_inferable_from_exponents():
    assert parse_matrix("0 1e-3\n1e-3 0\n", "square").precision is None
    assert parse_matrix("0 2.5E-1\n2.5E-1 0\n", "square").precision is None


def _as_lines(rows):
    return "".join(" ".join(row) + "\n" for row in rows)


def _in_rows(tokens, width):
    return [tokens[k:k + width] for k in range(0, len(tokens), width)]


@pytest.mark.parametrize("tokens", [
    ["1", "1", "2.5", "2.5", "3.125", "1"],
    ["0", "0.1", "0.10", "0.100", "0.1", "0"],
    ["2.50", "2.50", "1e-3", "2.50", "3.1415"],
    ["1.5", "1.5", "1.5E2", "1.5"],
    ["7"] * 500 + ["7.25"] + ["7"] * 500,
    ["-0", "0", "-0.0", "12.", "+3.00"],
    ["0.1_5", "1", "0.15"],
    ["1_0.2_5", "1_000", "3.1"],
    # a run with more characters but fewer digits than the longest so far
    ["1.2345", "0.1_2_3", "1"],
])
def test_precision_inference_unchanged_on_repeated_tokens(tokens):
    want = precision_from_every_token(tokens)
    for width in (1, 2, 3, max(len(tokens), 1)):
        assert _precision(_as_lines(_in_rows(tokens, width))) == want


@given(st.lists(st.lists(st.sampled_from(
    ["0", "3", "10", "0.5", "2.25", "2.250", "1e2", "4.5E-1", "7.0",
     "0.1_5"]), max_size=8), max_size=8))
def test_precision_inference_matches_plain_scan(rows):
    tokens = [tok for row in rows for tok in row]
    assert _precision(_as_lines(rows)) == precision_from_every_token(tokens)


def test_precision_override():
    m = parse_matrix("0 2.50\n2.50 0\n", "square", precision=None)
    assert m.precision is None
    m = parse_matrix("0 2.50\n2.50 0\n", "square", precision=4)
    assert m.precision == 4


# ---- rounding ----

def test_round_half_away_from_zero():
    assert round_half_away(0.5, 0) == 1.0
    assert round_half_away(1.5, 0) == 2.0
    assert round_half_away(2.5, 0) == 3.0
    assert round_half_away(0.125, 2) == 0.13
    assert round_half_away(0.0375, 2) == 0.04


def _bits(x):
    return struct.pack("<d", x)


@st.composite
def _rounding_inputs(draw):
    # half-quanta and their neighbours, where the two roundings could part
    # ways, plus arbitrary, signed-zero and over-large values
    places = draw(st.integers(0, 8))
    scale = 10 ** places
    half = st.integers(0, 10 ** 7).map(lambda t: (2 * t + 1) / (2 * scale))
    near = st.tuples(half, st.sampled_from([0.0, math.inf])).map(
        lambda hv: math.nextafter(*hv))
    large = st.floats(1.0, 1000.0).map(lambda x: x * 2.0 ** 40 / scale)
    value = st.one_of(half, near, large, st.sampled_from([0.0, -0.0]),
                      st.floats(-1e9, 1e9, allow_nan=False))
    signed = st.tuples(value, st.booleans()).map(
        lambda vs: -vs[0] if vs[1] else vs[0])
    return places, draw(st.lists(signed, max_size=20))


@settings(max_examples=500, deadline=None)
@given(_rounding_inputs())
def test_round_half_away_array_matches_scalar(case):
    places, values = case
    got = round_half_away_array(values, places).tolist()
    assert list(map(_bits, got)) == [_bits(round_half_away(v, places))
                                     for v in values]


@st.composite
def _tie_edge_inputs(draw):
    # half quanta, magnitudes near 2**40 and 2**53 quanta (where the float
    # bounds give way to decimal rounding, and where floats grow coarser
    # than a quantum), subnormals and 1e300; neighbours of each, both signs
    places = draw(st.integers(0, 25))
    scale = 10 ** places
    half = lambda quanta: quanta.map(lambda t: (2 * t + 1) / (2 * scale))
    near = lambda m: st.floats(0.5, 2.0).map(lambda x: x * m / scale)
    value = draw(st.one_of(
        half(st.integers(0, 10 ** 7)),
        half(st.integers(2 ** 40 - 64, 2 ** 40 + 64)),
        half(st.integers(2 ** 52 - 64, 2 ** 53 + 64)),
        near(2.0 ** 40), near(2.0 ** 53),
        st.floats(0.0, 2.0 ** -1022), st.floats(1e299, 1e301),
        st.sampled_from([0.0, 5e-324, 1e300])))
    for _ in range(draw(st.integers(0, 2))):
        value = math.nextafter(value, draw(st.sampled_from([0.0, math.inf])))
    if draw(st.booleans()):
        value = -value
    return value, draw(st.sampled_from([places, None]))


@settings(max_examples=1000, deadline=None)
@given(_tie_edge_inputs())
def test_tie_edge_matches_array_rounding(case):
    # the comparison value is the array's, the edge rounds above it, and
    # the float below the edge still rounds to it
    value, places = case
    rounded = (lambda x: x) if places is None else (
        lambda x: round_half_away_array([x], places)[0])
    key, edge = tie_edge(value, places)
    assert _bits(key) == _bits(rounded(value))
    assert edge > value
    assert rounded(edge) > key
    assert rounded(math.nextafter(edge, -math.inf)) == key


def test_round_half_away_array_edges():
    # exact half-quanta, the float below each, the sign of zero, and the
    # precisions where 10**places stops being an exact float
    values = [0.5, 1.5, 2.5, 0.125, 0.0375, 1.005, 2.675, -0.5, -0.0004,
              -0.0, 0.0, 1e15, 123456789.5]
    values += [math.nextafter(v, 0.0) for v in values]
    for places in (0, 1, 2, 3, 22, 23, 30):
        got = round_half_away_array(values, places).tolist()
        assert list(map(_bits, got)) == [_bits(round_half_away(v, places))
                                         for v in values]
    assert round_half_away_array([], 2).shape == (0,)
    # values outside the fast range go through the scalar rounding
    assert math.isnan(round_half_away_array([1.0, math.nan], 2)[1])
    assert round_half_away_array([1.0, 1e300], 2)[1] == 1e300
    with pytest.raises(InvalidOperation):
        round_half_away(math.inf, 2)
    with pytest.raises(InvalidOperation):
        round_half_away_array([1.0, math.inf], 2)


def _round_half_away_exact(value, places):
    # the decimal repr(value) writes, rounded half away in exact fractions
    scaled = Fraction(repr(value)) * 10 ** places
    quanta = math.floor(abs(scaled) + Fraction(1, 2))
    return math.copysign(float(Fraction(quanta, 10 ** places)), value)


@settings(max_examples=400, deadline=None)
@given(
    value=st.one_of(
        st.floats(2.0 ** 40, 2.0 ** 53),
        st.floats(2.0 ** 40, 1e300),
        st.sampled_from([2.0 ** 40 + 0.5, 1e28, 1e29, 1e30, 1.5e30, 1e300,
                         123456789012345.67, 999999999999.9999]),
    ),
    negative=st.booleans(),
    places=st.integers(0, 6),
)
@example(value=1e30, negative=False, places=0)
@example(value=1e28, negative=True, places=6)
def test_round_half_away_of_large_values_is_exact(value, negative, places):
    # beyond 28 digits too, where the default decimal context stops
    value = -value if negative else value
    want = _bits(_round_half_away_exact(value, places))
    assert _bits(round_half_away(value, places)) == want
    assert _bits(round_half_away_array([value], places)[0]) == want


def test_round_to_precision_examples():
    m = ProximityMatrix(("a", "b", "c"), (0.273, 0.268, 0.5), precision=3)
    r = round_to_precision(m, 2)
    assert r.values == (0.27, 0.27, 0.5)
    assert r.precision == 2


def test_rounding_creates_ties():
    m = ProximityMatrix(("a", "b", "c"), (2.361, 2.364, 9.0))
    r = round_to_precision(m, 2)
    assert r.values[0] == r.values[1] == 2.36


def test_comparison_value():
    # ties are decided on values rounded half away from zero, as written
    assert round_half_away(2.364, 2) == 2.36
    assert round_half_away_array([2.364, 2.365], 2).tolist() == [2.36, 2.37]


@given(
    value=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    places=st.integers(min_value=0, max_value=8),
)
def test_rounding_idempotent(value, places):
    once = round_half_away(value, places)
    assert round_half_away(once, places) == once


# ---- similarity conversion ----

def test_similarity_conversion_exact():
    m = ProximityMatrix(("a", "b"), (0.962,), precision=3)
    d = similarity_to_dissimilarity(m)
    assert d.values == (0.038,)
    assert d.kind == KIND_FROM_SIMILARITY
    assert d.precision == 3


def test_similarity_out_of_range():
    m = ProximityMatrix(("a", "b"), (1.2,))
    with pytest.raises(OutOfRange):
        similarity_to_dissimilarity(m)


@pytest.mark.parametrize("fmt, text, first", [
    ("square", "0 1.7e308 1\n1.7e308 0 1e271\n1 1e271 0\n", "1.7e+308"),
    ("pairs", "1 2 3\n1 3 %r\n2 3 1e300\n" % (2.0 ** 900,), "1e+300"),
    ("lower", "0\n%r 0\n1 2 0\n" % (2.0 ** 900,), None),
])
def test_values_above_the_bound_are_refused(fmt, text, first):
    # the first value past 2**900 in row order; 2**900 itself is accepted
    if first is None:
        assert parse_matrix(text, fmt).condensed.max() == 2.0 ** 900
        return
    with pytest.raises(OutOfRange) as caught:
        parse_matrix(text, fmt)
    assert str(caught.value).startswith("value %s is above 2**900" % first)


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
@given(
    numerators=st.lists(st.integers(min_value=1, max_value=10 ** 6),
                        min_size=1, max_size=6),
    places=st.integers(min_value=0, max_value=6),
)
def test_similarity_conversion_is_involution(numerators, places):
    # labels sized to fit a triangular count of values
    k = len(numerators)
    n = next(m for m in range(2, 10) if m * (m - 1) // 2 >= k)
    values = [float(Decimal(v % (10 ** places + 1)) / (10 ** places))
              for v in numerators]
    values += [1.0] * (n * (n - 1) // 2 - k)
    m = ProximityMatrix(tuple("s%d" % i for i in range(n)), tuple(values))
    twice = similarity_to_dissimilarity(similarity_to_dissimilarity(m))
    assert twice.values == m.values


@pytest.mark.filterwarnings("ignore::multidendro.ZeroDistanceWarning")
@settings(max_examples=300, deadline=None)
@given(
    precision=st.one_of(st.none(), st.integers(0, 17)),
    grid=st.integers(0, 17),
    data=st.data(),
)
def test_similarity_conversion_matches_decimal(precision, grid, data):
    # values on a decimal grid, as written input gives them, and values on
    # no grid at all, under every matrix precision
    on_grid = st.integers(0, 10 ** grid).map(lambda k: k / 10 ** grid)
    value = st.one_of(on_grid, st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 1.0, 5e-324, 0.1, 0.3]))
    values = data.draw(st.lists(value, min_size=1, max_size=10))
    n = next(m for m in range(2, 10) if m * (m - 1) // 2 >= len(values))
    values += [1.0] * (n * (n - 1) // 2 - len(values))
    m = ProximityMatrix(tuple("s%d" % i for i in range(n)), values,
                        precision=precision)
    got = similarity_to_dissimilarity(m).condensed.tolist()
    assert list(map(_bits, got)) == [_bits(float(1 - Decimal(repr(v))))
                                     for v in values]


# ---- serialization round trips ----

@st.composite
def matrices(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    places = draw(st.integers(min_value=0, max_value=3))
    count = n * (n - 1) // 2
    ints = draw(st.lists(st.integers(min_value=1, max_value=9999),
                         min_size=count, max_size=count))
    values = tuple(float(Decimal(v) / (10 ** places)) for v in ints)
    return ProximityMatrix(tuple("x%d" % (i + 1) for i in range(n)), values,
                           precision=places)


@settings(max_examples=60)
@given(m=matrices(), fmt=st.sampled_from(("square", "lower", "pairs", "labeled-pairs")))
def test_serialize_parse_round_trip(m, fmt):
    assert parse_matrix(serialize_matrix(m, fmt), fmt) == m


def test_serialize_square_golden(toy):
    text = serialize_matrix(toy, "square")
    assert text.splitlines()[0] == "x1 x2 x3 x4"
    assert text.splitlines()[1] == "0 2 4 7"


def test_as_square_round_trip(toy):
    sq = toy.as_square()
    assert sq[0][3] == 7.0
    assert sq[3][0] == 7.0
    assert all(sq[i][i] == 0.0 for i in range(4))


def test_condensed_length_checked():
    with pytest.raises(FormatError):
        ProximityMatrix(("a", "b", "c"), (1.0,))


@pytest.mark.parametrize("values", [
    (1.0, 2.0, 3.0), [1, 2, 3], np.array([1.0, 2.0, 3.0]),
    (v for v in (1.0, 2.0, 3.0)), map(float, "123"),
])
def test_values_from_any_sequence_or_iterator(values):
    assert ProximityMatrix(("a", "b", "c"), values).values == (1.0, 2.0, 3.0)


# ---- arrays in scipy's pdist layout ----

def test_matrix_from_a_pdist_array():
    distance = pytest.importorskip("scipy.spatial.distance")
    points = np.random.default_rng(7).uniform(0.0, 10.0, size=(12, 2))
    condensed = distance.pdist(points)
    labels = tuple("p%d" % i for i in range(12))
    m = ProximityMatrix(labels, condensed)
    # the same matrix written with repr and read back
    text = serialize_matrix(m)
    assert " %r " % float(condensed[1]) in text
    parsed = parse_matrix(text, precision=None)
    for kind in ("single", "unweighted_average", "weighted_centroid"):
        assert (to_newick_extended(cluster_variable_group(m, kind)[0])
                == to_newick_extended(cluster_variable_group(parsed, kind)[0]))
    # the matrix keeps its own read-only copy
    want = condensed.copy()
    condensed[:] = 1.0
    assert np.array_equal(m.condensed, want)
    assert not m.condensed.flags.writeable
    with pytest.raises(ValueError):
        m.condensed[0] = 2.0
    assert m.values == tuple(want.tolist())
    assert all(type(v) is float for v in m.values)


def test_nonfinite_rejected():
    with pytest.raises(FormatError):
        ProximityMatrix(("a", "b"), (float("nan"),))


def test_parse_similarity_square_unit_diagonal():
    text = "1.0 0.9 0.2\n0.9 1.0 0.4\n0.2 0.4 1.0\n"
    sim = parse_matrix(text, "square", similarity=True)
    assert sim.values == (0.9, 0.2, 0.4)
    dis = similarity_to_dissimilarity(sim)
    assert dis.values == (0.1, 0.8, 0.6)
    assert dis.kind == "converted-from-similarity"


def test_parse_similarity_rejects_zero_diagonal():
    text = "0.0 0.9\n0.9 0.0\n"
    with pytest.raises(FormatError):
        parse_matrix(text, "square", similarity=True)
    # and the distance reader still insists on zeros
    with pytest.raises(FormatError):
        parse_matrix("1.0 0.9\n0.9 1.0\n", "square")


def test_parse_similarity_zero_value_is_quiet():
    text = "1.0 0.0\n0.0 1.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = parse_matrix(text, "square", similarity=True)
    assert sim.values == (0.0,)


def test_parse_similarity_pairs_self_entry():
    text = "a a 1.0\na b 0.3\nb b 1.0\n"
    sim = parse_matrix(text, "labeled-pairs", similarity=True)
    assert sim.labels == ("a", "b")
    assert sim.values == (0.3,)


# ---- bulk reading against the token-by-token reference ----

_NUMBER_TOKENS = ["0", "1", "3", "-2", "12", "0.5", "2.25", "-1.50", "1e2",
                  "2.5E-1", "-0", "-0.0", "nan", "inf", "-inf", "1e400",
                  "+1", ".5", "1.", "Infinity"]
# float() reads these and numpy's reader does not; "\u0663" is an
# Arabic-Indic three
_FLOAT_ONLY_TOKENS = ["1_0", "1e5_0", "\u0663"]
_OTHER_TOKENS = ["abc", "1,5", "--1", "1.2.3", "_1", "0x10", "#", '"1"']
# str.split separates tokens on all of these; "\u2003" is an em space
_SEPARATORS = [" ", " ", "\t", "   ", " \t ", "\u2003"]
# str.splitlines ends a line at each of these, numpy's reader only at "\n"
_OTHER_LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                      "\u2028"]


def _same_outcome(text, fmt, parse, similarity):
    # same labels, value bits and precision, or the same exception and
    # message; and the same zero-distance warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = parse_matrix(text, fmt, similarity=similarity)
            got = (m.labels, tuple(v.hex() for v in m.values), m.precision)
        except MultidendroError as exc:
            got = (type(exc), str(exc))
    got_warnings = [str(w.message) for w in caught
                    if issubclass(w.category, ZeroDistanceWarning)]
    want_warnings = []
    try:
        labels, values, precision = parse(text, 1.0 if similarity else 0.0)
        values, zero_pairs = check_values_scalar(labels, values)
        want = (labels, tuple(v.hex() for v in values), precision)
        if zero_pairs and not similarity:
            want_warnings.append("%d distinct pair(s) at distance zero"
                                 % zero_pairs)
    except MultidendroError as exc:
        want = (type(exc), str(exc))
    assert got == want
    assert got_warnings == want_warnings


@st.composite
def _token_rows(draw, lower):
    # a symmetric grid of tokens (its lower triangle when ``lower``), then
    # up to three bad tokens, asymmetric pairs, pairs within the symmetry
    # tolerance, bad diagonals, short or long rows, and an optional header
    # that may be too long or repeat a label
    n = draw(st.integers(1, 8))
    similarity = draw(st.booleans())
    diag = "1" if similarity else "0"
    good = st.sampled_from(_NUMBER_TOKENS)
    sep = st.sampled_from(_SEPARATORS)
    rows = [[diag] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from([diag, diag + ".0", "-" + diag]))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(good)
    if lower:
        rows = [row[:r + 1] for r, row in enumerate(rows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["token", "float_only", "asym", "near", "diag", "short", "long"]))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
        if kind == "token" and rows[i]:
            rows[i][j] = draw(st.sampled_from(_OTHER_TOKENS))
        elif kind == "float_only" and rows[i]:
            rows[i][j] = draw(st.sampled_from(_FLOAT_ONLY_TOKENS))
        elif kind == "asym" and rows[i] and j != i:
            rows[i][j] = draw(good)
        elif kind == "near" and rows[i] and _is_finite_token(rows[i][j]):
            rows[i][j] = repr(float(rows[i][j]) + 1e-13)
        elif kind == "diag" and i < len(rows[i]):
            rows[i][i] = draw(st.sampled_from(
                ["0.5", "2", "1e-13", "1e-11", "nan", "inf", "0", "1"]))
        elif kind == "short" and rows[i]:
            rows[i].pop()
        elif kind == "long":
            rows[i].append(draw(good))
    lines = [draw(st.sampled_from(["", " "])) + draw(sep).join(row)
             for row in rows if row]
    header = draw(st.sampled_from(["none", "labels", "long", "repeat"]))
    if header != "none":
        names = ["s%d" % k for k in range(n)]
        if header == "long":
            names.append("extra")
        elif header == "repeat" and n > 1:
            names[-1] = names[0]
        lines.insert(0, draw(sep).join(names))
    # blank lines anywhere: before the header, between rows, at the end
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t "])))
    # every line ends in "\n" but at most one, and the last may end in nothing
    ends = ["\n"] * len(lines)
    if lines and draw(st.booleans()):
        ends[draw(st.integers(0, len(lines) - 1))] = draw(
            st.sampled_from(_OTHER_LINE_BREAKS))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)), similarity


def _is_finite_token(token):
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(_token_rows(lower=False))
def test_bulk_square_matches_scalar_reader(case):
    text, similarity = case
    _same_outcome(text, "square", parse_square_scalar, similarity)


@settings(max_examples=200, deadline=None)
@given(_token_rows(lower=True))
def test_bulk_lower_matches_scalar_reader(case):
    text, similarity = case
    _same_outcome(text, "lower", parse_lower_scalar, similarity)


@pytest.mark.parametrize("text", [
    "0 1\n1 0\n",
    "\n a\tb \n\n0  1\n \n1\u20030",
    "0 +1 .5\n1. 0 Infinity\n0.5 inf -0\n",
    # numpy's reader reads "\r\n" as "\n", blank lines included
    "0 1\r\n1 0\r\n", "a b\r\n\r\n0 1\r\n \r\n1 0",
])
def test_square_text_takes_numpy_reader(text):
    assert _read_square(text) is not None


@pytest.mark.parametrize("text", [
    # line breaks numpy's reader does not honour, a lone "\r" among them
    "0 1\r1 0\r", "0 1\r\n1 0\r", "0 1\r\r\n1 0\n", "0 1\x0b1 0\n",
    "0 1\x0c1 0\n", "0 1\x1c1 0\n", "0 1\x851 0\n", "0 1\u20281 0\n",
    # tokens only float() reads, and no numbers at all
    "0 1_0\n1_0 0\n", "0 1e5_0\n1e5_0 0\n", "0 \u0663\n\u0663 0\n",
    "0 #\n# 0\n", '0 "1"\n"1" 0\n',
    # no rows, or rows of the wrong shape
    "", " \n\t\n", "a b\n", "a b\n \n", "0 1\n", "0\n1\n",
    "0 1\n1 0 2\n", "a b c\n0 1\n1 0\n",
])
def test_numpy_reader_declines(text):
    assert _read_square(text) is None


@pytest.mark.parametrize("text,message", [
    ("a b\n", "square input has a header but no rows"),
    ("a b\n \n\t\n", "square input has a header but no rows"),
    (" \n\t\n", "empty matrix text"),
])
def test_rowless_square_text_raises_without_warnings(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as info:
            parse_matrix(text, "square")
    assert str(info.value) == message


def test_square_text_parses_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = parse_matrix("a b c\n0 1 2\n1 0 3\n2 3 0\n", "square")
    assert (m.labels, m.values, m.precision) == (("a", "b", "c"),
                                                 (1.0, 2.0, 3.0), 0)


@pytest.mark.parametrize("fmt", ["%.18e", "%.0f"])
def test_square_reader_memory_stays_near_the_matrix(fmt):
    # all tokens of the text alive at once would take several times n*n
    # floats; the limit is four n x n float64 arrays
    n = 600
    pts = np.random.default_rng(5).uniform(0.0, 10.0, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    d[~np.eye(n, dtype=bool)] += 1.0
    text = "\n".join(" ".join(fmt % v for v in row) for row in d) + "\n"
    tracemalloc.start()
    try:
        m = parse_matrix(text, "square")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.n == n
    assert peak < 4 * n * n * 8


@pytest.mark.parametrize("fmt", ["%.18e", "%.0f"])
def test_lower_reader_memory_stays_near_the_matrix(fmt):
    # the square guard's bound, for text read one line at a time
    n = 600
    pts = np.random.default_rng(6).uniform(0.0, 10.0, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    d[~np.eye(n, dtype=bool)] += 1.0
    text = "".join(" ".join(fmt % v for v in row[:r + 1]) + "\n"
                   for r, row in enumerate(d))
    tracemalloc.start()
    try:
        m = parse_matrix(text, "lower")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.n == n
    assert peak < 4 * n * n * 8


@pytest.mark.parametrize("text,error,message", [
    # a bad token in row 3 is met after the short row 2
    ("0 1 2\n1 0\n2 x 0\n", FormatError, "row 2 has 2 entries, expected 3"),
    ("0 1 2\n1 0 3\n2 x 0\n", FormatError, "expected a number, got 'x'"),
    # an asymmetric pair in row 1 is met before the bad diagonal of row 2
    ("0 1 2\n1 5 3\n9 3 0\n", AsymmetricInput,
     "entry (1,3)=2.0 disagrees with (3,1)=9.0"),
    # on one row the diagonal comes before the pairs
    ("0 1 2\n1 5 3\n2 4 0\n", FormatError, "diagonal entry (2,2) must be 0"),
    ("7 1 2\n3 0 3\n2 3 0\n", FormatError, "diagonal entry (1,1) must be 0"),
    # the lowest column of the first asymmetric row
    ("0 1 2 3\n1 0 5 6\n2 4 0 3\n3 7 3 0\n", AsymmetricInput,
     "entry (2,3)=5.0 disagrees with (3,2)=4.0"),
])
def test_square_error_order(text, error, message):
    with pytest.raises(error) as info:
        parse_matrix(text, "square")
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    # row by row: row 2's diagonal before row 3's bad token or length
    ("0\n1 5\n2 x 0\n", "diagonal entry on row 2 must be 0"),
    ("0\n1 5\n2 3\n", "diagonal entry on row 2 must be 0"),
    ("0\n1 0\n2 x 0\n", "expected a number, got 'x'"),
    ("0\n1 0 4\n2 3 0\n", "lower-triangle row 2 has 3 entries, expected 2"),
])
def test_lower_error_order(text, message):
    with pytest.raises(FormatError) as info:
        parse_matrix(text, "lower")
    assert str(info.value) == message


@pytest.mark.parametrize("values,error,message", [
    ((1.0, float("nan"), -1.0), FormatError, "distances must be finite, got nan"),
    ((1.0, -1.0, float("inf")), NegativeValue, "negative dissimilarity -1.0"),
    ((float("-inf"), -1.0, 2.0), FormatError,
     "distances must be finite, got -inf"),
])
def test_first_bad_value_is_reported(values, error, message):
    with pytest.raises(error) as info:
        ProximityMatrix(("a", "b", "c"), values)
    assert str(info.value) == message
