"""Symmetric dissimilarity matrices with explicit tie semantics.

Values are stored condensed (upper triangle, row major) and never mutated
after construction. Whether two distances count as tied is controlled by an
optional decimal ``precision``: they are tied iff they agree after rounding
half away from zero to that many decimals. Keeping the rule on the matrix,
instead of an epsilon buried in the clustering loop, makes every downstream
comparison reproducible. Recorded heights always keep the raw values; the
rounded values exist only for comparisons.

Rounding and similarity conversion run through ``decimal`` so that written
decimal digits behave the way they read: 1 - 0.962 really is 0.038.
Arrays of comparison values are rounded with numpy instead
(``round_half_away_array``), to the same bits: ``repr(v)`` reaches a
half-quantum exactly when ``v`` reaches the float nearest to it, and that
float is one correctly rounded division, so each value needs only a floor
and one comparison on either side.

Square and lower-triangle text is converted with one ``float`` pass over all
tokens and its diagonal and symmetry are checked on the resulting array;
``ProximityMatrix`` checks its values in one numpy pass too. When anything
fails, the error raised is the one a row-by-row reading meets first.
"""

from __future__ import annotations

import math
import re
import warnings
from decimal import Decimal, ROUND_HALF_UP
from itertools import chain

import numpy as np

from .errors import (
    AsymmetricInput,
    DuplicateLabel,
    DuplicatePair,
    FormatError,
    MissingPair,
    NegativeValue,
    OutOfRange,
    ZeroDistanceWarning,
)

KIND_DISTANCE = "originally-distance"
KIND_FROM_SIMILARITY = "converted-from-similarity"

FORMATS = ("square", "lower", "pairs", "labeled-pairs")
_FORMAT_ALIASES = {"lower-triangle": "lower"}

_INT_RE = re.compile(r"[+-]?\d+")
# tolerance for symmetry and diagonal checks on parsed text
_SYM_TOL = 1e-12


def _normalize_format(fmt):
    fmt = _FORMAT_ALIASES.get(fmt, fmt)
    if fmt not in FORMATS:
        raise FormatError("unknown matrix format %r" % (fmt,))
    return fmt


def _parse_value(token):
    try:
        return float(token)
    except ValueError:
        raise FormatError("expected a number, got %r" % (token,)) from None


def _token_decimals(token):
    # written decimal places; None when the token defeats counting
    if "e" in token or "E" in token:
        return None
    if "." not in token:
        return 0
    # "_" separates digits and is no decimal place
    return len(token.split(".", 1)[1].replace("_", ""))


def _infer_precision(rows):
    # a matrix repeats few distinct tokens when its values are coarse, so
    # each row adds only the tokens not seen before; an exponent token still
    # ends the scan at once
    best = 0
    seen = set()
    for row in rows:
        new = set(row).difference(seen)
        for tok in new:
            d = _token_decimals(tok)
            if d is None:
                return None
            best = max(best, d)
        seen |= new
    return best


def round_half_away(value, places):
    """Round a float to ``places`` decimals, ties away from zero."""
    written = Decimal(repr(value))
    # written with no digit below 10**-places, so already rounded; past
    # this, the rounded value has at most the 17 digits of repr and a
    # carry, well within the 28 of the default context
    if written.is_finite() and written.as_tuple().exponent >= -places:
        return float(value)
    quantum = Decimal(1).scaleb(-places)
    return float(written.quantize(quantum, rounding=ROUND_HALF_UP))


# below this, |v| * 10**places has room for the float nearest a
# half-quantum to be told apart from every other short decimal
_EXACT_LIMIT = 2.0 ** 40
# 10**places is an exact float up to here
_EXACT_PLACES = 22


def round_half_away_array(values, places):
    """``round_half_away`` over a float64 array, bit for bit.

    ``round_half_away`` rounds ``repr(v)``. Reading a decimal as a float is
    monotone, so ``repr(v)`` reaches a half-quantum ``b`` exactly when ``v``
    reaches ``float(b)``, as long as no other decimal as short as ``b``
    rounds to the same float, which holds while ``|v| * 10**places`` stays
    below 2**40. For ``t`` quanta that float is ``(t + 0.5) / 10**places``
    (IEEE division is correctly rounded), so ``t = floor(|v| * 10**places +
    0.5)`` is moved at most once up or down against those bounds.
    The result ``t / 10**places`` is what ``float(Decimal)`` gives, and takes
    the sign of ``v``. Larger, non-finite and over-precise values go through
    ``round_half_away`` one at a time.
    """
    v = np.asarray(values, dtype=np.float64)
    if places > _EXACT_PLACES:
        return np.array([round_half_away(x, places) for x in v.tolist()],
                        dtype=np.float64).reshape(v.shape)
    scale = float(10 ** places)
    mag = np.abs(v)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = mag * scale
        t = np.floor(scaled + 0.5)
        # t + 0.5 is exact below 2**52, so each bound is one rounding
        up = mag >= (t + 0.5) / scale
        t -= mag < (t - 0.5) / scale
        t += up
        out = np.copysign(t / scale, v)
        if v.size == 0 or scaled.max() < _EXACT_LIMIT:
            return out
        wild = ~(scaled < _EXACT_LIMIT)
    out[wild] = [round_half_away(x, places) for x in v[wild].tolist()]
    return out


def condensed_size(n):
    return n * (n - 1) // 2


class ProximityMatrix:
    """Immutable symmetric dissimilarities over labeled individuals.

    Parameters
    ----------
    labels : sequence of str
        Distinct names, one per individual, in input order.
    values : iterable of float or ndarray
        Condensed upper triangle, row major: d(0,1), d(0,2), ..., d(n-2,n-1),
        the layout of ``scipy.spatial.distance.pdist``. The values are copied.
    precision : int or None
        Decimals used for tie comparison; None compares raw values.
    kind : str
        Where the values came from, KIND_DISTANCE or KIND_FROM_SIMILARITY.

    ``condensed`` holds the values as a read-only float64 array; ``values``
    is the same as a tuple of Python floats, built on first use.
    """

    __slots__ = ("labels", "condensed", "precision", "kind", "_values")

    def __init__(self, labels, values, precision=None, kind=KIND_DISTANCE):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            lab = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
            raise DuplicateLabel("label %r appears twice" % (lab,))
        n = len(labels)
        # an iterator, which numpy cannot size, is read into a list first
        arr = np.array(values if hasattr(values, "__len__") else list(values),
                       dtype=np.float64)
        if arr.shape != (condensed_size(n),):
            raise FormatError(
                "expected %d condensed values for %d labels, got %d"
                % (condensed_size(n), n, arr.size)
            )
        bad = ~np.isfinite(arr) | (arr < 0.0)
        if bad.any():
            v = float(arr[bad.argmax()])
            if not math.isfinite(v):
                raise FormatError("distances must be finite, got %r" % (v,))
            raise NegativeValue("negative dissimilarity %r" % (v,))
        zero_pairs = int(np.count_nonzero(arr == 0.0))
        if zero_pairs:
            # a written "-0" reads as -0.0, which passes the sign check but
            # would print as "-0.000" and order unpredictably against 0.0
            arr += 0.0
            warnings.warn(
                "%d distinct pair(s) at distance zero" % zero_pairs,
                ZeroDistanceWarning,
                stacklevel=2,
            )
        if precision is not None and precision < 0:
            raise FormatError("precision must be >= 0")
        if kind not in (KIND_DISTANCE, KIND_FROM_SIMILARITY):
            raise FormatError("unknown matrix kind %r" % (kind,))
        arr.flags.writeable = False
        for name, value in (("labels", labels), ("condensed", arr),
                            ("precision", precision), ("kind", kind)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ProximityMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProximityMatrix):
            return NotImplemented
        return ((self.labels, self.precision, self.kind)
                == (other.labels, other.precision, other.kind)
                and np.array_equal(self.condensed, other.condensed))

    def __hash__(self):
        return hash((self.labels, self.condensed.tobytes(), self.precision,
                     self.kind))

    def __repr__(self):
        return "ProximityMatrix(labels=%r, values=%r, precision=%r, kind=%r)" % (
            self.labels, self.condensed, self.precision, self.kind)

    @property
    def values(self):
        if not hasattr(self, "_values"):
            object.__setattr__(self, "_values", tuple(self.condensed.tolist()))
        return self._values

    @property
    def n(self):
        return len(self.labels)

    def get(self, i, j):
        """Distance between two individuals, by index or by label."""
        if isinstance(i, str):
            i = self.labels.index(i)
        if isinstance(j, str):
            j = self.labels.index(j)
        if i == j:
            return 0.0
        i, j = min(i, j), max(i, j)
        return float(self.condensed[i * (2 * self.n - i - 1) // 2 + j - i - 1])

    def pairs(self):
        """Yield (i, j, value) over the upper triangle, row major."""
        rows, cols = np.triu_indices(self.n, 1)
        return zip(rows.tolist(), cols.tolist(), self.condensed.tolist())

    def as_square(self):
        """The full symmetric matrix as nested lists of floats."""
        return square_from_condensed(self.condensed, self.n).tolist()


def square_from_condensed(condensed, n, fill=0.0):
    """An n x n float64 array holding ``condensed`` on both triangles."""
    # a boolean mask selects in row-major order, which is condensed order
    upper = ~np.tri(n, dtype=bool)
    out = np.full((n, n), fill)
    out[upper] = condensed
    out.T[upper] = condensed
    return out


# ---- parsing ----

def parse_matrix(text, fmt="square", precision="infer", similarity=False):
    """Parse matrix text in one of the supported formats.

    ``precision`` defaults to "infer": the largest number of written decimal
    places among the value tokens. Pass an int to override, or None to keep
    raw comparison. With ``similarity`` the self entries must be 1 instead
    of 0 and the zero-distance warning stays quiet; pass the result through
    similarity_to_dissimilarity before clustering.
    """
    fmt = _normalize_format(fmt)
    # a byte-order mark some editors write is no part of the first token
    if text.startswith("\ufeff"):
        text = text[1:]
    self_value = 1.0 if similarity else 0.0
    if fmt == "square":
        labels, values, inferred = _parse_square(text, self_value)
    elif fmt == "lower":
        labels, values, inferred = _parse_lower(text, self_value)
    else:
        labels, values, inferred = _parse_pairs(
            text, labeled=(fmt == "labeled-pairs"), self_value=self_value)
    if precision == "infer":
        precision = inferred
    if similarity:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroDistanceWarning)
            return ProximityMatrix(labels, values, precision=precision)
    return ProximityMatrix(labels, values, precision=precision)


def _split_rows(text):
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise FormatError("empty matrix text")
    return rows


def _default_labels(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def _pop_header(rows, fmt):
    """Rows without a header line, and the labels it names or defaults."""
    try:
        float(rows[0][0])
    except ValueError:
        header, rows = rows[0], rows[1:]
    else:
        return rows, _default_labels(len(rows))
    if not rows:
        raise FormatError("%s input has a header but no rows" % (fmt,))
    if len(header) != len(rows):
        raise FormatError("header names %d individuals but there are %d rows"
                          % (len(header), len(rows)))
    return rows, tuple(header)


def _to_floats(rows, count):
    # every token through float(), so "1_0", "nan" and "1e400" read as they
    # do one at a time; None when a row is short or a token is no number
    try:
        return np.fromiter(map(float, chain.from_iterable(rows)), np.float64,
                           count)
    except ValueError:
        return None


def _parse_square(text, self_value=0.0):
    rows, labels = _pop_header(_split_rows(text), "square")
    n = len(rows)
    grid = None
    if all(len(row) == n for row in rows):
        grid = _to_floats(rows, n * n)
    if grid is None:
        # find the first bad row or token the way a row-by-row reading would
        for r, row in enumerate(rows):
            if len(row) != n:
                raise FormatError(
                    "row %d has %d entries, expected %d" % (r + 1, len(row), n))
            for tok in row:
                _parse_value(tok)
        raise AssertionError("bulk conversion failed on valid tokens")
    grid = grid.reshape(n, n)
    _check_square(grid, self_value)
    values = grid[~np.tri(n, dtype=bool)]
    inferred = _infer_precision(rows)
    return labels, values, inferred


def _check_square(grid, self_value):
    # the first failure in row order, a row's diagonal before its pairs
    n = len(grid)
    with np.errstate(invalid="ignore", over="ignore"):
        bad_diag = np.abs(grid.diagonal() - self_value) > _SYM_TOL
        diff = grid - grid.T
        np.abs(diff, out=diff)
        # symmetric, so the first flagged entry in row order lies above
        # the diagonal, in the lowest row holding an asymmetric pair
        asym = diff > _SYM_TOL
    diag_row = int(bad_diag.argmax()) if bad_diag.any() else n
    k = int(asym.argmax())
    asym_row = k // n if asym.flat[k] else n
    if diag_row < n and diag_row <= asym_row:
        raise FormatError(
            "diagonal entry (%d,%d) must be %g"
            % (diag_row + 1, diag_row + 1, self_value)
        )
    if asym_row < n:
        i, j = divmod(k, n)
        raise AsymmetricInput(
            "entry (%d,%d)=%r disagrees with (%d,%d)=%r"
            % (i + 1, j + 1, float(grid[i, j]), j + 1, i + 1, float(grid[j, i]))
        )


def _parse_lower(text, self_value=0.0):
    # row i carries i entries and ends with the self entry
    rows, labels = _pop_header(_split_rows(text), "lower-triangle")
    n = len(rows)
    flat = None
    if all(len(row) == r + 1 for r, row in enumerate(rows)):
        flat = _to_floats(rows, n * (n + 1) // 2)
    if flat is None:
        # row by row: length, tokens, then the row's diagonal entry
        for r, row in enumerate(rows):
            if len(row) != r + 1:
                raise FormatError(
                    "lower-triangle row %d has %d entries, expected %d"
                    % (r + 1, len(row), r + 1)
                )
            vals = [_parse_value(tok) for tok in row]
            _check_lower_diagonal(r, vals[r], self_value)
        raise AssertionError("bulk conversion failed on valid tokens")
    # row r starts at r(r+1)/2 and ends with its diagonal entry
    rr = np.arange(n)
    diagonal = flat[rr * (rr + 3) // 2]
    with np.errstate(invalid="ignore", over="ignore"):
        bad = np.abs(diagonal - self_value) > _SYM_TOL
    if bad.any():
        r = int(bad.argmax())
        _check_lower_diagonal(r, float(diagonal[r]), self_value)
    lower = np.zeros((n, n))
    below = np.tri(n, dtype=bool)
    lower[below] = flat
    values = lower.T[~below]
    inferred = _infer_precision(rows)
    return labels, values, inferred


def _check_lower_diagonal(r, value, self_value):
    if abs(value - self_value) > _SYM_TOL:
        raise FormatError(
            "diagonal entry on row %d must be %g" % (r + 1, self_value)
        )


def _parse_pairs(text, labeled, self_value=0.0):
    rows = _split_rows(text)
    for row in rows:
        if len(row) != 3:
            raise FormatError("pair lines need 3 fields, got %r" % (" ".join(row),))
    index_mode = not labeled and all(
        _INT_RE.fullmatch(row[0]) and _INT_RE.fullmatch(row[1]) for row in rows
    )
    if index_mode:
        n = 0
        keyed = []
        for row in rows:
            a, b = int(row[0]), int(row[1])
            if a < 1 or b < 1:
                raise FormatError("indices are 1-based, got %r %r" % (row[0], row[1]))
            n = max(n, a, b)
            keyed.append(((a - 1, b - 1), row[2]))
        labels = _default_labels(n)
    else:
        order = {}
        keyed = []
        for row in rows:
            for lab in row[:2]:
                if lab not in order:
                    order[lab] = len(order)
            keyed.append(((order[row[0]], order[row[1]]), row[2]))
        labels = tuple(order)
        n = len(labels)
    seen = {}
    for (a, b), tok in keyed:
        value = _parse_value(tok)
        if a == b:
            if value != self_value:
                raise FormatError(
                    "self entry for %r must be %g" % (labels[a], self_value)
                )
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicatePair(
                "pair (%s, %s) stated twice" % (labels[key[0]], labels[key[1]])
            )
        seen[key] = value
    missing = condensed_size(n) - len(seen)
    if missing:
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in seen:
                    raise MissingPair(
                        "%d pair(s) absent, first is (%s, %s)"
                        % (missing, labels[i], labels[j])
                    )
    values = np.fromiter((seen[(i, j)] for i in range(n)
                          for j in range(i + 1, n)), np.float64)
    # rows of n tokens, as a square matrix would give them
    tokens = [row[2] for row in rows]
    inferred = _infer_precision(tokens[k:k + n]
                                for k in range(0, len(tokens), n))
    return labels, values, inferred


# ---- serialization ----

def serialize_matrix(matrix, fmt="square"):
    """Render a matrix back to text; the inverse of parse_matrix."""
    fmt = _normalize_format(fmt)
    if matrix.precision is None:
        fmt_value = repr
    else:
        fmt_value = lambda v: "%.*f" % (matrix.precision, v)
    n = matrix.n
    square = matrix.as_square()
    lines = []
    if fmt == "square":
        lines.append(" ".join(matrix.labels))
        for i in range(n):
            lines.append(" ".join(fmt_value(square[i][j]) for j in range(n)))
    elif fmt == "lower":
        lines.append(" ".join(matrix.labels))
        for i in range(n):
            lines.append(" ".join(fmt_value(square[i][j]) for j in range(i + 1)))
    elif fmt == "pairs":
        for i, j, v in matrix.pairs():
            lines.append("%d %d %s" % (i + 1, j + 1, fmt_value(v)))
    else:
        for i, j, v in matrix.pairs():
            lines.append(
                "%s %s %s" % (matrix.labels[i], matrix.labels[j], fmt_value(v))
            )
    return "\n".join(lines) + "\n"


# ---- transforms ----

def similarity_to_dissimilarity(matrix):
    """Map similarities s in [0, 1] to dissimilarities 1 - s.

    The subtraction happens in decimal space, so inputs written with a fixed
    number of decimals produce outputs exact at the same number of decimals,
    and applying the map twice restores the input bit for bit.

    A value k / 10**p on the grid of the matrix's precision p, with k below
    2**40, reads back from ``repr`` as exactly that decimal (no other
    decimal as short rounds to the same float), so 1 - v in decimal is
    (10**p - k) / 10**p, and one IEEE division rounds it as ``float`` rounds
    the Decimal. Those values are converted in one numpy pass; the rest go
    through ``Decimal`` one at a time.
    """
    sim = matrix.condensed
    bad = (sim < 0.0) | (sim > 1.0)
    if bad.any():
        raise OutOfRange("similarity %r outside [0, 1]"
                         % (float(sim[bad.argmax()]),))
    places = matrix.precision
    out, slow = np.empty_like(sim), np.ones(sim.shape, dtype=bool)
    # 10**places - k is an exact float while 10**places is below 2**53
    if places is not None and 10 ** places < 2 ** 53:
        scale = float(10 ** places)
        k = np.rint(sim * scale)
        slow = (k >= _EXACT_LIMIT) | (k / scale != sim)
        out = (scale - k) / scale
    one = Decimal(1)
    out[slow] = [float(one - Decimal(repr(v))) for v in sim[slow].tolist()]
    return ProximityMatrix(matrix.labels, out, matrix.precision,
                           KIND_FROM_SIMILARITY)


def round_to_precision(matrix, places):
    """Copy of the matrix with every value rounded to ``places`` decimals.

    Rounding is half away from zero and idempotent; the copy carries
    ``precision=places`` so later comparisons use the same granularity.
    """
    if places < 0:
        raise FormatError("precision must be >= 0")
    rounded = round_half_away_array(matrix.condensed, places)
    return ProximityMatrix(matrix.labels, rounded, places, matrix.kind)
