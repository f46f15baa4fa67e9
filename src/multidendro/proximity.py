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
from dataclasses import dataclass, replace
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


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


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
    return len(token.split(".", 1)[1])


def _infer_precision(tokens):
    # a matrix repeats few distinct tokens when its values are coarse, so
    # each is counted once; an exponent token still ends the scan at once
    best = 0
    seen = set()
    for tok in tokens:
        if tok in seen:
            continue
        seen.add(tok)
        d = _token_decimals(tok)
        if d is None:
            return None
        best = max(best, d)
    return best


def round_half_away(value, places):
    """Round a float to ``places`` decimals, ties away from zero."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


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


def condensed_index(n, i, j):
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class ProximityMatrix:
    """Immutable symmetric dissimilarities over labeled individuals.

    Parameters
    ----------
    labels : tuple of str
        Distinct names, one per individual, in input order.
    values : tuple of float
        Condensed upper triangle, row major: d(0,1), d(0,2), ..., d(n-2,n-1).
    precision : int or None
        Decimals used for tie comparison; None compares raw values.
    kind : str
        Where the values came from, KIND_DISTANCE or KIND_FROM_SIMILARITY.
    """

    labels: tuple
    values: tuple
    precision: "int | None" = None
    kind: str = KIND_DISTANCE

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        values = tuple(map(float, self.values))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        if len(set(labels)) != len(labels):
            seen = set()
            for lab in labels:
                if lab in seen:
                    raise DuplicateLabel("label %r appears twice" % (lab,))
                seen.add(lab)
        n = len(labels)
        if len(values) != condensed_size(n):
            raise FormatError(
                "expected %d condensed values for %d labels, got %d"
                % (condensed_size(n), n, len(values))
            )
        arr = np.array(values, dtype=np.float64)
        bad = ~np.isfinite(arr) | (arr < 0.0)
        if bad.any():
            v = values[int(bad.argmax())]
            if not math.isfinite(v):
                raise FormatError("distances must be finite, got %r" % (v,))
            raise NegativeValue("negative dissimilarity %r" % (v,))
        zero_pairs = int(np.count_nonzero(arr == 0.0))
        if zero_pairs:
            # a written "-0" reads as -0.0, which passes the sign check but
            # would print as "-0.000" and order unpredictably against 0.0
            values = tuple(0.0 if v == 0.0 else v for v in values)
            object.__setattr__(self, "values", values)
            warnings.warn(
                "%d distinct pair(s) at distance zero" % zero_pairs,
                ZeroDistanceWarning,
                stacklevel=2,
            )
        if self.precision is not None and self.precision < 0:
            raise FormatError("precision must be >= 0")
        if self.kind not in (KIND_DISTANCE, KIND_FROM_SIMILARITY):
            raise FormatError("unknown matrix kind %r" % (self.kind,))

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
        return self.values[condensed_index(self.n, i, j)]

    def pairs(self):
        """Yield (i, j, value) over the upper triangle, row major."""
        n = self.n
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                yield i, j, self.values[k]
                k += 1

    def as_square(self):
        n = self.n
        out = [[0.0] * n for _ in range(n)]
        for i, j, v in self.pairs():
            out[i][j] = v
            out[j][i] = v
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


def _pop_header(rows):
    if rows and not _is_number(rows[0][0]):
        return rows[0], rows[1:]
    return None, rows


def _to_floats(rows, count):
    # every token through float(), so "1_0", "nan" and "1e400" read as they
    # do one at a time; None when a row is short or a token is no number
    try:
        return np.fromiter(map(float, chain.from_iterable(rows)), np.float64,
                           count)
    except ValueError:
        return None


def _parse_square(text, self_value=0.0):
    rows = _split_rows(text)
    header, rows = _pop_header(rows)
    n = len(rows)
    if n == 0:
        raise FormatError("square input has a header but no rows")
    if header is not None and len(header) != n:
        raise FormatError(
            "header names %d individuals but there are %d rows" % (len(header), n)
        )
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
    values = tuple(grid[np.triu_indices(n, 1)].tolist())
    labels = tuple(header) if header is not None else _default_labels(n)
    inferred = _infer_precision(chain.from_iterable(rows))
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
    rows = _split_rows(text)
    header, rows = _pop_header(rows)
    n = len(rows)
    if header is not None and len(header) != n:
        raise FormatError(
            "header names %d individuals but there are %d rows" % (len(header), n)
        )
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
    lower[np.tril_indices(n)] = flat
    i, j = np.triu_indices(n, 1)
    values = tuple(lower[j, i].tolist())
    labels = tuple(header) if header is not None else _default_labels(n)
    inferred = _infer_precision(chain.from_iterable(rows))
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
    values = tuple(seen[(i, j)] for i in range(n) for j in range(i + 1, n))
    inferred = _infer_precision([row[2] for row in rows])
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
    """
    one = Decimal(1)
    out = []
    for v in matrix.values:
        if v < 0.0 or v > 1.0:
            raise OutOfRange("similarity %r outside [0, 1]" % (v,))
        out.append(float(one - Decimal(repr(v))))
    return replace(matrix, values=tuple(out), kind=KIND_FROM_SIMILARITY)


def round_to_precision(matrix, places):
    """Copy of the matrix with every value rounded to ``places`` decimals.

    Rounding is half away from zero and idempotent; the copy carries
    ``precision=places`` so later comparisons use the same granularity.
    """
    if places < 0:
        raise FormatError("precision must be >= 0")
    rounded = tuple(round_half_away_array(matrix.values, places).tolist())
    return replace(matrix, values=rounded, precision=places)
