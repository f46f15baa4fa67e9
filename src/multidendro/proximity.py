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

Square text goes to numpy's C reader one line at a time; it converts each
token with the routine ``float`` uses, to the same bits. Text that reader
refuses, and all lower-triangle text, is read one line at a time into a
preallocated array, a row's tokens converted with ``float`` and dropped,
so neither builds a list of every token. One rule finds the header line
(``_header``) and one the written precision (``_precision``). The diagonal
and symmetry are checked on the resulting array, and ``ProximityMatrix``
checks its values in one numpy pass too. When anything fails, the error
raised is the one a row-by-row reading meets first.
"""

from __future__ import annotations

import math
import re
import warnings
from decimal import Decimal, ROUND_HALF_UP

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
# "\d" takes every digit float() reads, not only the ASCII ones
_DECIMALS_RE = re.compile(r"\.([\d_]*)")
_TOKEN_RE = re.compile(r"\S+")
# the line breaks of str.splitlines other than "\n" and "\r", which numpy's
# reader does not break lines on; it reads "\r\n" as "\n", but not a lone "\r"
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# tolerance for symmetry and diagonal checks on parsed text
_SYM_TOL = 1e-12
# the largest value parse_matrix accepts: stored distances stay within 4n
# times it, and an update sums at most n**2 of them times at most 2n**2, so
# below 2**20 individuals (an 8 TiB matrix) nothing nears 2**1024
MAX_VALUE = 2.0 ** 900


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


def tie_edge(value, places):
    """``round_half_away(value, places)`` (``value`` if ``places`` is None)
    and the smallest float that rounds above it; rounding is monotone, so
    the floats from ``value`` up to that edge tie with it."""
    if places is None:
        return value, math.nextafter(value, math.inf)
    scale = float(10 ** min(places, _EXACT_PLACES))
    if places <= _EXACT_PLACES and 0 <= value < (_EXACT_LIMIT - 1) / scale:
        # round_half_away_array's bounds at t - 0.5 and t + 0.5 quanta
        t = math.floor(value * scale + 0.5)
        t += (value >= (t + 0.5) / scale) - (value < (t - 0.5) / scale)
        return math.copysign(t / scale, value), (t + 0.5) / scale
    # a few floats off the edge, then onto it one float at a time
    key = round_half_away(value, places)
    edge = key + 0.5 * 10.0 ** -places
    while round_half_away(math.nextafter(edge, -math.inf), places) > key:
        edge = math.nextafter(edge, -math.inf)
    while round_half_away(edge, places) <= key:
        edge = math.nextafter(edge, math.inf)
    return key, edge


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
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError("index out of range for %d labels" % (self.n,))
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
    similarity_to_dissimilarity before clustering. A value above
    ``MAX_VALUE`` raises OutOfRange once the matrix is built.
    """
    fmt = _normalize_format(fmt)
    # a byte-order mark some editors write is no part of the first token
    if text.startswith("\ufeff"):
        text = text[1:]
    self_value = 1.0 if similarity else 0.0
    if fmt in ("square", "lower"):
        labels, values, inferred = _parse_grid(text, fmt, self_value)
    else:
        labels, values, inferred = _parse_pairs(
            text, labeled=(fmt == "labeled-pairs"), self_value=self_value)
    if precision == "infer":
        precision = inferred
    with warnings.catch_warnings():
        if similarity:
            warnings.simplefilter("ignore", ZeroDistanceWarning)
        matrix = ProximityMatrix(labels, values, precision=precision)
    big = matrix.condensed[matrix.condensed > MAX_VALUE]
    if big.size:
        raise OutOfRange("value %r is above 2**900, the largest accepted"
                         % (float(big[0]),))
    return matrix


def _split_rows(text):
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise FormatError("empty matrix text")
    return rows


def _default_labels(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def _header(text):
    """The header labels, or None, and the offset of the first row.

    The first non-blank line is a header when ``float`` refuses its first
    token; the first row then starts after that line's break.
    """
    first = _TOKEN_RE.search(text)
    if first is None:
        return None, 0
    try:
        float(first.group())
        return None, 0
    except ValueError:
        pass
    # the line up to "\n" holds the header line up to any other break
    stop = text.find("\n", first.start()) + 1 or len(text)
    line = text[first.start():stop].splitlines(True)[0]
    return line.split(), first.start() + len(line)


def _precision(text, start=0):
    """The decimals written in ``text`` from ``start`` on, which holds only
    number tokens: None when any may have an exponent, else the longest
    run after a point, "_" (a digit separator) left out."""
    if text.find("e", start) >= 0 or text.find("E", start) >= 0:
        return None
    # only a run longer than the best so far can raise it, so each search
    # passes over the shorter ones without making a match of each
    best = 0
    while True:
        longer = re.compile(r"\.[\d_]{%d}" % (best + 1)).search(text, start)
        if longer is None:
            return best
        run = _DECIMALS_RE.match(text, longer.start())
        best = max(best, len(run.group(1).replace("_", "")))
        start = run.end()


def _lines(text, start, split=False):
    # the lines from offset start on, each with its line break: "\n"-
    # terminated slices found one at a time, so the text is never split
    # whole; with ``split`` each is cut at any other break of
    # str.splitlines it holds, to give that method's lines
    end = len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        if split:
            yield from text[start:stop].splitlines(True)
        else:
            yield text[start:stop]
        start = stop


def _read_square(text):
    """(labels, n x n grid, precision) from numpy's reader, or None to
    leave the text to _read_rows, which also words every error."""
    if (any(brk in text for brk in _OTHER_BREAKS)
            or text.count("\r") != text.count("\r\n")):
        return None
    header, start = _header(text)
    # no rows: _read_rows raises, and loadtxt would warn
    if not _TOKEN_RE.search(text, start):
        return None
    try:
        grid = np.loadtxt(_lines(text, start), dtype=np.float64,
                          comments=None, ndmin=2)
    except ValueError:
        return None
    n = len(grid)
    if grid.shape != (n, n) or (header is not None and len(header) != n):
        return None
    labels = _default_labels(n) if header is None else tuple(header)
    return labels, grid, _precision(text, start)


def _read_rows(text, fmt, self_value):
    """(labels, n x n grid, precision) read one line at a time.

    Lower-triangle text fills the grid's lower triangle and diagonal. Each
    row's length, then its tokens, then (lower-triangle) its diagonal
    entry are checked before the next row is read, so the error raised
    is the first in row order.
    """
    lower = fmt == "lower"
    header, start = _header(text)
    n = sum(not line.isspace() for line in _lines(text, start, split=True))
    if not n:
        raise FormatError("empty matrix text" if header is None else
                          "%s input has a header but no rows"
                          % ("lower-triangle" if lower else "square",))
    if header is not None and len(header) != n:
        raise FormatError("header names %d individuals but there are %d rows"
                          % (len(header), n))
    grid = np.zeros((n, n))
    r = 0
    for line in _lines(text, start, split=True):
        row = line.split()
        if not row:
            continue
        width = r + 1 if lower else n
        if len(row) != width:
            raise FormatError("%s %d has %d entries, expected %d" % (
                "lower-triangle row" if lower else "row", r + 1, len(row),
                width))
        try:
            values = list(map(float, row))
        except ValueError:
            # raises for the first token float refuses
            values = list(map(_parse_value, row))
        if lower and not abs(values[r] - self_value) <= _SYM_TOL:
            raise FormatError(
                "diagonal entry on row %d must be %g" % (r + 1, self_value))
        grid[r, :width] = values
        r += 1
    labels = _default_labels(n) if header is None else tuple(header)
    return labels, grid, _precision(text, start)


def _parse_grid(text, fmt, self_value):
    # square or lower-triangle text: (labels, condensed values, precision)
    if fmt == "square":
        labels, grid, inferred = (_read_square(text)
                                  or _read_rows(text, fmt, self_value))
        _check_square(grid, self_value)
    else:
        labels, grid, inferred = _read_rows(text, fmt, self_value)
        # the lower triangle by columns is the condensed upper triangle
        grid = grid.T
    return labels, grid[~np.tri(len(grid), dtype=bool)], inferred


def _check_square(grid, self_value):
    # the first failure in row order, a row's diagonal before its pairs
    n = len(grid)
    with np.errstate(invalid="ignore", over="ignore"):
        # written so that a NaN self entry fails too
        bad_diag = ~(np.abs(grid.diagonal() - self_value) <= _SYM_TOL)
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
            if not abs(value - self_value) <= _SYM_TOL:
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
    inferred = _precision(" ".join(row[2] for row in rows))
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
