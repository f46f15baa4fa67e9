"""Reference implementations that only the tests use.

Each one is the plain, element-by-element form of something the package
does in bulk, kept so that tests can check the fast path against it.
"""

from __future__ import annotations

import math

from multidendro.errors import (
    AsymmetricInput,
    DuplicateLabel,
    FormatError,
    NegativeValue,
)
from multidendro.proximity import (
    _SYM_TOL,
    _default_labels,
    _infer_precision,
    _parse_value,
    _pop_header,
    _split_rows,
)


def parse_square_scalar(text, self_value=0.0):
    """Square text read token by token: (labels, values, inferred precision).

    Raises the first error a row-by-row reading meets: header length, then
    each row's length and tokens in order, then per row its diagonal entry
    and its asymmetric pairs.
    """
    rows = _split_rows(text)
    header, rows = _pop_header(rows)
    n = len(rows)
    if n == 0:
        raise FormatError("square input has a header but no rows")
    if header is not None and len(header) != n:
        raise FormatError(
            "header names %d individuals but there are %d rows" % (len(header), n)
        )
    grid = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise FormatError("row %d has %d entries, expected %d" % (r + 1, len(row), n))
        grid.append([_parse_value(tok) for tok in row])
    for i in range(n):
        if abs(grid[i][i] - self_value) > _SYM_TOL:
            raise FormatError(
                "diagonal entry (%d,%d) must be %g" % (i + 1, i + 1, self_value)
            )
        for j in range(i + 1, n):
            if abs(grid[i][j] - grid[j][i]) > _SYM_TOL:
                raise AsymmetricInput(
                    "entry (%d,%d)=%r disagrees with (%d,%d)=%r"
                    % (i + 1, j + 1, grid[i][j], j + 1, i + 1, grid[j][i])
                )
    values = tuple(grid[i][j] for i in range(n) for j in range(i + 1, n))
    labels = tuple(header) if header is not None else _default_labels(n)
    inferred = _infer_precision([tok for row in rows for tok in row])
    return labels, values, inferred


def parse_lower_scalar(text, self_value=0.0):
    """Lower-triangle text read token by token, checking each row's
    length, tokens and diagonal entry before the next row."""
    rows = _split_rows(text)
    header, rows = _pop_header(rows)
    n = len(rows)
    if header is not None and len(header) != n:
        raise FormatError(
            "header names %d individuals but there are %d rows" % (len(header), n)
        )
    grid = {}
    for r, row in enumerate(rows):
        if len(row) != r + 1:
            raise FormatError(
                "lower-triangle row %d has %d entries, expected %d"
                % (r + 1, len(row), r + 1)
            )
        vals = [_parse_value(tok) for tok in row]
        if abs(vals[r] - self_value) > _SYM_TOL:
            raise FormatError(
                "diagonal entry on row %d must be %g" % (r + 1, self_value)
            )
        for c in range(r):
            grid[(c, r)] = vals[c]
    values = tuple(grid[(i, j)] for i in range(n) for j in range(i + 1, n))
    labels = tuple(header) if header is not None else _default_labels(n)
    inferred = _infer_precision([tok for row in rows for tok in row])
    return labels, values, inferred


def check_values_scalar(labels, values):
    """ProximityMatrix's label and value checks, one value at a time.

    Returns the stored values (a written -0 as 0.0) and the number of pairs
    at distance zero.
    """
    labels = tuple(str(x) for x in labels)
    values = tuple(float(v) for v in values)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel("label %r appears twice" % (lab,))
        seen.add(lab)
    zero_pairs = 0
    for v in values:
        if not math.isfinite(v):
            raise FormatError("distances must be finite, got %r" % (v,))
        if v < 0.0:
            raise NegativeValue("negative dissimilarity %r" % (v,))
        if v == 0.0:
            zero_pairs += 1
    if zero_pairs:
        values = tuple(0.0 if v == 0.0 else v for v in values)
    return values, zero_pairs
