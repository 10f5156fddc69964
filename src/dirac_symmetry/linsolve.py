"""Exact linear algebra over Q on one sparse, fraction-free echelon.

Rows are integer dictionaries that carry integer *tags*, which record the
inputs a row combines: a row is always ``sum_i tags[i] * input_i``.  An
elimination step cross-multiplies a row with a pivot row, tags included,
and divides out their gcd.  ``integer_scaled`` is the one rule that turns
rational rows into integer ones.  The caller picks the pivot order: the
smallest key for ``solve_sparse`` and ``rational_rank``, the graded-lex
leading monomial for ``RationalSpan``.  No result depends on how
elimination proceeds: a solution depends only on the order of the columns,
a residual only on the pivot order, and a rank on neither.  The tags a
query keeps after ``RationalSpan`` reduced it are its coordinates.

``solve_sparse`` takes its columns as ``Columns``, a list that keeps the
echelon of its columns once the first solve has built it; later targets
are reduced against that echelon, which ``Echelon.reduce`` never changes,
so every target gets the solution a fresh elimination would give.  Unit
columns that come first in the list need not be stored: an echelon can
take an *implicit* pivot lookup that returns, on demand, the pivot row and
tags such a column would have added.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping

from .phase import Exponents, _grlex_key

Row = dict[Hashable, int]


def integer_scaled(terms: Mapping[Hashable, Fraction]) -> tuple[int, Row]:
    """(s, s * terms) with s the lcm of the denominators, so that s * terms
    has integer values; zero values are dropped."""
    scale = lcm(*(c.denominator for c in terms.values()))
    # c.numerator * (scale // c.denominator) is c * scale, without a Fraction
    return scale, {
        key: c.numerator * (scale // c.denominator) for key, c in terms.items() if c
    }


def _combine(b: int, row: Row, a: int, other: Row) -> Row:
    """b * row - a * other, without zero entries."""
    updated = {c: b * v for c, v in row.items()}
    for c, v in other.items():
        nv = updated.get(c, 0) - a * v
        if nv:
            updated[c] = nv
        else:
            updated.pop(c, None)
    return updated


def _reduce_gcd(row: Row, tags: Row) -> tuple[Row, Row]:
    common = gcd(*tags.values(), *row.values())
    if common > 1:
        row = {c: v // common for c, v in row.items()}
        tags = {c: v // common for c, v in tags.items()}
    return row, tags


Pivot = tuple[Row, Row]


class Echelon:
    """Sparse tagged integer rows in echelon form, one per pivot column.

    ``lead`` picks a row's pivot among its columns; every other column of a
    pivot row comes after the pivot in that order.

    ``implicit``, when given, maps a column that ``pivots`` lacks to the
    pivot row and tags kept for it elsewhere, or to None; ``reduce``
    consults it only after ``pivots`` misses.  Such pivots serve the
    default ``full=False`` path only: ``full`` looks for pivot columns among
    the keys of ``pivots``.
    """

    def __init__(
        self,
        lead: Callable[[Iterable], Hashable] = min,
        implicit: Callable[[Hashable], Pivot | None] | None = None,
    ):
        self.lead = lead
        self.implicit = implicit
        self.pivots: dict[Hashable, Pivot] = {}

    def reduce(self, row: Row, tags: Row, full: bool = False):
        """Cancel pivot columns of the tagged row, cross-multiplying with
        their pivot rows, until its lead is no pivot column (with ``full``:
        until none of its columns is).  Returns the row, its tags and its
        lead.

        Row and tags are divided by their gcd after every elimination step,
        not on entry: every caller passes tags holding a 1 or an
        ``integer_scaled`` scale, which is coprime to its row, except
        ``rational_rank``, which reads only the rank."""
        pivots, lead, implicit = self.pivots, self.lead, self.implicit
        col = None
        while row:
            col = lead(row.keys() & pivots.keys() or row) if full else lead(row)
            pivot = pivots.get(col)
            if pivot is None and (implicit is None or (pivot := implicit(col)) is None):
                break
            prow, ptags = pivot
            a, b = row[col], prow[col]
            row, tags = _reduce_gcd(_combine(b, row, a, prow), _combine(b, tags, a, ptags))
        return row, tags, col

    def add(self, row: Row, tags: Row, full: bool = False):
        """Reduce the tagged row and keep it as a pivot row unless it vanished."""
        row, tags, col = self.reduce(row, tags, full)
        if row:
            self.pivots[col] = (row, tags)
        return row, tags, col


class Columns(list):
    """``(column, unknown)`` pairs of a linear system, integer columns with
    any unknown but None.  ``echelon`` inserts them in list order, each
    tagged with its unknown, the first time it is read, and is kept; the
    list must not change after that.  A column in the span of earlier ones
    adds no pivot, so leaving it out gives the same echelon; its unknown
    is 0 in every solution either way.

    ``implicit`` is handed to the echelon (see ``Echelon``): the pivots of
    columns that would come before every listed one and are not stored."""

    def __init__(self, columns: Iterable = (), implicit: Callable | None = None):
        super().__init__(columns)
        self.implicit = implicit

    @cached_property
    def echelon(self) -> Echelon:
        echelon = Echelon(implicit=self.implicit)
        for column, unknown in self:
            echelon.add(column, {unknown: 1})
        return echelon


def solve_sparse(
    columns: Iterable[tuple[Row, Hashable]], target: Row
) -> dict[Hashable, Fraction] | None:
    """One exact solution x of ``sum_j x_j * column_j = target``, or None.

    The columns are inserted in the order given (see ``Columns``, which any
    other iterable is wrapped in); a column in the span of earlier ones
    reduces to zero, and its unknown is 0.  The target, tagged None, reduces
    to zero exactly when it is in the span, and then
    ``tags[None] * target + sum_j tags[j] * column_j = 0``.  Only nonzero
    components are listed.
    """
    if not isinstance(columns, Columns):
        columns = Columns(columns)
    residual, tags, _ = columns.echelon.reduce(target, {None: 1})
    if residual:
        return None
    scale = tags.pop(None)
    return {unknown: Fraction(-t, scale) for unknown, t in tags.items()}


def rational_rank(rows: Iterable[Mapping]) -> int:
    """Rank over Q of sparse rows (mappings from orderable keys to rationals).
    An empty row adds no pivot and is skipped."""
    echelon = Echelon()
    for row in rows:
        if row:
            echelon.add(integer_scaled(row)[1], {})
    return len(echelon.pivots)


_grlex_lead = partial(max, key=_grlex_key)


class RationalSpan:
    """Rational span of a set of polynomials, pivoting on graded-lex leads.

    A polynomial added is tagged with the caller's key, or by default its
    insertion position; a query is tagged None, which no pivot carries.
    Residuals are reduced on every pivot, so each is the canonical
    (pivot-free) representative of its coset, independent of insertion
    order.
    """

    def __init__(self):
        self._echelon = Echelon(_grlex_lead)
        self._added = 0

    def __len__(self) -> int:
        return len(self._echelon.pivots)

    def split(self, terms: Mapping[Exponents, Fraction]) -> tuple[dict, dict]:
        """(residual, coordinates): terms = residual + sum of coordinates[key]
        * (polynomial added as key), over the nonzero coordinates."""
        # The row is always tags[None] * terms + sum of tags[key] * added[key].
        scale, row = integer_scaled(terms)
        row, tags, _ = self._echelon.reduce(row, {None: scale}, full=True)
        scale = tags.pop(None)
        residual = {m: Fraction(v, scale) for m, v in row.items()}
        return residual, {key: Fraction(-t, scale) for key, t in tags.items()}

    def reduce(self, terms: Mapping[Exponents, Fraction]) -> dict[Exponents, Fraction]:
        return self.split(terms)[0]

    def add(self, terms: Mapping[Exponents, Fraction], key: Hashable = None) -> None:
        """Insert, tagged `key`; a polynomial already in the span adds no pivot."""
        key, self._added = self._added if key is None else key, self._added + 1
        scale, row = integer_scaled(terms)
        self._echelon.add(row, {key: scale}, full=True)
