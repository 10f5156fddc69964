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
are reduced against that echelon, whose rows ``Echelon.reduce`` never
changes, so every target gets the solution a fresh elimination would give.
A column may be a ``Shifted`` view, a shifted copy of a row without the
keys in a given set; its row is built only when an elimination reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import filterfalse
from math import gcd, lcm
from typing import Callable, Container, Hashable, Iterable, Mapping

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


class Echelon:
    """Sparse tagged integer rows in echelon form, one per pivot column.

    ``lead`` picks a row's pivot among its columns; every other column of a
    pivot row comes after the pivot in that order.

    A value of ``pivots`` is a pivot row and its tags, or a *deferred* pair
    of a ``Shifted`` view and its unknown, which ``reduce`` builds into the
    view's row tagged ``{unknown: 1}`` on its first read and keeps in its
    place (threads reading it at once keep the same row).
    """

    def __init__(self, lead: Callable[[Iterable], Hashable] = min):
        self.lead = lead
        self.pivots: dict[Hashable, tuple] = {}

    def reduce(self, row: Row, tags: Row, full: bool = False):
        """Cancel pivot columns of the tagged row, cross-multiplying with
        their pivot rows, until its lead is no pivot column (with ``full``:
        until none of its columns is).  Returns the row, its tags and its
        lead.

        Row and tags are divided by their gcd after every elimination step,
        not on entry: every caller passes tags holding a 1 or an
        ``integer_scaled`` scale, which is coprime to its row, except
        ``rational_rank``, which reads only the rank."""
        pivots, lead = self.pivots, self.lead
        col = None
        while row:
            col = lead(row.keys() & pivots.keys() or row) if full else lead(row)
            pivot = pivots.get(col)
            if pivot is None:
                break
            prow, ptags = pivot
            if prow.__class__ is Shifted:  # deferred: built on its first read
                prow, ptags = pivots[col] = prow.row(), {ptags: 1}
            a, b = row[col], prow[col]
            row, tags = _reduce_gcd(_combine(b, row, a, prow), _combine(b, tags, a, ptags))
        return row, tags, col

    def add(self, row: Row, tags: Row, full: bool = False):
        """Reduce the tagged row and keep it as a pivot row unless it vanished."""
        row, tags, col = self.reduce(row, tags, full)
        if row:
            self.pivots[col] = (row, tags)
        return row, tags, col


class Shifted:
    """The row ``{shift + key: value}`` over ``keys`` (ascending) and
    ``values``, without the shifted keys in ``skip``, unbuilt: shifted
    copies of one row share its terms.  It iterates its kept keys in order,
    its length is their count; ``row`` builds it."""

    __slots__ = ("shift", "keys", "values", "skip")

    def __init__(self, shift: int, keys: tuple, values: tuple, skip: Container):
        self.shift, self.keys, self.values, self.skip = shift, keys, values, skip

    def __iter__(self):
        return filterfalse(self.skip.__contains__, map(self.shift.__add__, self.keys))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def row(self) -> Row:
        skip = self.skip
        shifted = zip(map(self.shift.__add__, self.keys), self.values)
        return {key: value for key, value in shifted if key not in skip}


class Columns(list):
    """``(column, unknown)`` pairs of a linear system, integer columns with
    any unknown but None.  ``echelon`` inserts them in list order, each
    tagged with its unknown, the first time it is read, and is kept; the
    list must not change after that.  A column in the span of earlier ones
    adds no pivot, so leaving it out gives the same echelon; its unknown
    is 0 in every solution either way.

    A ``Shifted`` view whose first key is no pivot yet would be stored as
    it is, so it is kept as a deferred pivot (see ``Echelon``) and built on
    its first read; any other view is built and inserted, and a view with no
    keys adds nothing.  The rows and tags, once built, are those of the
    built columns."""

    @cached_property
    def echelon(self) -> Echelon:
        echelon = Echelon()
        pivots = echelon.pivots
        for entry in self:
            column, unknown = entry
            if column.__class__ is Shifted:
                lead = next(iter(column), None)
                if lead is None:
                    continue  # no key: no pivot
                if lead not in pivots:
                    pivots[lead] = entry
                    continue
                column = column.row()
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

    def add(
        self, terms: Mapping[Exponents, Fraction], key: Hashable = None
    ) -> dict[Exponents, Fraction]:
        """Insert, tagged `key`, and return its residual over the span before
        it; a polynomial already in the span (residual empty) adds no pivot."""
        key, self._added = self._added if key is None else key, self._added + 1
        scale, row = integer_scaled(terms)
        # The reduced row is tags[key] * terms less its combination of the span.
        row, tags, _ = self._echelon.add(row, {key: scale}, full=True)
        return {m: Fraction(v, tags[key]) for m, v in row.items()}
