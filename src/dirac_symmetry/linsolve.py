"""Exact linear algebra over Q on one sparse, fraction-free echelon.

Rows are integer dictionaries with an integer right-hand side; an
elimination step cross-multiplies a row with a pivot row and divides out the
gcd.  ``solve_sparse`` takes integer rows as they are (membership builds its
Macaulay systems in integers); ``rational_rank`` and ``RationalSpan`` scale
rational rows to integers on entry.  The caller picks the pivot order:
column order (``min``) for ``solve_sparse`` and ``rational_rank``, the
graded-lex-leading monomial for ``RationalSpan``.  Results depend only on
that order, never on how elimination proceeds: the solution with free
unknowns pinned to zero, the rank and the pivot-free residual are
invariants of the row space.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping

from .phase import Exponents, _grlex_key

Row = dict[Hashable, int]


def _integerize(equation: Mapping, rhs: Fraction = 0) -> tuple[Row, int]:
    scale = lcm(rhs.denominator, *(c.denominator for c in equation.values()))
    # c.numerator * (scale // c.denominator) is c * scale, without a Fraction
    row = {
        col: c.numerator * (scale // c.denominator) for col, c in equation.items() if c
    }
    return _reduce_gcd(row, rhs.numerator * (scale // rhs.denominator))


def _reduce_gcd(row: Row, rhs: int) -> tuple[Row, int]:
    common = abs(rhs)
    for value in row.values():
        common = gcd(common, value)
        if common == 1:
            return row, rhs
    if common > 1:
        row = {col: value // common for col, value in row.items()}
        rhs //= common
    return row, rhs


class Echelon:
    """Sparse integer rows in echelon form, one per pivot column.

    ``lead`` picks a row's pivot among its columns; every other column of a
    pivot row comes after the pivot in that order.
    """

    def __init__(self, lead: Callable[[Iterable], Hashable] = min):
        self.lead = lead
        self.pivots: dict[Hashable, tuple[Row, int]] = {}

    def reduce(self, row: Row, rhs: int = 0, full: bool = False):
        """Cancel pivot columns of (row, rhs), cross-multiplying with their
        pivot rows, until its lead is no pivot column (with ``full``: until
        none of its columns is).  Returns the row, its rhs and its lead."""
        pivots, lead = self.pivots, self.lead
        col = None
        while row:
            col = lead(row.keys() & pivots.keys() or row) if full else lead(row)
            pivot = pivots.get(col)
            if pivot is None:
                break
            prow, prhs = pivot
            a = row[col]
            b = prow[col]
            updated: Row = {c: b * v for c, v in row.items()}
            for c, v in prow.items():
                nv = updated.get(c, 0) - a * v
                if nv:
                    updated[c] = nv
                else:
                    updated.pop(c, None)
            row, rhs = _reduce_gcd(updated, b * rhs - a * prhs)
        return row, rhs, col

    def add(self, row: Row, rhs: int = 0, full: bool = False):
        """Reduce (row, rhs) and keep it as a pivot row unless it vanished."""
        row, rhs, col = self.reduce(row, rhs, full)
        if row:
            self.pivots[col] = (row, rhs)
        return row, rhs, col


def solve_sparse(equations: Iterable[tuple[Row, int]]) -> dict[int, Fraction] | None:
    """One exact solution of the sparse integer system, or None if inconsistent.

    Each equation is a row of nonzero integer coefficients keyed by unknown
    and an integer right-hand side; a system with rational coefficients is
    scaled to integers by the caller.  Free (non-pivot) unknowns are pinned
    to zero; the returned mapping only lists nonzero components, which may
    be non-integral.
    """
    echelon = Echelon()
    for equation, rhs in equations:
        row, r, _ = echelon.add(*_reduce_gcd(equation, rhs))
        if not row and r:
            return None
    solution: dict[int, Fraction] = {}
    for col in sorted(echelon.pivots, reverse=True):
        row, rhs = echelon.pivots[col]
        total = Fraction(rhs)
        for c, v in row.items():
            if c != col:
                x = solution.get(c)
                if x:
                    total -= v * x
        value = total / row[col]
        if value:
            solution[col] = value
    return solution


def rational_rank(rows: Iterable[Mapping]) -> int:
    """Rank over Q of sparse rows (mappings from orderable keys to rationals)."""
    echelon = Echelon()
    for row in rows:
        echelon.add(*_integerize(row))
    return len(echelon.pivots)


_grlex_lead = partial(max, key=_grlex_key)


class RationalSpan:
    """Rational span of a set of polynomials, pivoting on graded-lex leads.

    Residuals are reduced on every pivot, so each is the canonical
    (pivot-free) representative of its coset, independent of insertion
    order.
    """

    def __init__(self):
        self._echelon = Echelon(_grlex_lead)

    def __len__(self) -> int:
        return len(self._echelon.pivots)

    def reduce(self, terms: Mapping[Exponents, Fraction]) -> dict[Exponents, Fraction]:
        # The right-hand side starts at 1 and carries the scale of the row.
        row, scale, _ = self._echelon.reduce(*_integerize(terms, Fraction(1)), full=True)
        return {m: Fraction(v, scale) for m, v in row.items()}

    def add(self, terms: Mapping[Exponents, Fraction]) -> dict[Exponents, Fraction] | None:
        """Insert; returns the residual with leading coefficient 1, or None if dependent."""
        row, _, lead = self._echelon.add(*_integerize(terms), full=True)
        if not row:
            return None
        return {m: Fraction(v, row[lead]) for m, v in row.items()}
