"""Fixed pure-Python reference computation used to normalise CPU times.

On a shared machine the same deterministic call varies by 10-25% in CPU
time from one process to the next, because the processor's effective speed
changes with its neighbours.  The reference does the same kind of work the
program lives on -- sparse dicts keyed by exponent tuples with ``Fraction``
values, and exact row elimination -- and calls no program code, so an
operation's CPU time divided by the reference's CPU time measured around it
cancels most of that drift.  Its inputs are fixed; its result is checked so
that a run that skipped work is caught.
"""

from __future__ import annotations

import time
from fractions import Fraction

_N_VARS = 5
_N_TERMS = 30


def _polynomial(offset: int) -> dict[tuple[int, ...], Fraction]:
    terms: dict[tuple[int, ...], Fraction] = {}
    for t in range(_N_TERMS):
        exps = tuple((t * (i + 3) + offset * (i + 1)) % 3 for i in range(_N_VARS))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(t + 1 + offset, 2 * t + 3)
    return terms


def _product(a, b):
    out: dict[tuple[int, ...], Fraction] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            value = out.get(key, Fraction(0)) + c1 * c2
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


def _rank(rows) -> int:
    pivots: dict = {}
    for source in rows:
        row = dict(source)
        while row:
            key = min(row)
            pivot = pivots.get(key)
            if pivot is None:
                pivots[key] = row
                break
            factor = row[key] / pivot[key]
            for k, v in pivot.items():
                nv = row.get(k, Fraction(0)) - factor * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def reference_work() -> int:
    """One fixed unit of reference work; returns a checksum of its result."""
    products = [_product(_polynomial(i), _polynomial(i + 1)) for i in range(40)]
    rank = _rank(products)
    checksum = rank
    for poly in products:
        for value in poly.values():
            checksum = (checksum * 31 + value.numerator % 1009 + value.denominator % 997) % 1_000_003
    return checksum


EXPECTED_CHECKSUM = 199296
# CPU seconds of one reference run on the machine the benchmark was sized on
# (README); turns a normalised set-up time back into seconds.
REFERENCE_SECONDS = 0.025


def timed_reference() -> float:
    """CPU seconds of one reference run; raises if the result is wrong."""
    start = time.process_time()
    checksum = reference_work()
    elapsed = time.process_time() - start
    if checksum != EXPECTED_CHECKSUM:
        raise RuntimeError("reference computation returned a wrong checksum")
    return elapsed
