"""Bounded-degree membership in the module generated by constraint polynomials.

``decompose`` searches for coefficient polynomials f_k with
``target = sum_k f_k * generators[k]`` by equating coefficients on the
monomial basis and solving the resulting exact rational linear system.  The
search runs degree by degree, so the certificate it returns has coefficients
of the smallest achievable maximum degree, and a negative answer is always
qualified by the bound: it means "not representable within degree d", never
absolute non-membership.  A search whose systems would have more than
``MAX_UNKNOWNS`` unknowns in all is refused with ``SearchTooLargeError``
before the degree that passes the cap is built, so no search runs without
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Sequence

from .errors import SearchTooLargeError
from .linsolve import solve_sparse
from .phase import Exponents, PhasePolynomial, PhaseSpace


# Unknowns (coefficient monomials x generators), summed over the degrees a
# search tries, beyond which it is refused.  The sum, not the largest single
# system, bounds the work: with one identifier each degree adds only one
# monomial, and a ladder towards a degree bound of a million would run for
# hours.  The largest search of the benchmark workloads has 4845 unknowns in
# all (880 in the test suite).
MAX_UNKNOWNS = 50_000


class CoefficientMode(Enum):
    """Coefficient class admitted in a decomposition."""

    CONSTANT = "constant"
    POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class IdealDecomposition:
    """Certificate that ``target = sum_k coefficients[k] * generators[k]``."""

    target: PhasePolynomial
    generators: tuple[PhasePolynomial, ...]
    coefficients: tuple[PhasePolynomial, ...]
    degree_bound: int

    def expand(self) -> PhasePolynomial:
        total = PhasePolynomial.zero(self.target.space)
        for coeff, gen in zip(self.coefficients, self.generators):
            total = total + coeff * gen
        return total

    def verify(self) -> bool:
        """Exact re-expansion check; certificates must always satisfy this."""
        if self.expand() != self.target:
            return False
        return all(
            c.total_degree() <= self.degree_bound for c in self.coefficients
        )

    def is_zero_certificate(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)


@dataclass(frozen=True)
class NotFound:
    """Negative decomposition result, conclusive only up to the degree bound."""

    degree_bound: int
    mode: CoefficientMode

    @property
    def message(self) -> str:
        if self.mode is CoefficientMode.CONSTANT:
            return "not representable with constant coefficients"
        return f"not representable within degree bound {self.degree_bound}"


def default_degree_bound(
    target: PhasePolynomial, generators: Sequence[PhasePolynomial]
) -> int:
    """deg(target) + max generator degree, floored at zero per part."""
    bound = max(target.total_degree(), 0)
    if generators:
        bound += max(max(g.total_degree(), 0) for g in generators)
    return bound


def _monomials_up_to(
    space: PhaseSpace, allowed: Sequence[int], degree: int
) -> list[Exponents]:
    """All exponent tuples supported on `allowed` with total degree <= degree,
    in ascending graded order."""
    n = space.n_identifiers
    monomials: list[Exponents] = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(allowed, d):
            exps = [0] * n
            for idx in combo:
                exps[idx] += 1
            monomials.append(tuple(exps))
    return monomials


def _try_degree(
    target: PhasePolynomial,
    generators: Sequence[PhasePolynomial],
    monomials: Sequence[Exponents],
) -> tuple[PhasePolynomial, ...] | None:
    space = target.space
    n_mons = len(monomials)
    rows: dict[Exponents, dict[int, Fraction]] = {}
    for k, gen in enumerate(generators):
        base = k * n_mons
        for mi, mon in enumerate(monomials):
            for gmon, gcoeff in gen.terms.items():
                prod = tuple(a + b for a, b in zip(mon, gmon))
                row = rows.setdefault(prod, {})
                row[base + mi] = row.get(base + mi, Fraction(0)) + gcoeff
    for mon in target.terms:
        rows.setdefault(mon, {})
    equations = [
        (rows[mon], target.coefficient(mon))
        for mon in sorted(rows, key=lambda m: (sum(m), m), reverse=True)
    ]
    solution = solve_sparse(equations)
    if solution is None:
        return None
    coefficients = []
    for k in range(len(generators)):
        base = k * n_mons
        terms = {}
        for mi, mon in enumerate(monomials):
            value = solution.get(base + mi)
            if value:
                terms[mon] = value
        coefficients.append(PhasePolynomial(space, terms))
    return tuple(coefficients)


def decompose(
    target: PhasePolynomial,
    generators: Sequence[PhasePolynomial],
    degree_bound: int | None = None,
    mode: CoefficientMode = CoefficientMode.POLYNOMIAL,
) -> IdealDecomposition | NotFound:
    """Express `target` over `generators` with bounded-degree coefficients.

    Degrees are tried incrementally from zero, so a success uses the smallest
    achievable coefficient degree and is therefore stable under enlarging the
    bound.  Coefficients may involve every declared identifier, parameters
    included, except in CONSTANT mode where they are plain rationals.
    """
    space = target.space
    generators = tuple(generators)
    for gen in generators:
        if gen.space != space:
            raise ValueError("generators must share the target's phase space")
    if mode is CoefficientMode.CONSTANT:
        degree_bound = 0
    elif degree_bound is None:
        degree_bound = default_degree_bound(target, generators)
    elif degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")

    if target.is_zero():
        zero = PhasePolynomial.zero(space)
        return IdealDecomposition(
            target, generators, tuple(zero for _ in generators), degree_bound
        )
    if not generators:
        return NotFound(degree_bound, mode)

    allowed: set[int] = set(target.used_indices())
    for gen in generators:
        allowed |= gen.used_indices()
    allowed_order = sorted(allowed)
    max_useful = degree_bound if allowed_order else 0
    unknowns = 0
    for degree in range(max_useful + 1):
        unknowns += comb(len(allowed_order) + degree, degree) * len(generators)
        if unknowns > MAX_UNKNOWNS:
            raise SearchTooLargeError(
                f"membership search up to coefficient degree {degree} would "
                f"solve for {unknowns} unknowns ({len(generators)} generators "
                f"over {len(allowed_order)} identifiers), above the limit of "
                f"{MAX_UNKNOWNS}; a smaller degree bound keeps it within the limit"
            )
        monomials = _monomials_up_to(space, allowed_order, degree)
        coefficients = _try_degree(target, generators, monomials)
        if coefficients is not None:
            result = IdealDecomposition(target, generators, coefficients, degree_bound)
            if not result.verify():  # soundness guard, must never trip
                raise RuntimeError(
                    "internal error: decomposition failed re-expansion check"
                )
            return result
    return NotFound(degree_bound, mode)


def weak_equals(
    f: PhasePolynomial,
    g: PhasePolynomial,
    ideal_generators: Sequence[PhasePolynomial],
    degree_bound: int | None = None,
    mode: CoefficientMode = CoefficientMode.POLYNOMIAL,
) -> tuple[bool, IdealDecomposition | NotFound]:
    """Equality modulo the module generated by `ideal_generators`.

    True iff f - g decomposes over the generators; the certificate (or the
    bounded negative report) is returned alongside.
    """
    outcome = decompose(f - g, ideal_generators, degree_bound, mode)
    return isinstance(outcome, IdealDecomposition), outcome
