"""Membership in the module generated by constraint polynomials.

``decompose`` searches for coefficient polynomials f_k with
``target = sum_k f_k * generators[k]`` by solving an exact linear system.
Its unknown for monomial m in f_k has the shifted generator m * g_k as its
column, and ``linsolve.solve_sparse`` takes these columns and the target as
they are.  Each generator g_k is scaled by the lcm s_k of its
denominators, and the target by its own lcm t, so every column is built
in integers; a solution h_k maps back to f_k = h_k * s_k / t.  The search
runs degree by degree, so the certificate it returns has coefficients of
the smallest achievable maximum degree.  A search whose systems would have
more than ``MAX_UNKNOWNS`` unknowns in all is refused with
``SearchTooLargeError`` before the degree that passes the cap is built, so
no search runs without limit.

Monomials are packed into one int each, a fixed-width exponent field per
identifier the search allows, so a shifted column is one integer addition
per term; the packed ints order as the exponent tuples do, and elimination
takes the same pivots.  Each degree's system packs at the width its own
columns need, and a degree whose columns cannot reach the target's degree
is skipped, so a system depends only on the generators, the allowed
identifiers and the degree.  Each is built once and kept with its echelon
(``linsolve.Columns``); later targets are reduced against it.  The same
columns in the same order give the same echelon and the same solution, so
a kept system returns the certificate a fresh one would.

When degree 0 fails, the target is first reduced modulo a reduced Groebner
basis of the generators in the package's graded-lex order (Buchberger's
algorithm with the Gebauer-Moeller criteria).  A nonzero normal form proves
non-membership at every degree, and the ``NotFound`` it returns is
``exact``.  A zero normal form goes on to the degree ladder, which finds the
minimal-degree certificate.  The basis and the reduction have step budgets
(``MAX_BASIS_STEPS``, ``MAX_REDUCTION_STEPS``); when either runs out, the
ladder alone decides and a negative answer means only "not representable
within degree d".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, combinations_with_replacement
from math import comb
from threading import Lock
from typing import Callable, NamedTuple, Sequence

from .errors import SearchTooLargeError
from .linsolve import Columns, integer_scaled, solve_sparse
from .phase import Exponents, PhasePolynomial, PhaseSpace, _grlex_key


# Unknowns (coefficient monomials x generators), summed over the degrees a
# search tries, beyond which it is refused.  The sum, not the largest single
# system, bounds the work: with one identifier each degree adds only one
# monomial, and a ladder towards a degree bound of a million would run for
# hours.  The largest search of the benchmark workloads has 4845 unknowns in
# all (880 in the test suite).  It also bounds ``_KEPT``: the kept systems and
# bases are charged no more in all, a system its unknowns and a basis its
# terms.
MAX_UNKNOWNS = 50_000

# Steps a Groebner basis may take, and steps the target's normal form may
# take on top of it, before the search falls back to the degree ladder.  A
# step is one basis lead tested against a term of the polynomial being
# reduced, one term of a shifted basis polynomial subtracted from it, one
# pair or basis entry visited in the pair bookkeeping, or one lcm comparison
# of the chain criterion.  Random ideals of four quintics in six variables
# spend the basis budget in 0.019 to 0.023 s of CPU (Python 3.11 on a 2-vCPU
# Xeon VM); the on-shell basis of em_modes(20), 41 generators over 161
# identifiers, takes 8840 steps in 0.047 s.  Over the benchmark workloads
# and the shipped models the largest basis takes 204 steps and the largest
# normal form 117.
MAX_BASIS_STEPS = 20_000
MAX_REDUCTION_STEPS = 20_000


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


class NotFound(NamedTuple):
    """Negative decomposition result.

    ``exact`` is True when non-membership is proven: the target's normal
    form modulo a Groebner basis of the generators is nonzero (or there are
    no generators), so no coefficients of any degree exist.  Otherwise the answer is conclusive
    only up to the degree bound (or, in CONSTANT mode, for constant
    coefficients).  ``message`` is the same either way.
    """

    degree_bound: int
    mode: CoefficientMode
    exact: bool = False

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


# ----------------------------------------------------------------------
# Groebner basis and normal form
# ----------------------------------------------------------------------
# A monic polynomial is kept as (lead monomial, tail), the tail being its
# other terms as (monomial, coefficient) pairs.  Working polynomials are
# term dictionaries.
_Monic = tuple[Exponents, tuple[tuple[Exponents, Fraction], ...]]


class _OutOfSteps(Exception):
    """A Groebner step budget ran out."""


class _Steps:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise _OutOfSteps


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(terms: dict[Exponents, Fraction]) -> _Monic:
    lead = max(terms, key=_grlex_key)
    scale = terms[lead]
    return lead, tuple((m, c / scale) for m, c in terms.items() if m != lead)


def _descending(mon: Exponents) -> tuple:
    """Heap key: the graded-lex-largest monomial pops first."""
    return -sum(mon), tuple(-e for e in mon), mon


def _reduce(
    terms: dict[Exponents, Fraction], basis: Sequence[_Monic], steps: _Steps
) -> dict[Exponents, Fraction]:
    """Full normal form of `terms` modulo the monic `basis`: every term that
    a basis lead divides is cancelled, leading terms first.  Each basis lead
    tested against a term taken up and each term subtracted is a step."""
    terms = dict(terms)
    heap = [_descending(m) for m in terms]
    heapify(heap)
    remainder: dict[Exponents, Fraction] = {}
    while heap:
        mon = heappop(heap)[2]
        coeff = terms.pop(mon, None)
        if coeff is None:  # cancelled, or a second entry of a taken-up term
            continue
        for tested, (lead, tail) in enumerate(basis, 1):
            if _divides(lead, mon):
                steps.spend(tested + len(tail))
                shift = tuple(a - b for a, b in zip(mon, lead))
                for tmon, tcoeff in tail:
                    key = tuple(a + b for a, b in zip(tmon, shift))
                    delta = coeff * tcoeff
                    old = terms.get(key)
                    if old is None:
                        terms[key] = -delta
                        heappush(heap, _descending(key))
                    elif old != delta:
                        terms[key] = old - delta
                    else:
                        del terms[key]
                break
        else:
            steps.spend(len(basis))
            remainder[mon] = coeff
    return remainder


def _s_polynomial(f: _Monic, g: _Monic, steps: _Steps) -> dict[Exponents, Fraction]:
    """lcm/lead(f) * f - lcm/lead(g) * g; the leads cancel since both are monic."""
    lcm = _lcm(f[0], g[0])
    steps.spend(len(f[1]) + len(g[1]))
    terms: dict[Exponents, Fraction] = {}
    for (lead, tail), sign in ((f, 1), (g, -1)):
        shift = tuple(a - b for a, b in zip(lcm, lead))
        for mon, coeff in tail:
            key = tuple(a + b for a, b in zip(mon, shift))
            value = terms.get(key, 0) + sign * coeff
            if value:
                terms[key] = value
            else:
                del terms[key]
    return terms


def _buchberger(
    generators: Sequence[dict[Exponents, Fraction]], steps: _Steps
) -> tuple[_Monic, ...]:
    """Reduced Groebner basis in graded-lex order, sorted by descending lead.

    Buchberger's algorithm with the normal selection strategy (the pair of
    least lcm first) and Gebauer and Moeller's update (Becker & Weispfenning,
    *Groebner Bases*, p. 230), which drops the pairs the coprime-leads and
    chain criteria show to reduce to zero.  Polynomials are kept by index;
    ``basis`` holds the indices whose leads no later lead divides.  Steps are
    spent on reductions, S-polynomials and pair bookkeeping alike.
    """
    polys: list[_Monic] = []
    basis: set[int] = set()
    pairs: set[tuple[int, int]] = set()

    def update(new: int) -> None:
        # Pair bookkeeping is charged too, one step per pair or basis entry
        # visited and per lcm comparison made, so the budget also bounds how
        # many pairs there can be.
        steps.spend(len(basis) + len(pairs))
        lead = polys[new][0]
        lcms = {i: _lcm(lead, polys[i][0]) for i in basis}
        coprime = {i for i in basis if sum(lcms[i]) == sum(lead) + sum(polys[i][0])}
        # Chain criterion among the new pairs: keep (new, i) unless another
        # new pair's lcm divides its lcm (of equal lcms the last one is kept);
        # then the coprime-leads criterion drops the pairs in `coprime`.
        kept: list[int] = []
        candidates = sorted(basis)
        for pos, i in enumerate(candidates):
            others = () if i in coprime else tuple(chain(candidates[pos + 1:], kept))
            hit = next(
                (n for n, j in enumerate(others, 1) if _divides(lcms[j], lcms[i])), 0
            )
            steps.spend(hit or len(others))
            if not hit:
                kept.append(i)
        fresh = {(i, new) for i in kept if i not in coprime}
        # Chain criterion on the old pairs: (i, j) is dropped when the new
        # lead divides its lcm without giving the same lcm with i or j.
        for i, j in list(pairs):
            lcm = _lcm(polys[i][0], polys[j][0])
            if (
                _divides(lead, lcm)
                and _lcm(polys[i][0], lead) != lcm
                and _lcm(polys[j][0], lead) != lcm
            ):
                pairs.discard((i, j))
        pairs.update(fresh)
        basis.difference_update([i for i in basis if _divides(lead, polys[i][0])])
        basis.add(new)

    def add(terms: dict[Exponents, Fraction]) -> None:
        remainder = _reduce(terms, [polys[i] for i in basis], steps)
        if remainder:
            polys.append(_monic(remainder))
            update(len(polys) - 1)

    for terms in sorted(generators, key=lambda t: _grlex_key(max(t, key=_grlex_key))):
        add(terms)
    while pairs:
        steps.spend(len(pairs))
        pair = min(pairs, key=lambda ij: (
            _grlex_key(_lcm(polys[ij[0]][0], polys[ij[1]][0])), ij
        ))
        pairs.remove(pair)
        add(_s_polynomial(polys[pair[0]], polys[pair[1]], steps))

    # The leads of `basis` are minimal; reducing each tail by the others
    # gives the unique reduced basis.
    minimal = [polys[i] for i in basis]
    reduced = []
    for k, (lead, tail) in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        reduced.append((lead, tuple(_reduce(dict(tail), others, steps).items())))
    return tuple(sorted(reduced, key=lambda g: _grlex_key(g[0]), reverse=True))


def _groebner_basis(
    generators: tuple[PhasePolynomial, ...],
) -> tuple[_Monic, ...] | None:
    """Reduced Groebner basis of the generators, kept in ``_KEPT``, or None
    when it would take more than ``MAX_BASIS_STEPS`` steps.  Polynomials are
    immutable and cache their hash, so the tuple is the key."""
    return _KEPT.get((generators,), _build_basis, generators)


def _build_basis(
    generators: tuple[PhasePolynomial, ...],
) -> tuple[tuple[_Monic, ...] | None, int]:
    try:
        basis = _buchberger([g.terms for g in generators if g], _Steps(MAX_BASIS_STEPS))
    except _OutOfSteps:
        return None, 1
    # Charged its terms, and at least 1, so the cap bounds how many are kept.
    return basis, max(1, sum(1 + len(tail) for _, tail in basis))


def _normal_form(
    target: PhasePolynomial, generators: tuple[PhasePolynomial, ...]
) -> dict[Exponents, Fraction] | None:
    """The target's normal form modulo the generators' reduced Groebner
    basis: zero exactly for members of the ideal they generate in the
    polynomial ring over every declared identifier.  None when a step budget
    runs out.

    Membership in that ring is the same question the degree ladder asks,
    although the ladder's coefficients use only the identifiers the target
    and the generators use.  Setting every other identifier to 0 is a ring
    retraction onto the polynomials in the used identifiers that fixes the
    target and every generator, so it maps any certificate to one in the
    used identifiers alone.
    """
    basis = _groebner_basis(generators)
    if basis is None:
        return None
    try:
        return _reduce(target.terms, basis, _Steps(MAX_REDUCTION_STEPS))
    except _OutOfSteps:
        return None


# ----------------------------------------------------------------------
# Macaulay systems over packed monomials
# ----------------------------------------------------------------------
_Fields = tuple[tuple[int, int], ...]


def _fields(allowed: Sequence[int], width: int) -> _Fields:
    """(identifier, bit offset) of each exponent field of a packed monomial:
    `width` bits per allowed identifier, the first one most significant.
    While no exponent reaches 2**width, packing is injective, adds when
    monomials multiply, and orders packed monomials as their exponent
    tuples."""
    top = width * (len(allowed) - 1)
    return tuple(zip(allowed, range(top, -1, -width)))


def _pack(mon: Exponents, fields: _Fields) -> int:
    return sum(mon[idx] << shift for idx, shift in fields)


def _unpack(packed: int, fields: _Fields, width: int, n_identifiers: int) -> Exponents:
    exps = [0] * n_identifiers
    mask = (1 << width) - 1
    for idx, shift in fields:
        exps[idx] = packed >> shift & mask
    return tuple(exps)


def _monomials_up_to(fields: _Fields, degree: int) -> list[int]:
    """All packed monomials in the fields' identifiers with total degree
    <= degree, in ascending graded order."""
    units = [1 << shift for _, shift in fields]
    return [
        sum(combo)
        for d in range(degree + 1)
        for combo in combinations_with_replacement(units, d)
    ]


class _System(NamedTuple):
    """One degree's Macaulay system: unknown ``k * len(monomials) + i`` is
    the coefficient of ``monomials[i]`` in h_k, and its column is the
    shifted generator ``monomials[i] * s_k * g_k``, with s_k from
    ``scales``.  Monomials are packed in ``fields`` of ``width`` bits."""

    columns: Columns
    monomials: list[int]
    fields: _Fields
    width: int
    scales: tuple[int, ...]


def _build_system(
    generators: tuple[PhasePolynomial, ...], allowed: tuple[int, ...], degree: int
) -> tuple[_System, int]:
    """The system and its charge in ``_KEPT``, its unknowns."""
    # No exponent of a column reaches 2**width (see _fields).
    width = max(degree + max(g.total_degree() for g in generators), 1).bit_length()
    fields = _fields(allowed, width)
    monomials = _monomials_up_to(fields, degree)
    # Integer terms: generator k scaled by s_k, packed once for all its columns.
    scales, scaled = zip(*(integer_scaled(g.terms) for g in generators))
    packed = [{_pack(mon, fields): c for mon, c in g.items()} for g in scaled]
    columns = Columns(
        ({mon + gmon: c for gmon, c in gen.items()}, unknown)
        for k, gen in enumerate(packed)
        for unknown, mon in enumerate(monomials, k * len(monomials))
    )
    return _System(columns, monomials, fields, width, scales), len(columns)


# ----------------------------------------------------------------------
# Bases and systems kept across searches
# ----------------------------------------------------------------------
class _Kept:
    """Groebner bases by generators and Macaulay systems by (generators,
    allowed identifiers, degree), least recently used first.  Each entry is
    charged what it holds, a system its unknowns and a basis its terms, and
    the charges stay within ``MAX_UNKNOWNS`` in all: about the memory one
    search at the cap takes anyway.  A lock keeps the order and the total
    consistent across threads."""

    def __init__(self):
        self.entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.charge = 0
        self.lock = Lock()

    def get(self, key: tuple, build: Callable[..., tuple[object, int]], *args):
        """The value kept under `key`; when there is none, ``build(*args)``
        returns it with its charge, and it is kept."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                return entry[0]
        value, charge = build(*args)
        with self.lock:
            if key not in self.entries:  # else built meanwhile in another thread
                self.entries[key] = value, charge
                self.charge += charge
                while self.charge > MAX_UNKNOWNS:
                    _, (_, old) = self.entries.popitem(last=False)
                    self.charge -= old
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.charge = 0


_KEPT = _Kept()


def _certificate(
    space: PhaseSpace, solution: dict[int, Fraction], system: _System, target_scale: int
) -> tuple[PhasePolynomial, ...]:
    """The coefficients f_k = h_k * s_k / t of a solution h of the system
    over the generators scaled by s_k and the target scaled by t; only the
    solution's nonzero unknowns are visited."""
    monomials, scales = system.monomials, system.scales
    terms: list[dict[Exponents, Fraction]] = [{} for _ in scales]
    for col, value in solution.items():
        k, i = divmod(col, len(monomials))
        mon = _unpack(monomials[i], system.fields, system.width, space.n_identifiers)
        terms[k][mon] = value * Fraction(scales[k], target_scale)
    return tuple(PhasePolynomial(space, t) for t in terms)


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
    included, except in CONSTANT mode where they are plain rationals.  When
    degree 0 fails in POLYNOMIAL mode, a nonzero Groebner normal form ends
    the search with an exact ``NotFound`` (see ``_normal_form``).
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
    if not generators:  # the zero ideal
        return NotFound(degree_bound, mode, exact=True)

    allowed: set[int] = set(target.used_indices())
    for gen in generators:
        allowed |= gen.used_indices()
    allowed_order = tuple(sorted(allowed))
    max_useful = degree_bound if allowed_order else 0
    top = max(g.total_degree() for g in generators)
    target_degree = target.total_degree()
    target_scale, target_terms = integer_scaled(target.terms)
    unknowns = 0
    for degree in range(max_useful + 1):
        # Between degrees 0 and 1: most certificates are constant and need
        # no basis, and a nonzero normal form settles a non-member exactly.
        if degree == 1 and _normal_form(target, generators):
            return NotFound(degree_bound, mode, exact=True)
        unknowns += comb(len(allowed_order) + degree, degree) * len(generators)
        if unknowns > MAX_UNKNOWNS:
            raise SearchTooLargeError(
                f"membership search up to coefficient degree {degree} would "
                f"solve for {unknowns} unknowns ({len(generators)} generators "
                f"over {len(allowed_order)} identifiers), above the limit of "
                f"{MAX_UNKNOWNS}; a smaller degree bound keeps it within the limit"
            )
        if degree + top < target_degree:
            continue  # no column reaches the target's degree
        system = _KEPT.get(
            (generators, allowed_order, degree),
            _build_system, generators, allowed_order, degree,
        )
        # The target's exponents are within its degree, so they fit the fields.
        packed = {_pack(mon, system.fields): c for mon, c in target_terms.items()}
        solution = solve_sparse(system.columns, packed)
        if solution is not None:
            coefficients = _certificate(space, solution, system, target_scale)
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
    ``NotFound``) is returned alongside.
    """
    outcome = decompose(f - g, ideal_generators, degree_bound, mode)
    return isinstance(outcome, IdealDecomposition), outcome
