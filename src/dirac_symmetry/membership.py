"""Membership in the module generated by constraint polynomials.

``decompose`` searches for coefficient polynomials f_k with
``target = sum_k f_k * generators[k]`` by solving an exact linear system.
Its unknown for monomial m in f_k has the shifted generator m * g_k as its
column, and ``linsolve.solve_sparse`` solves for the target over the
columns that are stored (see below).  Each generator g_k is scaled by the
lcm s_k of its denominators, and the target by its own lcm t, so every
column is built in integers; a solution h_k maps back to
f_k = h_k * s_k / t.  The search
runs degree by degree, so the certificate it returns has coefficients of
the smallest achievable maximum degree.  A search is refused with
``SearchTooLargeError`` before it builds the degree at which the unknowns
of the degrees it builds pass ``MAX_UNKNOWNS``, so no search runs without
limit.

Monomials are packed into one int each, a fixed-width exponent field per
identifier the search allows, so a shifted column is one integer addition
per term; the packed ints order as the exponent tuples do, and elimination
takes the same pivots.  Each degree's system packs at the width its own
columns need, so a system depends only on the generators, the allowed
identifiers and the degree.  Each is built once and kept with its echelon
(``linsolve.Columns``); later targets are reduced against it.  The same
columns in the same order give the same echelon and the same solution, so
a kept system returns the certificate a fresh one would.

The columns come generator by generator, and within g_k by shift monomial:
ascending total degree, and within one degree descending packed int.

Constraint modules often start with one-term generators c_k * m_k (the
conjugate momenta of gauge variables).  The columns of that leading run are
unit columns, which together span exactly the *covered* monomials m_k * x,
deg x <= degree; the first k that covers a monomial owns it.  So the run is
a projection, and none of its columns is stored: a later column is
independent of the earlier ones exactly when it stays independent once the
covered monomials are dropped from every column.  ``decompose`` drops them
from the target too and solves over the later columns; each unit unknown
then takes what the target, minus the solved columns, leaves on its
covered monomial, divided by c_k.  The greedy-basis solution is unique, so
this is the certificate the whole system gives.  The system is still
charged all its unknowns.

A stored column is a ``linsolve.Shifted`` view of g_k's packed terms,
sorted once per generator, without the covered monomials; its row is
built only when an elimination reads it (see ``linsolve.Columns``).

Every term of sum_k f_k * g_k is a multiple of some generator term, so a
target monomial mu in a certificate of degree d is m * t for a term t of
some g_k dividing mu and deg m <= d.  The target's *reach*, the largest
deg mu - deg t over its monomials mu, t the generator term of highest
degree dividing mu, is thus a lower bound on every certificate's degree,
and a monomial that no generator term divides proves non-membership at
every degree (the monomial-ideal argument of Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*, 2.4).  Such a target gets an ``exact``
``NotFound`` at once, from a term index kept per generator tuple, with no
basis and no system; the ladder starts at the reach.

When a solve fails, before a degree that would pass the size cap, and at
the end of the ladder, whichever comes first, the target is reduced modulo
a reduced Groebner basis of the generators in the package's graded-lex
order (Buchberger's algorithm with the Gebauer-Moeller criteria).  A
nonzero normal form proves non-membership at every degree, and the
``NotFound`` it returns is ``exact``; a zero one lets the ladder go on to
the minimal-degree certificate.  The basis and the reduction have step
budgets (``MAX_BASIS_STEPS``, ``MAX_REDUCTION_STEPS``); when either runs
out, the ladder alone decides and a negative answer means only "not
representable within degree d".  The screen and the normal form are
exact only for polynomial coefficients and a bound of at least 1.

The basis and the normal form pack monomials too (``_Layout``), over every
declared identifier: one field of whole bytes per identifier, the first one
most significant, under a field holding the total degree, and the top bit
of every field a guard bit that stays clear.  The ints then order as the
graded-lex order does, a product is one addition, a divisibility test one
subtraction and mask, and an lcm a field-wise max built from the same mask.
Fields start one byte wide, or as wide as twice the generators' largest
degree needs; a basis whose lcms outgrow them is built again in fields
twice as wide, taking the same steps, and a target of higher degree is
reduced against a copy of the basis packed wider.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, combinations_with_replacement, compress, takewhile
from math import comb
from operator import add
from threading import Lock
from typing import Callable, NamedTuple, Sequence

from . import phase
from .errors import SearchTooLargeError
from .linsolve import Columns, Shifted, integer_scaled, solve_sparse
from .phase import Exponents, PhasePolynomial, PhaseSpace, _adopt


# Unknowns (coefficient monomials x generators), summed over the degrees a
# search builds, beyond which it is refused.  The sum, not the largest single
# system, bounds the work: with one identifier each degree adds only one
# monomial, and a ladder towards a degree bound of a million would run for
# hours.  The largest search of the benchmark workloads has 4845 unknowns in
# all (880 in the test suite).  It also bounds ``_KEPT``: the kept systems,
# bases and term indexes are charged no more in all, a system its unknowns,
# a basis its terms and an index its entries.
MAX_UNKNOWNS = 50_000

# Steps a Groebner basis may take, and steps the target's normal form may
# take on top of it, before the search falls back to the degree ladder.  A
# step is one basis lead tested against a term of the polynomial being
# reduced, one term of a shifted basis polynomial subtracted from it, one
# pair or basis entry visited in the pair bookkeeping, or one lcm comparison
# of the chain criterion.  What a step costs depends on the ideal (Python
# 3.11 on a shared 2-vCPU x86_64 VM).  On the on-shell bases of em_modes(n)
# it is about 0.5 to 0.8 us of CPU whatever the number of identifiers: the
# basis of em_modes(20), 41 generators over 161 identifiers, takes 8840
# steps in 0.005 s.  On dense ideals it is more, most of it Fraction
# arithmetic on longer polynomials: about 3.0 to 3.5 us on the constraint
# module of the three-dof model with H = (q1 + q2 + q3 + p1 + p2 + p3)^2 +
# p1*q2^2 and primaries p3^2 - q1*q2 and q3*p1 + q2^2, seven generators of
# degree 2 and 3 whose basis takes 1.68 million steps.  Over the benchmark
# workloads (eight seeds, three batches each) and the shipped models the
# largest basis takes 204 steps and the largest normal form 117.
MAX_BASIS_STEPS = 20_000
MAX_REDUCTION_STEPS = 20_000


class CoefficientMode(Enum):
    """Coefficient class admitted in a decomposition."""

    CONSTANT = "constant"
    POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class IdealDecomposition:
    """Certificate that ``target = sum_k coefficients[k] * generators[k]``.

    ``expand`` and ``verify`` re-expand the sum in one pass into one term
    dictionary (``_reexpand``), building no polynomial per generator; a
    coefficient on another phase space raises the ``SpaceMismatchError`` of
    the dense sum.
    """

    target: PhasePolynomial
    generators: tuple[PhasePolynomial, ...]
    coefficients: tuple[PhasePolynomial, ...]
    degree_bound: int

    def expand(self) -> PhasePolynomial:
        """sum_k coefficients[k] * generators[k], on the target's space."""
        return _adopt(
            self.target.space, _reexpand(self.target, self.coefficients, self.generators)
        )

    def verify(self) -> bool:
        """Exact re-expansion check; certificates must always satisfy this."""
        if _reexpand(self.target, self.coefficients, self.generators) != self.target.terms:
            return False
        return all(
            c.total_degree() <= self.degree_bound for c in self.coefficients
        )


def _reexpand(
    target: PhasePolynomial,
    coefficients: Sequence[PhasePolynomial],
    generators: Sequence[PhasePolynomial],
) -> dict[Exponents, Fraction]:
    """The nonzero terms of sum_k f_k * g_k, summed in one dictionary.

    A constant f_k scales g_k's terms, building no exponent tuple; any other
    nonzero f_k multiplies them term by term, refused as a product is past
    ``phase.MAX_TERM_PAIRS``.  Every pair is space-checked as the dense sum
    checks it, the coefficient against its generator and then the target
    against the coefficient, so a zero coefficient is checked too and a
    mismatch raises the same ``SpaceMismatchError``.
    """
    space = target.space
    total: dict[Exponents, Fraction] = {}
    get = total.get
    for coeff, gen in zip(coefficients, generators):
        if coeff.space is not space or gen.space is not space:
            coeff._check_space(gen)
            target._check_space(coeff)
        terms = coeff.terms
        if not terms:
            continue
        if len(terms) == 1:
            (mon, value), = terms.items()
            if not any(mon):
                for m, c in gen.terms.items():
                    old = get(m)
                    total[m] = value * c if old is None else old + value * c
                continue
        phase._check_term_pairs("product", coeff, gen)
        for m1, c1 in terms.items():
            for m2, c2 in gen.terms.items():
                m = tuple(map(add, m1, m2))
                old = get(m)
                total[m] = c1 * c2 if old is None else old + c1 * c2
    return {m: c for m, c in total.items() if c}


class NotFound(NamedTuple):
    """Negative decomposition result.

    ``exact`` is True when non-membership is proven: some target monomial
    is divisible by no generator term, or the target's normal form modulo a
    Groebner basis of the generators is nonzero (or there are no
    generators), so no coefficients of any degree exist.  Otherwise the
    answer is conclusive only up to the degree bound (or, in CONSTANT mode,
    for constant coefficients).  ``message`` is the same either way.
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
    # The checks ask this for each fresh zero bracket, so a zero target
    # counts as degree 0 without a first read of its degree, and the loop
    # calls total_degree from Python (cheaper than from map).
    top = 0
    for gen in generators:
        top = max(top, gen.total_degree())
    return (max(target.total_degree(), 0) if target else 0) + top


# ----------------------------------------------------------------------
# Groebner basis and normal form over packed monomials
# ----------------------------------------------------------------------
# A monomial is one int in a _Layout.  A monic polynomial is kept as (lead
# monomial, tail), the tail being its other terms as (monomial, coefficient)
# pairs.  Working polynomials are term dictionaries.
_Monic = tuple[int, tuple[tuple[int, Fraction], ...]]


class _Layout(NamedTuple):
    """Packed monomials over ``n`` identifiers: one field of ``width`` bytes
    per identifier, the first one most significant, under one more field
    holding the total degree.  The top bit of every field is a guard bit that
    stays clear, so every total degree must be below ``limit``.  Ints then
    order as ``phase._grlex_key`` orders exponent tuples, a product is ``+``, a
    quotient by a dividing monomial is ``-``, and `a` divides `b` exactly
    when ``((b | guards) - a) & guards == guards``: no field borrows from the
    next, and a field keeps its guard bit when b's exponent is at least a's."""

    width: int
    n: int
    guards: int  # the guard bit of every field, the degree's included
    values: int  # every bit of the identifier fields but their guards
    shift: int  # bit offset of the degree field

    @property
    def limit(self) -> int:
        return 1 << (8 * self.width - 1)

    def pack(self, mon: Exponents) -> int:
        if self.width == 1:
            raw = bytes(mon)
        else:
            raw = b"".join(e.to_bytes(self.width, "big") for e in mon)
        return int.from_bytes(raw, "big") | sum(mon) << self.shift

    def unpack(self, packed: int) -> Exponents:
        raw = packed.to_bytes(self.width * (self.n + 1), "big")
        if self.width == 1:
            return tuple(raw[1:])
        return tuple(
            int.from_bytes(raw[i:i + self.width], "big")
            for i in range(self.width, len(raw), self.width)
        )

    def unpack_terms(self, terms: dict[int, Fraction]) -> dict[Exponents, Fraction]:
        return {self.unpack(mon): coeff for mon, coeff in terms.items()}

    def lcm(self, a: int, b: int) -> int:
        """The field-wise max of a and b; its degree, the sum of its fields,
        is their value modulo 2**(8 * width) - 1.  Raises ``_Wider`` when
        that degree does not fit the layout."""
        a &= self.values
        b &= self.values
        at_least = ((a | self.guards) - b) & self.guards  # where a's field >= b's
        take = at_least - (at_least >> (8 * self.width - 1))
        low = a & take | b & ~take
        degree = low % ((1 << 8 * self.width) - 1)
        if degree >= self.limit:
            raise _Wider
        return degree << self.shift | low


def _layout(n: int, width: int) -> _Layout:
    """The layout of `width`-byte fields over n identifiers.  Its masks are
    repeated bytes, O(n) to build."""
    guard = b"\x80" + bytes(width - 1)
    value = b"\x7f" + b"\xff" * (width - 1)
    return _Layout(
        width, n, int.from_bytes(guard * (n + 1), "big"),
        int.from_bytes(value * n, "big"), 8 * width * n,
    )


def _width(degree: int) -> int:
    """The fewest bytes, 1, 2, 4, 8 or more, of a field that holds `degree`
    below its guard bit."""
    width = 1
    while degree >> (8 * width - 1):
        width *= 2
    return width


class _Basis(NamedTuple):
    """A reduced Groebner basis of a nonzero ideal, its monic polynomials
    in `layout`."""

    layout: _Layout
    polys: tuple[_Monic, ...]


class _OutOfSteps(Exception):
    """A Groebner step budget ran out."""


class _Wider(Exception):
    """An lcm's degree does not fit the layout's fields."""


class _Steps:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, steps: int) -> None:
        self.left -= steps
        if self.left < 0:
            raise _OutOfSteps


def _monic(terms: dict[int, Fraction]) -> _Monic:
    lead = max(terms)
    scale = terms[lead]
    return lead, tuple((m, c / scale) for m, c in terms.items() if m != lead)


def _reduce(
    terms: dict[int, Fraction], basis: Sequence[_Monic], guards: int, steps: _Steps
) -> dict[int, Fraction]:
    """Full normal form of `terms` modulo the monic `basis`, all packed in a
    layout with these `guards`: every term that a basis lead divides is
    cancelled, leading terms first.  Each basis lead tested against a term
    taken up and each term subtracted is a step."""
    terms = dict(terms)
    heap = [-m for m in terms]  # the largest monomial pops first
    heapify(heap)
    remainder: dict[int, Fraction] = {}
    while heap:
        mon = -heappop(heap)
        coeff = terms.pop(mon, None)
        if coeff is None:  # cancelled, or a second entry of a taken-up term
            continue
        probe = mon | guards
        for tested, (lead, tail) in enumerate(basis, 1):
            if (probe - lead) & guards == guards:
                steps.spend(tested + len(tail))
                shift = mon - lead
                for tmon, tcoeff in tail:
                    key = tmon + shift
                    delta = coeff * tcoeff
                    old = terms.get(key)
                    if old is None:
                        terms[key] = -delta
                        heappush(heap, -key)
                    elif old != delta:
                        terms[key] = old - delta
                    else:
                        del terms[key]
                break
        else:
            steps.spend(len(basis))
            remainder[mon] = coeff
    return remainder


def _s_polynomial(f: _Monic, g: _Monic, lcm: int, steps: _Steps) -> dict[int, Fraction]:
    """lcm/lead(f) * f - lcm/lead(g) * g; the leads cancel since both are monic."""
    steps.spend(len(f[1]) + len(g[1]))
    terms: dict[int, Fraction] = {}
    for (lead, tail), sign in ((f, 1), (g, -1)):
        shift = lcm - lead
        for mon, coeff in tail:
            key = mon + shift
            value = terms.get(key, 0) + sign * coeff
            if value:
                terms[key] = value
            else:
                del terms[key]
    return terms


def _buchberger(
    generators: Sequence[dict[Exponents, Fraction]], steps: _Steps
) -> _Basis:
    """Reduced Groebner basis in graded-lex order, sorted by descending lead.

    `generators` are nonzero and there is at least one: ``decompose``
    answers the zero ideal before any basis is built.

    The generators are packed in the narrowest layout whose fields hold twice
    their largest degree.  When an lcm outgrows it, the basis is started
    again in fields twice as wide with the budget `steps` had on entry: the
    same steps are taken again, so the steps spent do not depend on the
    width.
    """
    n = len(next(iter(generators[0])))
    width = _width(2 * max(sum(mon) for terms in generators for mon in terms))
    start = steps.left
    while True:
        layout = _layout(n, width)
        packed = [
            {layout.pack(mon): coeff for mon, coeff in terms.items()}
            for terms in generators
        ]
        try:
            return _Basis(layout, _packed_buchberger(packed, layout, steps))
        except _Wider:
            steps.left = start
            width *= 2


def _packed_buchberger(
    generators: list[dict[int, Fraction]], layout: _Layout, steps: _Steps
) -> tuple[_Monic, ...]:
    """Buchberger's algorithm with the normal selection strategy (the pair of
    least lcm first) and Gebauer and Moeller's update (Becker & Weispfenning,
    *Groebner Bases*, p. 230), which drops the pairs the coprime-leads and
    chain criteria show to reduce to zero.  Polynomials are kept by index;
    ``basis`` holds the indices whose leads no later lead divides, and
    ``pairs`` maps each pair left to the lcm of its leads.  Steps are spent
    on reductions, S-polynomials and pair bookkeeping alike.
    """
    guards, shift, lcm_of = layout.guards, layout.shift, layout.lcm
    polys: list[_Monic] = []
    basis: set[int] = set()
    pairs: dict[tuple[int, int], int] = {}

    def divides(a: int, b: int) -> bool:
        return ((b | guards) - a) & guards == guards

    def update(new: int) -> None:
        # Pair bookkeeping is charged too, one step per pair or basis entry
        # visited and per lcm comparison made, so the budget also bounds how
        # many pairs there can be.
        steps.spend(len(basis) + len(pairs))
        lead = polys[new][0]
        lcms = {i: lcm_of(lead, polys[i][0]) for i in basis}
        degree = lead >> shift
        coprime = {
            i for i in basis if lcms[i] >> shift == degree + (polys[i][0] >> shift)
        }
        # Chain criterion among the new pairs: keep (new, i) unless another
        # new pair's lcm divides its lcm (of equal lcms the last one is kept);
        # then the coprime-leads criterion drops the pairs in `coprime`.
        kept: list[int] = []
        candidates = sorted(basis)
        for pos, i in enumerate(candidates):
            others = () if i in coprime else tuple(chain(candidates[pos + 1:], kept))
            hit = next(
                (n for n, j in enumerate(others, 1) if divides(lcms[j], lcms[i])), 0
            )
            steps.spend(hit or len(others))
            if not hit:
                kept.append(i)
        fresh = {(i, new): lcms[i] for i in kept if i not in coprime}
        # Chain criterion on the old pairs: (i, j) is dropped when the new
        # lead divides its lcm without giving the same lcm with i or j.
        for (i, j), lcm in list(pairs.items()):
            if (
                divides(lead, lcm)
                and lcm_of(polys[i][0], lead) != lcm
                and lcm_of(polys[j][0], lead) != lcm
            ):
                del pairs[i, j]
        pairs.update(fresh)
        basis.difference_update([i for i in basis if divides(lead, polys[i][0])])
        basis.add(new)

    def add(terms: dict[int, Fraction]) -> None:
        remainder = _reduce(terms, [polys[i] for i in basis], guards, steps)
        if remainder:
            polys.append(_monic(remainder))
            update(len(polys) - 1)

    for terms in sorted(generators, key=max):
        add(terms)
    while pairs:
        steps.spend(len(pairs))
        pair = min(pairs, key=lambda ij: (pairs[ij], ij))
        lcm = pairs.pop(pair)
        add(_s_polynomial(polys[pair[0]], polys[pair[1]], lcm, steps))

    # The leads of `basis` are minimal; reducing each tail by the others
    # gives the unique reduced basis.
    minimal = [polys[i] for i in basis]
    reduced = []
    for k, (lead, tail) in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        reduced.append((lead, tuple(_reduce(dict(tail), others, guards, steps).items())))
    return tuple(sorted(reduced, key=lambda g: g[0], reverse=True))


def _groebner_basis(generators: tuple[PhasePolynomial, ...]) -> _Basis | None:
    """Reduced Groebner basis of the generators, kept in ``_KEPT``, or None
    when it would take more than ``MAX_BASIS_STEPS`` steps.  Polynomials are
    immutable and cache their hash, so the tuple is the key."""
    return _KEPT.get((generators,), _build_basis, generators)


def _build_basis(generators: tuple[PhasePolynomial, ...]) -> tuple[_Basis | None, int]:
    try:
        basis = _buchberger([g.terms for g in generators if g], _Steps(MAX_BASIS_STEPS))
    except _OutOfSteps:
        return None, 1
    # Charged its terms, and at least 1, so the cap bounds how many are kept.
    return basis, max(1, sum(1 + len(tail) for _, tail in basis.polys))


def _normal_form(
    target: PhasePolynomial, generators: tuple[PhasePolynomial, ...]
) -> dict[Exponents, Fraction] | None:
    """The target's normal form modulo the generators' reduced Groebner
    basis: zero exactly for members of the ideal they generate in the
    polynomial ring over every declared identifier.  Some generator must be
    nonzero.  None when a step budget runs out.

    Membership in that ring is the same question the degree ladder asks,
    although the ladder's coefficients use only the identifiers the target
    and the generators use.  Setting every other identifier to 0 is a ring
    retraction onto the polynomials in the used identifiers that fixes the
    target and every generator, so it maps any certificate to one in the
    used identifiers alone.

    A target whose degree the basis's layout cannot hold is reduced against
    a copy of the basis packed in wider fields.
    """
    basis = _groebner_basis(generators)
    if basis is None:
        return None
    layout, polys = basis
    degree = max(target.total_degree(), 0)
    if degree >= layout.limit:
        wide = _layout(layout.n, _width(degree))
        polys = tuple(
            (wide.pack(layout.unpack(lead)),
             tuple((wide.pack(layout.unpack(m)), c) for m, c in tail))
            for lead, tail in polys
        )
        layout = wide
    packed = {layout.pack(mon): coeff for mon, coeff in target.terms.items()}
    try:
        remainder = _reduce(packed, polys, layout.guards, _Steps(MAX_REDUCTION_STEPS))
    except _OutOfSteps:
        return None
    return layout.unpack_terms(remainder)


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
    <= degree: by ascending total degree, and within one degree by
    descending packed int (the first identifier's exponent highest first).
    The monomials of degree <= e are the first C(len(fields) + e, e)."""
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
    ``scales``.  Monomials are packed in ``fields`` of ``width`` bits.
    ``units`` holds c_k of each generator of the leading one-term run,
    ``covered`` maps each monomial that run covers to the unknown of its
    first unit column, and ``columns`` holds the columns of every later
    generator, as ``linsolve.Shifted`` views without the covered monomials
    (see ``_build_system``)."""

    columns: Columns
    monomials: list[int]
    fields: _Fields
    width: int
    scales: tuple[int, ...]
    units: list[int]
    covered: dict[int, int]


def _build_system(
    generators: tuple[PhasePolynomial, ...], allowed: tuple[int, ...], degree: int
) -> tuple[_System, int]:
    """The system and its charge in ``_KEPT``, all its unknowns.

    The columns of g_k come in the order of ``monomials``, after those of
    every g_i with i < k, each a view of g_k's packed terms shifted by its
    monomial.  The leading run of one-term generators keeps no columns,
    only the monomials it covers (see the module docstring).  A one-term
    generator after a multi-term or zero one keeps its columns, since they
    may depend on earlier ones."""
    # No exponent of a column reaches 2**width (see _fields).
    width = max(degree + max(g.total_degree() for g in generators), 1).bit_length()
    fields = _fields(allowed, width)
    monomials = _monomials_up_to(fields, degree)
    size = len(monomials)
    # Integer terms: generator k scaled by s_k, packed once for all its columns.
    scales, scaled = zip(*(integer_scaled(g.terms) for g in generators))
    units = [c for terms in takewhile(lambda t: len(t) == 1, scaled) for c in terms.values()]
    covered: dict[int, int] = {}
    for k in reversed(range(len(units))):  # the first k on a monomial wins
        shift = _pack(next(iter(scaled[k])), fields)
        covered.update(zip(map(shift.__add__, monomials), range(k * size, (k + 1) * size)))
    columns = Columns()
    for k in range(len(units), len(generators)):
        packed = {_pack(mon, fields): c for mon, c in scaled[k].items()}
        keys = tuple(sorted(packed))
        values = tuple(packed[m] for m in keys)
        columns.extend(
            (Shifted(mon, keys, values, covered), unknown)
            for unknown, mon in enumerate(monomials, k * size)
        )
    charge = size * len(generators)
    return _System(columns, monomials, fields, width, scales, units, covered), charge


def _solve(system: _System, target: dict[int, int]) -> dict[int, Fraction] | None:
    """``solve_sparse`` of the whole system for the packed target: the
    stored columns solve for its uncovered monomials, and each unit unknown
    takes what is left on its covered monomial, divided by its c_k."""
    covered, size = system.covered, len(system.monomials)
    kept, left = {}, {}
    for key, value in target.items():
        (left if key in covered else kept)[key] = value
    solution = solve_sparse(system.columns, kept)
    if solution is None:
        return None
    columns, first = system.columns, len(system.units) * size
    for unknown, value in solution.items():
        view = columns[unknown - first][0]
        for key, c in zip(map(view.shift.__add__, view.keys), view.values):
            if key in covered:
                left[key] = left.get(key, 0) - value * c
    for key, value in left.items():
        if value:
            unknown = covered[key]
            solution[unknown] = Fraction(value, system.units[unknown // size])
    return solution


# ----------------------------------------------------------------------
# Bases and systems kept across searches
# ----------------------------------------------------------------------
class _Kept:
    """Groebner bases by generators, term indexes by (generators, "terms")
    and Macaulay systems by (generators, allowed identifiers, degree), least
    recently used first.  Each entry is charged what it holds, a system its
    unknowns, a basis its terms and an index its entries, and the charges
    stay within ``MAX_UNKNOWNS`` in all: about the memory one search at the
    cap takes anyway.  A lock keeps the order and the total consistent
    across threads.

    The entries are a plain dict in insertion order, the least recently
    used first.  A hit pops the entry and puts it back last under the
    caller's key: one lookup, so equal but distinct generators are compared
    term by term once, and the kept key becomes the caller's tuple, so the
    next search with those generators compares by identity."""

    def __init__(self):
        self.entries: dict[tuple, tuple[object, int]] = {}
        self.charge = 0
        self.lock = Lock()

    def get(self, key: tuple, build: Callable[..., tuple[object, int]], *args):
        """The value kept under `key`; when there is none, ``build(*args)``
        returns it with its charge, and it is kept."""
        with self.lock:
            # One lookup: the entry goes back in last, under the caller's key.
            entry = self.entries.pop(key, None)
            if entry is not None:
                self.entries[key] = entry
                return entry[0]
        value, charge = build(*args)
        with self.lock:
            if key not in self.entries:  # else built meanwhile in another thread
                self.entries[key] = value, charge
                self.charge += charge
                while self.charge > MAX_UNKNOWNS:
                    _, old = self.entries.pop(next(iter(self.entries)))
                    self.charge -= old
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.charge = 0


_KEPT = _Kept()


# ----------------------------------------------------------------------
# The target's reach, from the generators' terms
# ----------------------------------------------------------------------
class _TermIndex(NamedTuple):
    """The distinct terms of some generators.  ``by_identifier[i]`` lists
    each term that uses identifier i, as (degree, ((identifier, exponent),
    ...)), highest degree first; ``floor`` is 0 when some generator has a
    constant term, which divides every monomial, and -1 otherwise."""

    by_identifier: dict[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]
    floor: int
    size: int  # distinct terms
    top: int  # largest degree of a term


def _term_index(generators: tuple[PhasePolynomial, ...]) -> _TermIndex:
    """The generators' term index, kept in ``_KEPT`` beside their basis."""
    return _KEPT.get((generators, "terms"), _build_term_index, generators)


def _build_term_index(generators: tuple[PhasePolynomial, ...]) -> tuple[_TermIndex, int]:
    """The index and its charge in ``_KEPT``, its entries and at least 1."""
    terms = {mon for g in generators for mon in g.terms}
    identifiers = range(len(next(iter(terms))))
    by_identifier: dict[int, list] = {}
    for mon in sorted(terms, key=sum, reverse=True):
        sparse = tuple((i, mon[i]) for i in compress(identifiers, mon))
        for i, _ in sparse:
            by_identifier.setdefault(i, []).append((sum(mon), sparse))
    index = _TermIndex(
        {i: tuple(entries) for i, entries in by_identifier.items()},
        0 if any(not any(mon) for mon in terms) else -1,
        len(terms),
        max(map(sum, terms)),
    )
    return index, max(1, sum(map(len, by_identifier.values())))


def _reach(target: PhasePolynomial, generators: tuple[PhasePolynomial, ...]) -> int | None:
    """The largest deg mu - deg t over the target's monomials mu, t a
    generator term of highest degree dividing mu: no certificate has a
    lower degree (see the module docstring).  None when some mu has no
    such t, so that no certificate exists.  Some generator is nonzero.

    A monomial that is itself a generator term has the gap 0, so when every
    one is, the reach is 0 without the index.  Otherwise the work is at
    most the target's terms times the generators' distinct terms; above
    ``phase.MAX_TERM_PAIRS`` the screen is skipped and the bound
    deg target - deg t for the generator term t of highest degree, at
    least 0, is returned instead."""
    if all(any(mon in g.terms for g in generators) for mon in target.terms):
        return 0
    index = _term_index(generators)
    if len(target.terms) * index.size > phase.MAX_TERM_PAIRS:
        return max(target.total_degree() - index.top, 0)
    by_identifier, floor = index.by_identifier, index.floor
    identifiers = range(target.space.n_identifiers)
    reach = 0
    for mon in target.terms:
        best = floor
        for i in compress(identifiers, mon):
            # The first dividing term under i is its highest one there.
            for degree, term in by_identifier.get(i, ()):
                if degree <= best:
                    break
                if all(mon[j] >= e for j, e in term):
                    best = degree
                    break
        if best < 0:
            return None
        reach = max(reach, sum(mon) - best)
    return reach


def _certificate(
    space: PhaseSpace, solution: dict[int, Fraction], system: _System, target_scale: int
) -> tuple[PhasePolynomial, ...]:
    """The coefficients f_k = h_k * s_k / t of a solution h of the system
    over the generators scaled by s_k and the target scaled by t.  Only the
    solution's nonzero unknowns are visited, each gives a distinct term with
    a nonzero value, and every generator they miss gets one shared zero."""
    monomials, scales = system.monomials, system.scales
    terms: dict[int, dict[Exponents, Fraction]] = {}
    for col, value in solution.items():
        k, i = divmod(col, len(monomials))
        mon = _unpack(monomials[i], system.fields, system.width, space.n_identifiers)
        terms.setdefault(k, {})[mon] = value * Fraction(scales[k], target_scale)
    zero = PhasePolynomial.zero(space)
    return tuple(
        _adopt(space, terms[k]) if k in terms else zero for k in range(len(scales))
    )


def decompose(
    target: PhasePolynomial,
    generators: Sequence[PhasePolynomial],
    degree_bound: int | None = None,
    mode: CoefficientMode = CoefficientMode.POLYNOMIAL,
) -> IdealDecomposition | NotFound:
    """Express `target` over `generators` with bounded-degree coefficients.

    Degrees are tried in increasing order, so a success uses the smallest
    achievable coefficient degree and is therefore stable under enlarging the
    bound.  Coefficients may involve every declared identifier, parameters
    included, except in CONSTANT mode where they are plain rationals.

    The ladder starts at the target's reach (``_reach``), and only the
    degrees it builds count towards ``MAX_UNKNOWNS``.  A target with a
    monomial that no generator term divides tries no degree, whatever the
    number of generators; in POLYNOMIAL mode at a bound of 1 or more its
    ``NotFound`` is exact at once.  In that mode and range, the Groebner
    normal form (``_normal_form``) is consulted once, after the first
    failing solve, before a degree that would pass the cap or at the end of
    the ladder, whichever comes first; a nonzero one ends the search with
    an exact ``NotFound``.  A certificate at the reach needs no basis.

    A generator on another phase space is refused first, then a negative
    bound; CONSTANT mode records the bound 0 and None records
    ``default_degree_bound``.  A zero target is then answered at once with
    every coefficient zero, before any search; ``first_class_check`` and
    ``check_level_preservation`` ask once per module for their zero brackets
    and share that answer.
    """
    space = target.space
    generators = tuple(generators)
    for gen in generators:
        if gen.space is not space and gen.space != space:
            raise ValueError("generators must share the target's phase space")
    if mode is CoefficientMode.CONSTANT:
        degree_bound = 0
    elif degree_bound is None:
        degree_bound = default_degree_bound(target, generators)
    elif degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    if not target:
        zero = PhasePolynomial.zero(space)
        return IdealDecomposition(target, generators, (zero,) * len(generators), degree_bound)

    if not any(generators):  # the zero ideal, all-zero generators included
        return NotFound(degree_bound, mode, exact=True)

    # A negative answer can be exact only for polynomial coefficients at a
    # bound of 1 or more; there the normal form is yet to be consulted.
    consult = mode is CoefficientMode.POLYNOMIAL and degree_bound > 0
    reach = _reach(target, generators)
    if reach is None:
        return NotFound(degree_bound, mode, exact=consult)

    allowed: set[int] = set(target.used_indices())
    for gen in generators:
        allowed |= gen.used_indices()
    allowed_order = tuple(sorted(allowed))
    max_useful = degree_bound if allowed_order else 0
    target_scale, target_terms = integer_scaled(target.terms)
    unknowns = 0
    for degree in range(reach, max_useful + 1):
        unknowns += comb(len(allowed_order) + degree, degree) * len(generators)
        if unknowns > MAX_UNKNOWNS:
            # At degree 0 the generators alone pass the cap: refused first.
            if degree and consult and _normal_form(target, generators):
                return NotFound(degree_bound, mode, exact=True)
            raise SearchTooLargeError(
                f"membership search up to coefficient degree {degree} would "
                f"solve for {unknowns} unknowns ({len(generators)} generators "
                f"over {len(allowed_order)} identifiers), above the limit of "
                f"{MAX_UNKNOWNS}; a smaller degree bound keeps it within the limit"
            )
        system = _KEPT.get(
            (generators, allowed_order, degree),
            _build_system, generators, allowed_order, degree,
        )
        # From degree >= reach, every target monomial has degree at most
        # degree plus a generator's, so its exponents fit the fields.
        packed = {_pack(mon, system.fields): c for mon, c in target_terms.items()}
        solution = _solve(system, packed)
        if solution is not None:
            coefficients = _certificate(space, solution, system, target_scale)
            result = IdealDecomposition(target, generators, coefficients, degree_bound)
            if not result.verify():  # soundness guard, must never trip
                raise RuntimeError(
                    "internal error: decomposition failed re-expansion check"
                )
            return result
        if consult:
            if _normal_form(target, generators):
                return NotFound(degree_bound, mode, exact=True)
            consult = False  # a member above this degree, or a budget ran out
    if consult and _normal_form(target, generators):
        return NotFound(degree_bound, mode, exact=True)
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
