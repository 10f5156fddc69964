"""Constraint-hierarchy generation and total-Hamiltonian assembly.

Starting from the dynamical Hamiltonian and the primary constraints, each
bracket {constraint, H_d} is split once over the tagged rational span of the
constraints found so far: independent residuals become the next level, and
the coordinates left by the split are the rows of the bracket tables.  The
hierarchy is hard-capped at three levels (primary, secondary, tertiary); a
tertiary bracket that is not weakly zero raises ``ChainBeyondTertiaryError``.
Weak zero means membership in the on-shell module, the constraints extended by
H_d - E; a ``ConstrainedSystem`` builds that generator once, and the tertiary
closure and every ``on_shell_generators`` call share the one polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    ChainBeyondTertiaryError,
    DependentPrimariesError,
    InconsistentSystemError,
    ReservedParameterError,
)
from .linsolve import RationalSpan, rational_rank
from .membership import IdealDecomposition, NotFound, _reexpand, decompose
from .phase import PhasePolynomial, PhaseSpace, _adopt, _Frozen, _grlex_key, poisson

LEVELS = ("primary", "secondary", "tertiary")


def _consistent_residual(
    space: PhaseSpace, residual, source: str, what: str = ""
) -> PhasePolynomial:
    """The residual that `what`, by default the bracket of `source` with H_d,
    leaves over the span of the constraints before it, as a polynomial,
    adopting `residual`, a fresh dict of nonzero ``Fraction``s; a nonzero
    residual with no phase-variable support means the system has no
    solutions."""
    candidate = _adopt(space, residual)
    n_vars = 2 * space.n_dof
    if all(idx >= n_vars for idx in candidate.used_indices()):
        raise InconsistentSystemError(
            f"{what or f'bracket of {source} with H_d'} leaves the nonzero "
            f"constant residual {candidate}: the system has no solutions",
            residual=candidate,
            source=source,
        )
    return candidate


class ConstrainedSystem(_Frozen):
    """Dynamical Hamiltonian plus the declared primary constraints.

    The on-shell generator H_d - E is built once, on construction, into the
    private ``_on_shell``: every on-shell module of the system ends in that
    one polynomial.  Equality, hash and repr read the four public fields.
    """

    __slots__ = ("space", "h_d", "primaries", "primary_names", "_on_shell")
    _compared = _shown = ("space", "h_d", "primaries", "primary_names")

    def __init__(
        self,
        space: PhaseSpace,
        h_d: PhasePolynomial,
        primaries: tuple[PhasePolynomial, ...],
        primary_names: tuple[str, ...] = (),
    ):
        if h_d.space != space:
            raise ValueError("H_d must live on the system's phase space")
        primaries = tuple(primaries)
        names = tuple(primary_names) or tuple(f"P{i}" for i in range(1, len(primaries) + 1))
        if len(names) != len(primaries):
            raise ValueError("one name per primary constraint required")
        if len(set(names)) != len(names):
            raise ValueError("primary constraint names must be unique")
        for poly in primaries:
            if poly.space != space:
                raise ValueError("primary constraints must share the phase space")
            if poly.is_zero():
                raise DependentPrimariesError("zero polynomial among primaries")
        if rational_rank(p.terms for p in primaries) != len(primaries):
            raise DependentPrimariesError(
                "primary constraints are linearly dependent over the rationals"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "h_d", h_d)
        object.__setattr__(self, "primaries", primaries)
        object.__setattr__(self, "primary_names", names)
        object.__setattr__(self, "_on_shell", h_d - PhasePolynomial.variable(space, "E"))


class ConstraintChain(NamedTuple):
    """Three-level constraint hierarchy, indexed by level (``LEVELS``).

    ``levels[d]`` holds level d's constraints, ``names[d]`` their names and
    ``brackets[d]`` their brackets with H_d.  ``rows`` has one row per primary
    and per secondary bracket, in level order: the bracket's constant
    coordinates over every constraint.  ``table`` reads a block of them, so
    ``table(0, 1, 2)`` is the primary->secondary table.  In the strict level
    form every bracket lies on the next level alone, and the off-level blocks
    ``table(0, 0, 1)`` and ``table(1, 0, 2)`` are zero.  ``tertiary_closure``
    certifies each tertiary bracket over the on-shell module.
    """

    system: ConstrainedSystem
    levels: tuple[tuple[PhasePolynomial, ...], ...]
    names: tuple[tuple[str, ...], ...]
    brackets: tuple[tuple[PhasePolynomial, ...], ...]
    rows: tuple[tuple[PhasePolynomial, ...], ...]
    tertiary_closure: tuple[IdealDecomposition, ...]
    degree_bound: int | None

    @property
    def space(self) -> PhaseSpace:
        return self.system.space

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.levels))

    @property
    def ordering_ok(self) -> bool:
        """N_p >= N_s >= N_t, which holds by construction: each bracket adds
        at most one constraint to the next level."""
        n_p, n_s, n_t = self.counts
        return n_p >= n_s >= n_t

    @property
    def strict_level_form(self) -> bool:
        """No bracket has a component on its own level or an earlier one."""
        return not any(
            any(row) for depth in (0, 1) for row in self.table(depth, 0, depth + 1)
        )

    def table(
        self, row_level: int, first_level: int, stop_level: int
    ) -> tuple[tuple[PhasePolynomial, ...], ...]:
        """The coordinates of level `row_level`'s brackets on the constraints
        of levels `first_level` up to, not including, `stop_level`."""
        counts = self.counts
        start, first, stop = (sum(counts[:d]) for d in (row_level, first_level, stop_level))
        return tuple(
            row[first:stop] for row in self.rows[start : start + counts[row_level]]
        )

    def all_constraints(self) -> tuple[PhasePolynomial, ...]:
        return sum(self.levels, ())

    def all_names(self) -> tuple[str, ...]:
        return sum(self.names, ())

    def on_shell_generators(
        self, include_energy: bool = True
    ) -> tuple[tuple[str, ...], tuple[PhasePolynomial, ...]]:
        """Constraints, optionally extended by the on-shell generator H_d - E."""
        names = self.all_names()
        polys = self.all_constraints()
        if include_energy:
            names = names + ("H_d-E",)
            polys = polys + (self.system._on_shell,)
        return names, polys


def _build_chain(
    system: ConstrainedSystem,
    degree_bound: int | None,
    given: Sequence[Sequence[PhasePolynomial]] | None = None,
) -> ConstraintChain:
    """The chain of `system`, splitting each bracket {constraint, H_d} once
    over one ``RationalSpan`` tagged (level, index).  A nonzero primary or
    secondary residual, normalized, is a constraint of the next level; the
    coordinates left are the table rows, unique as the constraints are
    independent.  Each primary's residual over the primaries before it is
    checked as a bracket residual is.  ``given`` (a recombined chain's
    secondaries and tertiaries) fixes the levels up front, and tertiary
    residuals go unchecked.
    """
    space, h_d = system.space, system.h_d
    levels = (list(system.primaries), *(list(polys) for polys in given or ((), ())))
    names = (list(system.primary_names), [], [])
    span = RationalSpan()
    for depth, level in enumerate(levels):
        for index, poly in enumerate(level):
            residual = span.add(poly.terms, (depth, index))
            if not depth:
                # A constant in the primaries' span is some primary's residual:
                # the constant monomial comes last in graded-lex order.
                name = names[0][index]
                _consistent_residual(
                    space, residual, name, f"primary {name} over the primaries before it"
                )
    brackets = ([], [], [])
    coordinates = []
    for depth, level in enumerate(levels):
        for index, poly in enumerate(level):
            if depth:
                names[depth].append(f"{'ST'[depth - 1]}{index + 1}")
            name = names[depth][index]
            brackets[depth].append(poisson(poly, h_d))
            residual, row = span.split(brackets[depth][-1].terms)
            if residual and depth < 2:
                scale = residual[max(residual, key=_grlex_key)]
                found = _consistent_residual(
                    space, {m: c / scale for m, c in residual.items()}, name
                )
                row[depth + 1, len(levels[depth + 1])] = scale
                span.add(found.terms, (depth + 1, len(levels[depth + 1])))
                levels[depth + 1].append(found)
            elif residual and given is None:
                # Anything past the third level is outside the supported
                # theory; detect it on the raw span before the (more
                # permissive) weak-closure test runs.
                _consistent_residual(space, residual, name)
            coordinates.append(row)

    levels, names, brackets = (tuple(map(tuple, lists)) for lists in (levels, names, brackets))
    all_constraints = sum(levels, ())
    keys = [(d, i) for d, level in enumerate(levels) for i in range(len(level))]
    zero = PhasePolynomial.zero(space)
    rows = []
    for name, bracket, row in zip(names[0] + names[1], brackets[0] + brackets[1], coordinates):
        rows.append(tuple(
            PhasePolynomial.constant(space, row[k]) if k in row else zero for k in keys
        ))
        # Each published row is re-expanded once; this guard must never trip.
        if _reexpand(bracket, rows[-1], all_constraints) != bracket.terms:
            raise RuntimeError(f"internal error: table row of {name} failed re-expansion")

    closure_generators = all_constraints + (system._on_shell,)
    closures = []
    for name, bracket in zip(names[2], brackets[2]):
        outcome = decompose(bracket, closure_generators, degree_bound)
        if isinstance(outcome, NotFound):
            reason = "not in the on-shell module" if outcome.exact else outcome.message
            raise ChainBeyondTertiaryError(
                f"bracket of tertiary constraint {name} with H_d is not weakly "
                f"zero ({reason}): the hierarchy continues past three levels",
                source=name,
                bracket=bracket,
            )
        closures.append(outcome)
    return ConstraintChain(
        system, levels, names, brackets, tuple(rows), tuple(closures), degree_bound
    )


def generate_chain(
    system: ConstrainedSystem, degree_bound: int | None = None
) -> ConstraintChain:
    """Generate the secondary and tertiary constraints from the primaries.

    Each bracket {constraint, H_d} is computed once and split over the
    rational span of every constraint known so far; a nonzero residual is
    normalized (leading graded-lex coefficient +1) and becomes a constraint
    of the next level, so duplicates are removed as soon as they appear.  A
    residual with no phase-variable support signals an inconsistent system.
    """
    return _build_chain(system, degree_bound)


def recombine_level(
    chain: ConstraintChain, level: str, matrix: Sequence[Sequence[Fraction]]
) -> ConstraintChain:
    """Replace one level's basis by an invertible rational recombination.

    Rebuilds the chain on the new basis, every bracket and table included;
    used to check that verdicts are basis-independent within a level.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    depth = LEVELS.index(level)
    old = chain.levels[depth]
    n = len(old)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"recombination matrix must be {n}x{n}")
    if rational_rank({j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix) != n:
        raise ValueError("recombination matrix must be invertible over the rationals")
    zero = PhasePolynomial.zero(chain.space)
    levels = list(chain.levels)
    levels[depth] = tuple(
        sum((Fraction(c) * phi for c, phi in zip(row, old)), zero) for row in matrix
    )
    system = chain.system
    if depth == 0:
        system = ConstrainedSystem(chain.space, system.h_d, levels[0], system.primary_names)
    return _build_chain(system, chain.degree_bound, levels[1:])


class TotalHamiltonian(NamedTuple):
    """H_d plus multiplier-weighted constraints on an extended phase space."""

    space: PhaseSpace
    h_tot: PhasePolynomial
    multiplier_names: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    certificate: IdealDecomposition


def assemble_total_hamiltonian(
    system: ConstrainedSystem, chain: ConstraintChain
) -> TotalHamiltonian:
    """Adjoin fresh multipliers v_i, u_j, w_k and assemble the weighted sum.

    The returned certificate shows H_tot - H_d decomposing over the lifted
    constraints with the multipliers themselves as coefficients, which is the
    weak equality of the total and dynamical Hamiltonians.

    Each multiplier is its own identifier, appended to the space, so the
    weighted terms v_j * t of the constraints' terms t have pairwise distinct
    monomials, none of them a monomial of H_d: H_tot's terms are H_d's and
    the weighted ones, and the certificate's target is the weighted ones
    alone, all without a polynomial sum.  The certificate is still verified,
    multiplying each v_j by its constraint on its own.
    """
    multiplier_names = tuple(
        tuple(f"{letter}{i}" for i in range(1, len(level) + 1))
        for letter, level in zip("vuw", chain.levels)
    )
    fresh = sum(multiplier_names, ())
    clash = [name for name in fresh if system.space.has_identifier(name)]
    if clash:
        raise ReservedParameterError(
            f"multiplier names {clash} collide with declared parameters"
        )
    ext = system.space.extend(fresh)
    lifted = tuple(poly.in_space(ext) for poly in chain.all_constraints())
    base = system.space.n_identifiers
    weighted = {}
    for j, poly in enumerate(lifted):
        # v_j's exponent 1 in place of the lifted zeros of the multipliers
        pad = (0,) * j + (1,) + (0,) * (len(fresh) - 1 - j)
        for mon, coeff in poly.terms.items():
            weighted[mon[:base] + pad] = coeff
    h_tot = _adopt(ext, {**system.h_d.in_space(ext).terms, **weighted})
    certificate = IdealDecomposition(
        target=_adopt(ext, weighted),
        generators=lifted,
        coefficients=tuple(PhasePolynomial.variable(ext, name) for name in fresh),
        degree_bound=1,
    )
    if not certificate.verify():  # pragma: no cover - structural identity
        raise RuntimeError("internal error: total-Hamiltonian certificate invalid")
    return TotalHamiltonian(ext, h_tot, multiplier_names, certificate)


class PairBracketCheck(NamedTuple):
    """One pairwise constraint bracket tested against the on-shell module."""

    name_a: str
    name_b: str
    bracket: PhasePolynomial
    first_class: bool
    certificate: IdealDecomposition | NotFound


class FirstClassReport(NamedTuple):
    pairs: tuple[PairBracketCheck, ...]
    all_first_class: bool
    include_energy: bool
    degree_bound: int | None


def first_class_check(
    chain: ConstraintChain,
    degree_bound: int | None = None,
    include_energy: bool = True,
) -> FirstClassReport:
    """Test every constraint pair's bracket for membership in the on-shell module.

    Failures are findings about the system, not faults: the report carries a
    ``NotFound`` for each flagged pair, exact or bounded by the degree.  The
    zero brackets share one answer, the all-zero certificate ``decompose``
    gives the first of them.
    """
    names = chain.all_names()
    polys = chain.all_constraints()
    _, ideal = chain.on_shell_generators(include_energy)
    pairs = []
    zero = None
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            bracket = poisson(polys[a], polys[b])
            if bracket or zero is None:
                outcome = decompose(bracket, ideal, degree_bound)
                if not bracket:
                    zero = outcome
            else:
                outcome = zero
            pairs.append(
                PairBracketCheck(
                    names[a],
                    names[b],
                    bracket,
                    isinstance(outcome, IdealDecomposition),
                    outcome,
                )
            )
    return FirstClassReport(
        tuple(pairs),
        all(p.first_class for p in pairs),
        include_energy,
        degree_bound,
    )
