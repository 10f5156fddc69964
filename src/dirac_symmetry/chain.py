"""Constraint-hierarchy generation and total-Hamiltonian assembly.

Starting from the dynamical Hamiltonian and the primary constraints, each
bracket {constraint, H_d} is reduced against the rational span of the
constraints found so far; independent residuals become the next level.  The
hierarchy is hard-capped at three levels (primary, secondary, tertiary); a
tertiary bracket that is not weakly zero raises ``ChainBeyondTertiaryError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    ChainBeyondTertiaryError,
    DependentPrimariesError,
    InconsistentSystemError,
    ReservedParameterError,
)
from .linsolve import RationalSpan, rational_rank
from .membership import (
    CoefficientMode,
    IdealDecomposition,
    NotFound,
    decompose,
)
from .phase import PhasePolynomial, PhaseSpace, poisson

LEVELS = ("primary", "secondary", "tertiary")


def _consistent_residual(space: PhaseSpace, residual, source: str) -> PhasePolynomial:
    """The residual of {source, H_d} as a polynomial; a nonzero residual with
    no phase-variable support means the system has no solutions."""
    candidate = PhasePolynomial(space, residual)
    n_vars = 2 * space.n_dof
    if all(idx >= n_vars for idx in candidate.used_indices()):
        raise InconsistentSystemError(
            f"bracket of {source} with H_d leaves the nonzero constant "
            f"residual {candidate}: the system has no solutions",
            residual=candidate,
            source=source,
        )
    return candidate


@dataclass(frozen=True)
class ConstrainedSystem:
    """Dynamical Hamiltonian plus the declared primary constraints."""

    space: PhaseSpace
    h_d: PhasePolynomial
    primaries: tuple[PhasePolynomial, ...]
    primary_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.h_d.space != self.space:
            raise ValueError("H_d must live on the system's phase space")
        names = self.primary_names or tuple(
            f"P{i}" for i in range(1, len(self.primaries) + 1)
        )
        if len(names) != len(self.primaries):
            raise ValueError("one name per primary constraint required")
        if len(set(names)) != len(names):
            raise ValueError("primary constraint names must be unique")
        object.__setattr__(self, "primary_names", names)
        for poly in self.primaries:
            if poly.space != self.space:
                raise ValueError("primary constraints must share the phase space")
            if poly.is_zero():
                raise DependentPrimariesError("zero polynomial among primaries")
        if rational_rank(p.terms for p in self.primaries) != len(self.primaries):
            raise DependentPrimariesError(
                "primary constraints are linearly dependent over the rationals"
            )


@dataclass(frozen=True)
class ConstraintChain:
    """Three-level constraint hierarchy with bracket-decomposition tables.

    ``primary_to_secondary[i][l]`` is the coefficient of secondary l in
    {primary i, H_d}; likewise ``primary_to_tertiary`` and
    ``secondary_to_tertiary``.  Components that fall outside that strict
    level pattern (e.g. a primary bracket with a component on a primary) are
    kept in the spill tables and clear the ``strict_level_form`` flag.
    """

    system: ConstrainedSystem
    secondaries: tuple[PhasePolynomial, ...]
    tertiaries: tuple[PhasePolynomial, ...]
    secondary_names: tuple[str, ...]
    tertiary_names: tuple[str, ...]
    primary_brackets: tuple[PhasePolynomial, ...]
    secondary_brackets: tuple[PhasePolynomial, ...]
    tertiary_brackets: tuple[PhasePolynomial, ...]
    primary_to_secondary: tuple[tuple[PhasePolynomial, ...], ...]
    primary_to_tertiary: tuple[tuple[PhasePolynomial, ...], ...]
    secondary_to_tertiary: tuple[tuple[PhasePolynomial, ...], ...]
    primary_spill: tuple[tuple[PhasePolynomial, ...], ...]
    secondary_spill: tuple[tuple[PhasePolynomial, ...], ...]
    tertiary_closure: tuple[IdealDecomposition, ...]
    ordering_ok: bool
    strict_level_form: bool
    degree_bound: int | None

    @property
    def space(self) -> PhaseSpace:
        return self.system.space

    @property
    def primaries(self) -> tuple[PhasePolynomial, ...]:
        return self.system.primaries

    @property
    def primary_names(self) -> tuple[str, ...]:
        return self.system.primary_names

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.primaries), len(self.secondaries), len(self.tertiaries))

    def level_polys(self, level: str) -> tuple[PhasePolynomial, ...]:
        return {
            "primary": self.primaries,
            "secondary": self.secondaries,
            "tertiary": self.tertiaries,
        }[level]

    def level_names(self, level: str) -> tuple[str, ...]:
        return {
            "primary": self.primary_names,
            "secondary": self.secondary_names,
            "tertiary": self.tertiary_names,
        }[level]

    def all_constraints(self) -> tuple[PhasePolynomial, ...]:
        return self.primaries + self.secondaries + self.tertiaries

    def all_names(self) -> tuple[str, ...]:
        return self.primary_names + self.secondary_names + self.tertiary_names

    def on_shell_generators(
        self, include_energy: bool = True
    ) -> tuple[tuple[str, ...], tuple[PhasePolynomial, ...]]:
        """Constraints, optionally extended by the on-shell generator H_d - E."""
        names = self.all_names()
        polys = self.all_constraints()
        if include_energy:
            energy = PhasePolynomial.variable(self.space, "E")
            names = names + ("H_d-E",)
            polys = polys + (self.system.h_d - energy,)
        return names, polys


def _split_constant_decomposition(
    coefficients: Sequence[PhasePolynomial], counts: tuple[int, int, int]
) -> tuple[tuple[PhasePolynomial, ...], ...]:
    n_p, n_s, n_t = counts
    return (
        tuple(coefficients[:n_p]),
        tuple(coefficients[n_p : n_p + n_s]),
        tuple(coefficients[n_p + n_s : n_p + n_s + n_t]),
    )


def _build_chain(
    system: ConstrainedSystem,
    secondaries: Sequence[PhasePolynomial],
    tertiaries: Sequence[PhasePolynomial],
    secondary_names: Sequence[str],
    tertiary_names: Sequence[str],
    degree_bound: int | None,
) -> ConstraintChain:
    h_d = system.h_d
    all_constraints = tuple(system.primaries) + tuple(secondaries) + tuple(tertiaries)
    counts = (len(system.primaries), len(secondaries), len(tertiaries))

    def exact_split(bracket: PhasePolynomial, source: str):
        outcome = decompose(bracket, all_constraints, mode=CoefficientMode.CONSTANT)
        if isinstance(outcome, NotFound):  # cannot happen for a generated chain
            raise RuntimeError(
                f"internal error: bracket of {source} left the constraint span"
            )
        return _split_constant_decomposition(outcome.coefficients, counts)

    primary_brackets = tuple(poisson(p, h_d) for p in system.primaries)
    secondary_brackets = tuple(poisson(s, h_d) for s in secondaries)
    tertiary_brackets = tuple(poisson(t, h_d) for t in tertiaries)

    spill_p, table_a, table_b = [], [], []
    for name, bracket in zip(system.primary_names, primary_brackets):
        on_p, on_s, on_t = exact_split(bracket, name)
        spill_p.append(on_p)
        table_a.append(on_s)
        table_b.append(on_t)
    spill_s, table_c = [], []
    for name, bracket in zip(secondary_names, secondary_brackets):
        on_p, on_s, on_t = exact_split(bracket, name)
        spill_s.append(on_p + on_s)
        table_c.append(on_t)

    energy = PhasePolynomial.variable(system.space, "E")
    closure_generators = all_constraints + (h_d - energy,)
    closures = []
    for name, bracket in zip(tertiary_names, tertiary_brackets):
        outcome = decompose(bracket, closure_generators, degree_bound)
        if isinstance(outcome, NotFound):
            raise ChainBeyondTertiaryError(
                f"bracket of tertiary constraint {name} with H_d is not weakly "
                f"zero ({outcome.message}): the hierarchy continues past three levels",
                source=name,
                bracket=bracket,
            )
        closures.append(outcome)

    strict = all(
        all(c.is_zero() for c in row) for row in spill_p
    ) and all(all(c.is_zero() for c in row) for row in spill_s)
    chain = ConstraintChain(
        system=system,
        secondaries=tuple(secondaries),
        tertiaries=tuple(tertiaries),
        secondary_names=tuple(secondary_names),
        tertiary_names=tuple(tertiary_names),
        primary_brackets=primary_brackets,
        secondary_brackets=secondary_brackets,
        tertiary_brackets=tertiary_brackets,
        primary_to_secondary=tuple(table_a),
        primary_to_tertiary=tuple(table_b),
        secondary_to_tertiary=tuple(table_c),
        primary_spill=tuple(spill_p),
        secondary_spill=tuple(spill_s),
        tertiary_closure=tuple(closures),
        ordering_ok=counts[0] >= counts[1] >= counts[2],
        strict_level_form=strict,
        degree_bound=degree_bound,
    )
    _assert_reexpansion(chain)
    return chain


def _assert_reexpansion(chain: ConstraintChain) -> None:
    """Every recorded bracket relation must re-expand exactly."""
    zero = PhasePolynomial.zero(chain.space)

    def recombine(rows, polys):
        return [
            sum((c * phi for c, phi in zip(row, polys)), zero) for row in rows
        ]

    for bracket, on_p, on_s, on_t in zip(
        chain.primary_brackets,
        recombine(chain.primary_spill, chain.primaries),
        recombine(chain.primary_to_secondary, chain.secondaries),
        recombine(chain.primary_to_tertiary, chain.tertiaries),
    ):
        if bracket != on_p + on_s + on_t:
            raise RuntimeError("internal error: primary bracket table mismatch")
    ps = chain.primaries + chain.secondaries
    for bracket, on_ps, on_t in zip(
        chain.secondary_brackets,
        recombine(chain.secondary_spill, ps),
        recombine(chain.secondary_to_tertiary, chain.tertiaries),
    ):
        if bracket != on_ps + on_t:
            raise RuntimeError("internal error: secondary bracket table mismatch")
    for cert in chain.tertiary_closure:
        if not cert.verify():
            raise RuntimeError("internal error: tertiary closure certificate invalid")


def generate_chain(
    system: ConstrainedSystem, degree_bound: int | None = None
) -> ConstraintChain:
    """Generate the secondary and tertiary constraints from the primaries.

    Each bracket {constraint, H_d} is reduced against the rational span of
    every constraint known so far; a nonzero residual is normalized (leading
    graded-lex coefficient +1) and becomes a constraint of the next level, so
    duplicates are removed as soon as they appear.  A residual with no
    phase-variable support signals an inconsistent system.
    """
    span = RationalSpan()
    for poly in system.primaries:  # independent: ConstrainedSystem checks it
        span.add(poly.terms)

    def next_level(sources, source_names):
        found = []
        for poly, name in zip(sources, source_names):
            residual = span.add(poisson(poly, system.h_d).terms)
            if residual is not None:
                found.append(_consistent_residual(system.space, residual, name))
        return found

    secondaries = next_level(system.primaries, system.primary_names)
    secondary_names = tuple(f"S{i}" for i in range(1, len(secondaries) + 1))
    tertiaries = next_level(secondaries, secondary_names)
    tertiary_names = tuple(f"T{i}" for i in range(1, len(tertiaries) + 1))

    # Anything past the third level is outside the supported theory; detect it
    # on the raw span before the (more permissive) weak-closure test runs.
    for name, poly in zip(tertiary_names, tertiaries):
        residual = span.reduce(poisson(poly, system.h_d).terms)
        if residual:
            _consistent_residual(system.space, residual, name)
    return _build_chain(
        system, secondaries, tertiaries, secondary_names, tertiary_names, degree_bound
    )


def recombine_level(
    chain: ConstraintChain, level: str, matrix: Sequence[Sequence[Fraction]]
) -> ConstraintChain:
    """Replace one level's basis by an invertible rational recombination.

    Rebuilds every decomposition table against the new basis; used to check
    that verdicts are basis-independent within a level.
    """
    old = chain.level_polys(level)
    n = len(old)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"recombination matrix must be {n}x{n}")
    if rational_rank({j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix) != n:
        raise ValueError("recombination matrix must be invertible over the rationals")
    zero = PhasePolynomial.zero(chain.space)
    new_polys = tuple(
        sum((Fraction(c) * phi for c, phi in zip(row, old)), zero) for row in matrix
    )
    system = chain.system
    if level == "primary":
        system = ConstrainedSystem(
            chain.space, system.h_d, new_polys, chain.primary_names
        )
    return _build_chain(
        system,
        new_polys if level == "secondary" else chain.secondaries,
        new_polys if level == "tertiary" else chain.tertiaries,
        chain.secondary_names,
        chain.tertiary_names,
        chain.degree_bound,
    )


@dataclass(frozen=True)
class TotalHamiltonian:
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
    """
    v_names = tuple(f"v{i}" for i in range(1, len(chain.primaries) + 1))
    u_names = tuple(f"u{j}" for j in range(1, len(chain.secondaries) + 1))
    w_names = tuple(f"w{k}" for k in range(1, len(chain.tertiaries) + 1))
    fresh = v_names + u_names + w_names
    clash = [name for name in fresh if system.space.has_identifier(name)]
    if clash:
        raise ReservedParameterError(
            f"multiplier names {clash} collide with declared parameters"
        )
    ext = system.space.extend(fresh)
    h_tot = system.h_d.in_space(ext)
    lifted = []
    coefficients = []
    for name, poly in zip(fresh, chain.all_constraints()):
        multiplier = PhasePolynomial.variable(ext, name)
        lifted.append(poly.in_space(ext))
        coefficients.append(multiplier)
        h_tot = h_tot + multiplier * lifted[-1]
    certificate = IdealDecomposition(
        target=h_tot - system.h_d.in_space(ext),
        generators=tuple(lifted),
        coefficients=tuple(coefficients),
        degree_bound=1,
    )
    if not certificate.verify():  # pragma: no cover - structural identity
        raise RuntimeError("internal error: total-Hamiltonian certificate invalid")
    return TotalHamiltonian(ext, h_tot, (v_names, u_names, w_names), certificate)


@dataclass(frozen=True)
class PairBracketCheck:
    """One pairwise constraint bracket tested against the on-shell module."""

    name_a: str
    name_b: str
    bracket: PhasePolynomial
    first_class: bool
    certificate: IdealDecomposition | NotFound


@dataclass(frozen=True)
class FirstClassReport:
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
    ``NotFound`` for each flagged pair, exact or bounded by the degree.
    """
    names = chain.all_names()
    polys = chain.all_constraints()
    _, ideal = chain.on_shell_generators(include_energy)
    pairs = []
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            bracket = poisson(polys[a], polys[b])
            outcome = decompose(bracket, ideal, degree_bound)
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
