"""Verification of candidate symmetry generators for constrained systems.

A generator passes when its bracket with H_d vanishes identically (strict)
or decomposes over the constraints and the on-shell generator H_d - E
(on-shell), when its action maps every constraint level into that level's
own module, and when the generator set closes with constant structure
coefficients.  Every verdict carries re-expandable certificates, and every
negative answer is qualified by the degree bound of the search.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .chain import LEVELS, ConstrainedSystem, ConstraintChain
from .linsolve import rational_rank
from .membership import CoefficientMode, IdealDecomposition, NotFound, decompose
from .phase import _ZERO, PhasePolynomial, _Frozen, _shared_pairs, poisson


class CommutationClass(Enum):
    STRICT = "strict"
    ON_SHELL = "on-shell"
    FAILS = "fails"


class VerdictClass(Enum):
    STRICT_SYMMETRY = "StrictSymmetry"
    DYNAMICAL_SYMMETRY = "DynamicalSymmetry"
    MIXES_CONSTRAINTS = "MixesConstraints"
    NOT_SYMMETRY = "NotSymmetry"


_STRENGTH = (  # weakest first
    VerdictClass.NOT_SYMMETRY,
    VerdictClass.MIXES_CONSTRAINTS,
    VerdictClass.DYNAMICAL_SYMMETRY,
    VerdictClass.STRICT_SYMMETRY,
)


class GeneratorSet(_Frozen):
    """Ordered, named, rationally independent generator polynomials."""

    __slots__ = ("names", "generators")
    _compared = _shown = __slots__

    def __init__(self, names: tuple[str, ...], generators: tuple[PhasePolynomial, ...]):
        if not generators:
            raise ValueError("generator set must be nonempty")
        if len(names) != len(generators):
            raise ValueError("one name per generator required")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        space = generators[0].space
        for poly in generators:
            if poly.space != space:
                raise ValueError("generators must share one phase space")
            if poly.is_zero():
                raise ValueError("zero polynomial among generators")
        if rational_rank(p.terms for p in generators) != len(generators):
            raise ValueError("generators are linearly dependent over the rationals")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "generators", tuple(generators))

    def __len__(self) -> int:
        return len(self.generators)


# ----------------------------------------------------------------------
# commutation with H_d
# ----------------------------------------------------------------------
def check_dynamical_symmetry(
    generator: PhasePolynomial,
    system: ConstrainedSystem,
    chain: ConstraintChain,
    degree_bound: int | None = None,
    include_energy: bool = True,
) -> tuple[CommutationClass, PhasePolynomial, IdealDecomposition | NotFound]:
    """Classify {A, H_d}: identically zero, weakly zero, or neither.

    Returns (class, bracket, certificate).  The bracket is decomposed over
    the on-shell module; a zero bracket is STRICT, and ``decompose`` answers
    it with the all-zero certificate before any search.  A FAILS answer is
    conclusive only up to the degree bound recorded on the certificate.
    """
    bracket = poisson(generator, system.h_d)
    _, ideal = chain.on_shell_generators(include_energy)
    outcome = decompose(bracket, ideal, degree_bound)
    if not bracket:
        return CommutationClass.STRICT, bracket, outcome
    if isinstance(outcome, IdealDecomposition):
        return CommutationClass.ON_SHELL, bracket, outcome
    return CommutationClass.FAILS, bracket, outcome


# ----------------------------------------------------------------------
# level preservation
# ----------------------------------------------------------------------
class ConstraintImage(NamedTuple):
    """Action of a generator on one constraint."""

    level: str
    name: str
    image: PhasePolynomial
    within_level: IdealDecomposition | NotFound
    across_levels: IdealDecomposition | NotFound | None


class MixingFinding(NamedTuple):
    """A constraint whose image needs other levels to decompose."""

    source_level: str
    source_name: str
    target_level: str
    target_name: str
    coefficient: PhasePolynomial


class LevelPreservationReport(NamedTuple):
    images: tuple[ConstraintImage, ...]
    level_preserving: bool
    mixing: tuple[MixingFinding, ...]
    escapes: tuple[tuple[str, str], ...]  # (level, name) mapped outside the module


def check_level_preservation(
    generator: PhasePolynomial,
    chain: ConstraintChain,
    degree_bound: int | None = None,
    mode: CoefficientMode = CoefficientMode.POLYNOMIAL,
) -> LevelPreservationReport:
    """Decompose {A, phi} over phi's own level for every constraint phi.

    A failure that succeeds over the full constraint set is constraint
    mixing; a failure even there means the generator maps the constraint
    outside the constraint module entirely.  Both are reported with the
    offending pairs named.  Every zero image of a level shares one answer,
    the all-zero certificate ``decompose`` gives the first of them.
    """
    levels = tuple(zip(LEVELS, chain.levels, chain.names))
    all_polys = chain.all_constraints()
    targets = None  # (level, name) of every constraint, once a mixing needs it
    images: list[ConstraintImage] = []
    mixing: list[MixingFinding] = []
    escapes: list[tuple[str, str]] = []
    for level, polys, names in levels:
        zero = None
        for phi, name in zip(polys, names):
            image = poisson(generator, phi)
            if image or zero is None:
                within = decompose(image, polys, degree_bound, mode)
                if not image:
                    zero = within
            else:
                within = zero
            across = None
            if isinstance(within, NotFound):
                across = decompose(image, all_polys, degree_bound, mode)
                if isinstance(across, NotFound):
                    escapes.append((level, name))
                else:
                    if targets is None:
                        targets = [
                            (target_level, target_name)
                            for target_level, _, target_names in levels
                            for target_name in target_names
                        ]
                    mixing += [
                        MixingFinding(level, name, target_level, target_name, coeff)
                        for (target_level, target_name), coeff in zip(
                            targets, across.coefficients
                        )
                        if target_level != level and coeff
                    ]
            images.append(ConstraintImage(level, name, image, within, across))
    return LevelPreservationReport(
        tuple(images), not mixing and not escapes, tuple(mixing), tuple(escapes)
    )


# ----------------------------------------------------------------------
# count preservation
# ----------------------------------------------------------------------
class CountsReport(NamedTuple):
    applicable: bool
    ranks: dict[str, int | None]

    @property
    def counts_preserved(self) -> bool:
        """Counts are preserved wherever the check applies: level
        preservation bounds every rank by its level count."""
        return self.applicable


def check_counts(
    chain: ConstraintChain, level_report: LevelPreservationReport
) -> CountsReport:
    """Rank of the transformed constraints inside each level's own module.

    Only meaningful when level preservation holds (the rank of the
    coefficient rows then never exceeds the level count); reported as
    not-applicable otherwise.  Each image's row is its within-level
    coefficients, or zero where only an across-level search (with its larger
    default degree bound) found a certificate, on the image's own level.  A
    zero row adds no pivot, so the zero images, whose certificate is the
    all-zero one ``decompose`` gives a zero target, are left out before their
    coefficients are read.  A nonzero image's certificate sums to it, so it
    has a nonzero coefficient.
    """
    if not level_report.level_preserving:
        return CountsReport(False, {level: None for level in LEVELS})
    ranks: dict[str, int | None] = {
        level: rational_rank(
            {
                (target, monomial): value
                for target, coeff in enumerate(image.within_level.coefficients)
                for monomial, value in coeff.terms.items()
            }
            for image in level_report.images
            if image.level == level
            and image.image
            and isinstance(image.within_level, IdealDecomposition)
        )
        for level in LEVELS
    }
    return CountsReport(True, ranks)


# ----------------------------------------------------------------------
# closure and structure constants
# ----------------------------------------------------------------------
class StructureConstants(_Frozen):
    """Constant tensor C[k][i][j] with {A_i, A_j} = sum_k C[k][i][j] A_k.

    The nonzero entries are collected once, on construction, into
    ``nonzero`` as (k, i, j, value) in (k, i, j) order.  The scan skips
    every row equal to a row of ``phase._ZERO`` and keeps the last row it
    skipped to test the next one against: the zero rows of a tensor that
    ``closure_and_structure_constants`` built are one shared tuple, so all
    but the first are passed by one identity test.  Any other row (int
    zeros, distinct zero objects, lists) is read entry by entry, with the
    same result.  The Lie-law guards then run over the nonzero entries,
    so they cost in proportion to them rather than n^5, and store their
    results in ``antisymmetric`` and ``jacobi``.  Both stay exact checks on
    any tensor.  Two instances are equal when their names and tensors are.
    """

    __slots__ = ("names", "tensor", "nonzero", "antisymmetric", "jacobi")
    _compared = ("names", "tensor")
    _shown = ("names", "tensor", "antisymmetric", "jacobi")

    def __init__(
        self,
        names: tuple[str, ...],
        tensor: tuple[tuple[tuple[Fraction, ...], ...], ...],
    ):
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "tensor", tensor)
        zero_row = (_ZERO,) * len(names)
        nonzero = []
        for k, plane in enumerate(tensor):
            for i, row in enumerate(plane):
                if row is zero_row or row == zero_row:
                    zero_row = row  # so a shared zero row is next passed by identity
                    continue
                nonzero += [(k, i, j, value) for j, value in enumerate(row) if value]
        object.__setattr__(self, "nonzero", tuple(nonzero))
        object.__setattr__(self, "antisymmetric", self.antisymmetry_ok())
        object.__setattr__(self, "jacobi", self.jacobi_ok())

    def antisymmetry_ok(self) -> bool:
        """C[k][i][j] == -C[k][j][i] for all k, i, j.  A pair of zero entries
        holds trivially, and a pair with a nonzero entry is listed."""
        c = self.tensor
        return all(c[k][j][i] == -value for k, i, j, value in self.nonzero)

    def jacobi_ok(self) -> bool:
        """J(i, j, k, l) = T(i, j, k, l) + T(j, k, i, l) + T(k, i, j, l) == 0
        for all i, j, k, l, where T(i, j, k, l) = sum_m C[m][i][j] C[l][m][k].

        Only products of two nonzero entries are formed; each term of T is
        added to the three cyclic rotations of J it belongs to, and every
        J left out of the sums is zero.
        """
        by_middle: dict[int, list[tuple[int, int, Fraction]]] = {}
        for l, m, k, value in self.nonzero:
            by_middle.setdefault(m, []).append((l, k, value))
        jacobi: dict[tuple[int, int, int, int], Fraction] = {}
        for m, i, j, outer in self.nonzero:
            for l, k, inner in by_middle.get(m, ()):
                term = outer * inner
                for key in ((i, j, k, l), (k, i, j, l), (j, k, i, l)):
                    jacobi[key] = jacobi.get(key, 0) + term
        return not any(jacobi.values())

    def is_abelian(self) -> bool:
        return not self.nonzero


class NotClosed(NamedTuple):
    """First failing pair of a constant-coefficient closure search."""

    pair: tuple[str, str]
    bracket: PhasePolynomial
    field_dependent_close: bool
    field_certificate: IdealDecomposition | None


def closure_and_structure_constants(
    gen_set: GeneratorSet, degree_bound: int | None = None
) -> StructureConstants | NotClosed:
    """Extract C[k][i][j] from pairwise brackets, or report the failing pair.

    Closure demands truly constant coefficients.  When a pair only
    decomposes with field-dependent (polynomial) coefficients, that is
    flagged as a distinct diagnostic, not accepted as closure.

    A pair whose generators share no canonical pair (``phase._shared_pairs``
    is 0) has a zero bracket, which decomposes uniquely with zero
    constants: it is decided from the two generators' pair masks, and no
    bracket is formed.  Only the rows C[k][i] that hold a nonzero entry are
    built; every other row of ``tensor`` is one shared row of
    ``phase._ZERO``.  So an abelian set of n generators costs n^2 / 2 mask
    tests and n^2 row references, and no bracket.
    """
    n = len(gen_set)
    generators = gen_set.generators
    rows: dict[tuple[int, int], list[Fraction]] = {}  # (k, i) -> C[k][i]
    for i in range(n):
        for j in range(i + 1, n):
            if not _shared_pairs(generators[i], generators[j]):
                continue
            bracket = poisson(generators[i], generators[j])
            if not bracket:
                continue  # decomposes uniquely with zero constants: C stays 0
            outcome = decompose(bracket, generators, mode=CoefficientMode.CONSTANT)
            if isinstance(outcome, NotFound):
                retry = decompose(bracket, generators, degree_bound)
                closes = isinstance(retry, IdealDecomposition)
                return NotClosed(
                    (gen_set.names[i], gen_set.names[j]),
                    bracket,
                    closes,
                    retry if closes else None,
                )
            for k, coeff in enumerate(outcome.coefficients):
                if coeff:
                    value = coeff.constant_value()
                    rows.setdefault((k, i), [_ZERO] * n)[j] = value
                    rows.setdefault((k, j), [_ZERO] * n)[i] = -value
    zero_row = (_ZERO,) * n
    tensor = [[zero_row] * n for _ in range(n)]
    for (k, i), row in rows.items():
        tensor[k][i] = tuple(row)
    constants = StructureConstants(gen_set.names, tuple(map(tuple, tensor)))
    if not (constants.antisymmetric and constants.jacobi):
        # Unique decompositions over an independent set inherit both laws.
        raise RuntimeError("internal error: structure constants violate Lie laws")
    return constants


# ----------------------------------------------------------------------
# aggregate classification
# ----------------------------------------------------------------------
class GeneratorVerdict(NamedTuple):
    name: str
    generator: PhasePolynomial
    commutation_class: CommutationClass
    bracket_with_h_d: PhasePolynomial
    commutation_certificate: IdealDecomposition | NotFound
    level_report: LevelPreservationReport
    counts_report: CountsReport
    verdict: VerdictClass


class SymmetryVerdict(NamedTuple):
    generator_verdicts: tuple[GeneratorVerdict, ...]
    closure: StructureConstants | NotClosed
    overall: VerdictClass
    include_energy: bool
    degree_bound: int | None


def _generator_class(
    commutation: CommutationClass, level_report: LevelPreservationReport
) -> VerdictClass:
    if commutation is CommutationClass.FAILS or level_report.escapes:
        return VerdictClass.NOT_SYMMETRY
    if level_report.mixing:
        return VerdictClass.MIXES_CONSTRAINTS
    if commutation is CommutationClass.STRICT:
        return VerdictClass.STRICT_SYMMETRY
    return VerdictClass.DYNAMICAL_SYMMETRY


def classify(
    gen_set: GeneratorSet,
    system: ConstrainedSystem,
    chain: ConstraintChain,
    degree_bound: int | None = None,
    include_energy: bool = True,
    level_mode: CoefficientMode = CoefficientMode.POLYNOMIAL,
) -> SymmetryVerdict:
    """Run all four checks on every generator and aggregate the verdict.

    The overall class is the weakest per-generator class; a generator set
    that does not close with constant coefficients is no symmetry algebra at
    all, so closure failure caps the verdict at NotSymmetry.
    """
    verdicts = []
    for name, generator in zip(gen_set.names, gen_set.generators):
        commutation, bracket, certificate = check_dynamical_symmetry(
            generator, system, chain, degree_bound, include_energy
        )
        level_report = check_level_preservation(
            generator, chain, degree_bound, level_mode
        )
        counts_report = check_counts(chain, level_report)
        verdicts.append(
            GeneratorVerdict(
                name=name,
                generator=generator,
                commutation_class=commutation,
                bracket_with_h_d=bracket,
                commutation_certificate=certificate,
                level_report=level_report,
                counts_report=counts_report,
                verdict=_generator_class(commutation, level_report),
            )
        )
    closure = closure_and_structure_constants(gen_set, degree_bound)
    overall = min((v.verdict for v in verdicts), key=_STRENGTH.index)
    if isinstance(closure, NotClosed):
        overall = VerdictClass.NOT_SYMMETRY
    return SymmetryVerdict(
        generator_verdicts=tuple(verdicts),
        closure=closure,
        overall=overall,
        include_energy=include_energy,
        degree_bound=degree_bound,
    )
