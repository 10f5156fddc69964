import dataclasses
import random
import sys
import threading
import time
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, takewhile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirac_symmetry import (
    CoefficientMode,
    IdealDecomposition,
    NotFound,
    PhasePolynomial,
    PhaseSpace,
    SearchTooLargeError,
    SpaceMismatchError,
    decompose,
    default_degree_bound,
    em_modes,
    weak_equals,
)

from dirac_symmetry import chain, generate_chain, linsolve, membership
from dirac_symmetry.modelfile import parse_model_text
from conftest import poly, random_polynomial
from test_normal_form import on_shell_ideal, random_ideals, spy

SPACE = PhaseSpace(3)


def found(outcome) -> IdealDecomposition:
    assert isinstance(outcome, IdealDecomposition), getattr(outcome, "message", outcome)
    assert outcome.verify()
    return outcome


class TestDecompose:
    def test_direct_factorization(self):
        outcome = found(
            decompose(poly("q1*p1", SPACE), [poly("p1", SPACE)], degree_bound=1)
        )
        assert outcome.coefficients == (poly("q1", SPACE),)

    def test_not_a_multiple(self):
        outcome = decompose(poly("q1", SPACE), [poly("p1", SPACE)], degree_bound=3)
        assert isinstance(outcome, NotFound)
        assert "degree bound 3" in outcome.message

    def test_constant_identity_case(self):
        target = poly("q1*p2 - q2*p1", SPACE)
        outcome = found(
            decompose(
                target,
                [target, poly("p3", SPACE)],
                mode=CoefficientMode.CONSTANT,
            )
        )
        assert outcome.coefficients == (
            poly("1", SPACE),
            poly("0", SPACE),
        )

    def test_zero_target_trivially_succeeds(self):
        outcome = found(decompose(PhasePolynomial.zero(SPACE), [poly("p1", SPACE)]))
        assert not any(outcome.coefficients)
        empty = found(decompose(PhasePolynomial.zero(SPACE), []))
        assert empty.coefficients == ()

    def test_empty_generators_nonzero_target(self):
        outcome = decompose(poly("q1", SPACE), [])
        assert isinstance(outcome, NotFound) and outcome.exact

    @pytest.mark.parametrize("mode", list(CoefficientMode))
    @pytest.mark.parametrize("bound", [None, 0, 1, 3])
    def test_all_zero_generators_are_the_zero_ideal(self, bound, mode):
        zero = PhasePolynomial.zero(SPACE)
        for target in (poly("3", SPACE), poly("q1", SPACE), poly("q1*p2 + 1", SPACE)):
            outcome = decompose(target, [zero, zero], bound, mode)
            assert isinstance(outcome, NotFound) and outcome.exact
            assert outcome == decompose(target, [], bound, mode)

    def test_constant_mode_ignores_bound(self):
        outcome = decompose(
            poly("q1*p1", SPACE),
            [poly("p1", SPACE)],
            degree_bound=5,
            mode=CoefficientMode.CONSTANT,
        )
        assert isinstance(outcome, NotFound)
        assert "constant coefficients" in outcome.message

    def test_parameter_dependent_coefficients(self):
        space = PhaseSpace(1)
        target = poly("E*p1", space)
        outcome = found(decompose(target, [poly("p1", space)], degree_bound=1))
        assert outcome.coefficients == (poly("E", space),)

    def test_generators_must_share_space(self):
        with pytest.raises(ValueError):
            decompose(poly("q1", SPACE), [poly("q1", PhaseSpace(1))])

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            decompose(poly("q1", SPACE), [poly("q1", SPACE)], degree_bound=-1)

    def test_minimal_degree_tie_break(self):
        # q1*p1 factors with the constant 1 over [q1*p1] even though [p1]
        # would also work at degree 1; the degree-0 certificate wins.
        outcome = found(
            decompose(
                poly("q1*p1", SPACE),
                [poly("q1*p1", SPACE), poly("p1", SPACE)],
                degree_bound=2,
            )
        )
        assert outcome.coefficients == (poly("1", SPACE), poly("0", SPACE))


class TestSparseCertificates:
    """Certificates hold one shared zero for every generator they do not
    use, and ``verify`` re-expands only the nonzero coefficients; tampering
    with either kind is still caught."""

    GENERATORS = ("p1", "p2", "q3")

    def certificate(self) -> IdealDecomposition:
        generators = [poly(g, SPACE) for g in self.GENERATORS]
        outcome = found(decompose(poly("q1*p1", SPACE), generators, degree_bound=1))
        assert outcome.coefficients == (poly("q1", SPACE), poly("0", SPACE), poly("0", SPACE))
        return outcome

    def tampered(self, outcome, k, coefficient) -> IdealDecomposition:
        coefficients = list(outcome.coefficients)
        coefficients[k] = coefficient
        return dataclasses.replace(outcome, coefficients=tuple(coefficients))

    def test_absent_coefficients_share_one_zero(self):
        _, first, second = self.certificate().coefficients
        assert first.is_zero() and first is second

    def test_an_altered_nonzero_coefficient_fails(self):
        outcome = self.certificate()
        assert not self.tampered(outcome, 0, poly("2*q1", SPACE)).verify()
        assert not self.tampered(outcome, 0, poly("0", SPACE)).verify()

    def test_a_zero_coefficient_made_nonzero_fails(self):
        outcome = self.certificate()
        for k in (1, 2):
            assert not self.tampered(outcome, k, poly("q2", SPACE)).verify()
            assert not self.tampered(outcome, k, poly("1", SPACE)).verify()

    def test_a_coefficient_on_another_space_raises(self):
        outcome = self.certificate()
        other = PhaseSpace(4)
        for k in range(3):
            for coefficient in (poly("0", other), poly("q1", other)):
                # The message a dense sum gives: coefficient times generator.
                with pytest.raises(SpaceMismatchError) as dense:
                    coefficient * outcome.generators[k]
                with pytest.raises(SpaceMismatchError) as sparse:
                    self.tampered(outcome, k, coefficient).verify()
                assert str(sparse.value) == str(dense.value)

    def test_a_zero_target_has_one_zero_per_generator(self):
        generators = [poly(g, SPACE) for g in self.GENERATORS]
        outcome = found(decompose(PhasePolynomial.zero(SPACE), generators))
        assert len(outcome.coefficients) == len(generators)
        assert not any(outcome.coefficients)
        assert outcome.expand() == PhasePolynomial.zero(SPACE)


def dense_expand(certificate: IdealDecomposition) -> PhasePolynomial:
    """The definition ``expand`` re-expands in one pass: a polynomial sum of
    every product coefficient times generator."""
    zero = PhasePolynomial.zero(certificate.target.space)
    return sum(
        (c * g for c, g in zip(certificate.coefficients, certificate.generators)), zero
    )


def dense_verify(certificate: IdealDecomposition) -> bool:
    return dense_expand(certificate) == certificate.target and all(
        c.total_degree() <= certificate.degree_bound for c in certificate.coefficients
    )


class TestOnePassReexpansion:
    """``expand`` and ``verify`` against their polynomial-sum definitions, on
    seeded certificates from ``decompose`` and on tampered copies of them."""

    def test_each_kind_of_coefficient(self):
        generators = [poly(g, SPACE) for g in ("q1 + p1", "p2", "q3^2 - 1", "q1*p1")]
        coefficients = [poly(c, SPACE) for c in ("3/2", "q1 - 2*p3", "0", "-q1")]
        target = poly("3/2*q1 + 3/2*p1 + q1*p2 - 2*p2*p3 - q1^2*p1", SPACE)
        assert membership._reexpand(target, coefficients, generators) == target.terms
        # Terms that cancel across generators are dropped.
        f = poly("q1 - 2*p3", SPACE)
        assert membership._reexpand(target, [f, f], [poly("p2", SPACE), -poly("p2", SPACE)]) == {}

    @staticmethod
    def certificates(seed, count):
        rng = random.Random(seed)
        for space, gens, _ in random_ideals(seed, count):
            for mode, degree in ((CoefficientMode.POLYNOMIAL, 1), (CoefficientMode.CONSTANT, 0)):
                coefficients = [
                    PhasePolynomial.zero(space) if rng.random() < 0.3 else
                    random_polynomial(rng, space, max_terms=2, max_degree=degree)
                    for _ in gens
                ]
                target = sum((c * g for c, g in zip(coefficients, gens)),
                             PhasePolynomial.zero(space))
                outcome = decompose(target, gens, degree_bound=2, mode=mode)
                assert isinstance(outcome, IdealDecomposition)
                yield outcome

    @staticmethod
    def tampered_copies(outcome, rng):
        space = outcome.target.space
        coefficients = outcome.coefficients
        extra = random_polynomial(rng, space, max_terms=2, max_degree=2)
        for k, coefficient in enumerate(coefficients):
            changed = [coefficient + extra, coefficient.scale(2)]
            if not coefficient:
                changed.append(extra)
            elif coefficient.total_degree() == 0:
                changed.append(coefficient + poly("q1", space))
            for new in changed:
                yield dataclasses.replace(
                    outcome, coefficients=coefficients[:k] + (new,) + coefficients[k + 1:]
                )

    def test_agrees_with_the_polynomial_sum(self):
        rng = random.Random(35)
        checked = tampered = 0
        for outcome in self.certificates(35, 40):
            assert outcome.verify() and dense_verify(outcome)
            assert outcome.expand() == dense_expand(outcome) == outcome.target
            checked += 1
            for copy in self.tampered_copies(outcome, rng):
                assert copy.expand() == dense_expand(copy)
                assert copy.verify() == dense_verify(copy)
                tampered += not copy.verify()
        assert checked >= 60 and tampered >= 100

    def test_a_coefficient_on_another_space_gives_the_dense_message(self):
        other = PhaseSpace(4)
        for outcome in self.certificates(36, 10):
            for k in range(len(outcome.coefficients)):
                for coefficient in (PhasePolynomial.zero(other), poly("q1", other),
                                    poly("2", other)):
                    coefficients = list(outcome.coefficients)
                    coefficients[k] = coefficient
                    copy = dataclasses.replace(outcome, coefficients=tuple(coefficients))
                    # The generator moved too: the target is the odd one out.
                    generators = list(outcome.generators)
                    generators[k] = poly("p1", other)
                    moved = dataclasses.replace(copy, generators=tuple(generators))
                    for certificate in (copy, moved):
                        with pytest.raises(SpaceMismatchError) as dense:
                            dense_expand(certificate)
                        for method in (certificate.verify, certificate.expand):
                            with pytest.raises(SpaceMismatchError) as sparse:
                                method()
                            assert str(sparse.value) == str(dense.value)


def record_solved(monkeypatch) -> list[linsolve.Columns]:
    """The columns of every system ``decompose`` solves, in order."""
    solved = []
    real = membership.solve_sparse
    monkeypatch.setattr(
        membership, "solve_sparse",
        lambda columns, target: solved.append(columns) or real(columns, target),
    )
    return solved


def record_insertions(monkeypatch) -> list:
    """One entry per column inserted into the echelon of a system, built or
    deferred: the columns of every echelon built."""
    inserted = []
    real = linsolve.Columns.echelon.func

    def echelon(columns):
        inserted.extend(columns)
        return real(columns)

    recording = cached_property(echelon)
    recording.__set_name__(linsolve.Columns, "echelon")
    monkeypatch.setattr(linsolve.Columns, "echelon", recording)
    return inserted


def assert_charged_within(cap: int) -> None:
    kept = membership._KEPT
    assert kept.charge == sum(charge for _, charge in kept.entries.values()) <= cap


@pytest.fixture
def empty_cache():
    membership._KEPT.clear()
    yield
    membership._KEPT.clear()


class TestSizeCap:
    # q1^9*p1*p2 = (q1^9*p2) * p1 needs a coefficient of degree 10, so the
    # ladder runs over the identifiers q1, p1, p2 until the cap stops it;
    # degree d has C(3 + d, d) monomials per generator: 1, 4, 10, 20, 35, ...
    TARGET = "q1^9*p1*p2"

    @pytest.mark.parametrize(
        "target, generators, bound, basis_steps, solved, degree, unknowns",
        [
            # The target's reach is 10, so no degree below the cap is
            # solved; its normal form is zero, so the cap refuses it at the
            # reach, the first degree the ladder builds: 2 * C(13, 10).
            (TARGET, ("p1", "p1^2"), None, membership.MAX_BASIS_STEPS, [], 10, 572),
            # q1 is no member, and the constant term divides it (reach 1).
            # Without a basis the ladder decides: degrees 1 to 3 fail, 68
            # unknowns in all: under the cap.  p1 is a one-term generator,
            # so only q1*p2 - 1's columns are built.
            ("q1", ("p1", "q1*p2 - 1"), 10, 0, [4, 10, 20], 4, 138),
        ],
    )
    def test_refused_before_building_the_degree_over_the_cap(
        self, monkeypatch, empty_cache, target, generators, bound, basis_steps, solved,
        degree, unknowns,
    ):
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 70)
        monkeypatch.setattr(membership, "MAX_BASIS_STEPS", basis_steps)
        built = record_solved(monkeypatch)
        generators = [poly(g, SPACE) for g in generators]
        with pytest.raises(SearchTooLargeError) as info:
            decompose(poly(target, SPACE), generators, degree_bound=bound)
        assert [len(columns) for columns in built] == solved
        message = str(info.value)
        assert f"up to coefficient degree {degree} " in message
        assert f"{unknowns} unknowns" in message and "limit of 70" in message

    def test_non_member_over_the_cap_is_answered_exactly(self, monkeypatch):
        # q1^9*p2 is no multiple of p1, nor of any generator term: the screen
        # settles it, and no system over the cap is ever sized.
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 70)
        built = record_solved(monkeypatch)
        generators = [poly("p1", SPACE), poly("p1^2", SPACE)]
        outcome = decompose(poly("q1^9*p2", SPACE), generators)
        assert isinstance(outcome, NotFound) and outcome.exact
        assert outcome.degree_bound == 12
        assert outcome.message == "not representable within degree bound 12"
        assert built == []

    def test_non_member_past_the_screen_is_answered_before_the_cap(
        self, monkeypatch, empty_cache
    ):
        # The constant term divides q1^5 (reach 5), so no degree below the
        # cap is solved; the normal form, consulted before degree 4, the
        # first over the cap, settles it.
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 70)
        built = record_solved(monkeypatch)
        consulted = []
        real = membership._normal_form
        monkeypatch.setattr(
            membership, "_normal_form", lambda *a, **k: consulted.append(1) or real(*a, **k)
        )
        generators = [poly("p1", SPACE), poly("q1*p2 - 1", SPACE)]
        outcome = decompose(poly("q1^5", SPACE), generators)
        assert isinstance(outcome, NotFound) and outcome.exact
        assert outcome.degree_bound == 7
        assert built == [] and len(consulted) == 1

    def test_bound_within_the_cap_is_a_bounded_negative(self, monkeypatch):
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 15)
        outcome = decompose(poly(self.TARGET, SPACE), [poly("p1", SPACE)], degree_bound=2)
        assert isinstance(outcome, NotFound)
        assert outcome.degree_bound == 2
        assert not outcome.exact  # a member, beyond the bound

    def test_a_bound_below_the_reach_builds_nothing(self, monkeypatch, empty_cache):
        # Over p1 the reach of q1^1000000*p1 is 1000000: no degree below it
        # is built or charged, so a bound below it is a plain NotFound.
        built = spy(monkeypatch, membership, "_build_system")
        start = time.process_time()
        outcome = decompose(poly("q1^1000000*p1", SPACE), [poly("p1", SPACE)], 999999)
        assert isinstance(outcome, NotFound) and not outcome.exact
        assert outcome.degree_bound == 999999
        assert built == []
        assert time.process_time() - start < 0.5

    def test_the_refusal_names_the_first_degree_built(self, monkeypatch, empty_cache):
        # At the default bound the ladder starts at the reach, whose
        # C(1000002, 2) unknowns pass the cap at once.
        built = spy(monkeypatch, membership, "_build_system")
        with pytest.raises(SearchTooLargeError) as info:
            decompose(poly("q1^1000000*p1", SPACE), [poly("p1", SPACE)])
        assert (
            "up to coefficient degree 1000000 would solve for 500001500001 unknowns"
            in str(info.value)
        )
        assert built == []

    def test_a_screened_target_is_answered_whatever_the_generator_count(
        self, monkeypatch, empty_cache
    ):
        # No term of p1 or q2 divides q1, so no certificate exists, and the
        # generators passing the cap do not matter: nothing is built.
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 1)
        built = spy(monkeypatch, membership, "_build_system")
        generators = [poly("p1", SPACE), poly("q2", SPACE)]
        for bound in (None, 1, 2, 3):
            outcome = decompose(poly("q1", SPACE), generators, bound)
            assert isinstance(outcome, NotFound) and outcome.exact
        assert not decompose(poly("q1", SPACE), generators, 0).exact
        assert built == []

    def test_one_identifier_ladder_is_refused(self):
        # Each degree adds a single monomial in q1, so no one system gets
        # large; the default bound of a million still may not run.
        space = PhaseSpace(1)
        target = poly("q1^999999", space)
        with pytest.raises(SearchTooLargeError):
            decompose(target, [poly("q1^2 + 1", space)])


class TestWeakEquals:
    def test_reflexivity(self):
        f = poly("q1^2*p2 + 3", SPACE)
        ok, certificate = weak_equals(f, f, [poly("p1", SPACE)], degree_bound=2)
        assert ok
        assert not any(certificate.coefficients)

    def test_single_generator(self):
        ok, certificate = weak_equals(
            poly("p1", SPACE), poly("q1", SPACE), [poly("p1 - q1", SPACE)], 0
        )
        assert ok
        assert certificate.coefficients == (poly("1", SPACE),)

    def test_total_vs_dynamical_hamiltonian(self):
        # H_tot = H_d + v1*p1 equals H_d modulo the constraint p1.
        space = PhaseSpace(1, ("E", "v1"))
        h_d = poly("p1^2 + q1", space)
        h_tot = h_d + poly("v1*p1", space)
        ok, certificate = weak_equals(h_tot, h_d, [poly("p1", space)], 2)
        assert ok
        assert certificate.coefficients == (poly("v1", space),)


class TestProperties:
    def test_monotonicity_in_bound(self):
        target = poly("q1^2*p1 + q1*p1", SPACE)
        gens = [poly("p1", SPACE)]
        low = found(decompose(target, gens, degree_bound=2))
        for bound in (3, 4, 6):
            high = found(decompose(target, gens, degree_bound=bound))
            assert high.coefficients == low.coefficients

    def test_completeness_roundtrip_randomized(self):
        rng = random.Random(424242)
        for trial in range(120):
            space = PhaseSpace(rng.randint(1, 2))
            n_gens = rng.randint(1, 3)
            gens = [
                random_polynomial(rng, space, max_terms=2, max_degree=2)
                for _ in range(n_gens)
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            coeffs = [
                random_polynomial(
                    rng, space, max_terms=2, max_degree=3, allow_parameters=True
                )
                for _ in gens
            ]
            target = PhasePolynomial.zero(space)
            for c, g in zip(coeffs, gens):
                target = target + c * g
            outcome = found(decompose(target, gens, degree_bound=3))
            assert outcome.expand() == target

    def test_constant_success_implies_polynomial_success(self):
        rng = random.Random(99)
        for _ in range(60):
            space = PhaseSpace(rng.randint(1, 2))
            gens = [
                random_polynomial(rng, space, max_terms=2, max_degree=2)
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            target = PhasePolynomial.zero(space)
            for g in gens:
                target = target + Fraction(rng.randint(-4, 4)) * g
            constant = decompose(target, gens, mode=CoefficientMode.CONSTANT)
            assert isinstance(constant, IdealDecomposition)
            for bound in (0, 1, 2):
                assert isinstance(
                    decompose(target, gens, degree_bound=bound), IdealDecomposition
                )

    def test_default_degree_bound_rule(self):
        target = poly("q1^2*p1", SPACE)  # degree 3
        gens = [poly("p1*p2", SPACE), poly("q1", SPACE)]  # max degree 2
        assert default_degree_bound(target, gens) == 5
        assert default_degree_bound(PhasePolynomial.zero(SPACE), gens) == 2
        assert default_degree_bound(target, []) == 3

    def test_soundness_guard_on_certificates(self):
        outcome = found(
            decompose(
                poly("q1*p1 + q2*p2", SPACE),
                [poly("p1", SPACE), poly("p2", SPACE)],
                degree_bound=1,
            )
        )
        assert outcome.expand() == poly("q1*p1 + q2*p2", SPACE)


# ----------------------------------------------------------------------
# Integer Macaulay systems against a dense rational reference
# ----------------------------------------------------------------------
def reference_coefficients(target, generators, degree):
    """The degree's Macaulay system solved by dense Gauss-Jordan elimination
    in Fraction arithmetic, pivoting on the smallest column and pinning free
    unknowns to 0; None when it is inconsistent.  Unknowns are numbered as
    ``decompose`` numbers them: generator-major, then the coefficient
    monomials over the used identifiers in ascending graded order."""
    space = target.space
    used = sorted(target.used_indices().union(*(g.used_indices() for g in generators)))
    monomials = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(used, d):
            exps = [0] * space.n_identifiers
            for idx in combo:
                exps[idx] += 1
            monomials.append(tuple(exps))
    columns = [(k, mon) for k in range(len(generators)) for mon in monomials]
    rows = {}
    for col, (k, mon) in enumerate(columns):
        for gmon, gcoeff in generators[k].terms.items():
            prod = tuple(a + b for a, b in zip(mon, gmon))
            rows.setdefault(prod, [Fraction(0)] * len(columns))[col] += gcoeff
    for mon in target.terms:
        rows.setdefault(mon, [Fraction(0)] * len(columns))
    matrix = [row + [target.coefficient(mon)] for mon, row in rows.items()]
    pivots = []
    for col in range(len(columns)):
        r = len(pivots)
        pick = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if pick is None:
            continue
        matrix[r], matrix[pick] = matrix[pick], matrix[r]
        lead = matrix[r][col]
        matrix[r] = [v / lead for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[col]:
                factor = row[col]
                matrix[i] = [a - factor * b for a, b in zip(row, matrix[r])]
        pivots.append(col)
    if any(row[-1] for row in matrix[len(pivots):]):
        return None
    terms = [{} for _ in generators]
    for r, col in enumerate(pivots):
        k, mon = columns[col]
        terms[k][mon] = matrix[r][-1]
    return tuple(PhasePolynomial(space, t) for t in terms)


# Denominators 2, 3 and 6, both signs, and integers with common factors.
COEFFICIENTS = [Fraction(n, d) for n in (-5, -2, -1, 1, 3, 4) for d in (1, 2, 3, 6)]


def scaled_polynomial(rng, space, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * space.n_identifiers
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(space.n_identifiers)] += 1
        terms[tuple(exps)] = rng.choice(COEFFICIENTS)
    return PhasePolynomial(space, terms)


class TestIntegerSystems:
    def test_certificates_match_the_dense_rational_reference(self):
        rng = random.Random(20240806)
        compared = {"found": 0, "not found": 0}
        for _ in range(40):
            space = PhaseSpace(rng.randint(1, 2), ("E",))
            top = 2 if space.n_dof == 1 else 1
            generators = []
            while not generators:
                generators = [
                    # a common integer factor 2, 3 or 6 on some generators
                    rng.choice((1, 1, 2, 3, 6)) * scaled_polynomial(rng, space, 2)
                    for _ in range(rng.randint(1, 3))
                ]
                generators = [g for g in generators if g]
            target = PhasePolynomial.zero(space)
            for gen in generators:
                target = target + scaled_polynomial(rng, space, top) * gen
            if rng.random() < 0.3:
                target = target + scaled_polynomial(rng, space, 2)
            target = Fraction(rng.choice((-2, 1, 3)), rng.choice((5, 7))) * target
            if target.is_zero():
                continue
            expected = None
            for degree in range(top + 1):
                if expected is None:
                    expected = reference_coefficients(target, generators, degree)
                outcome = decompose(target, generators, degree_bound=degree)
                if expected is None:
                    assert isinstance(outcome, NotFound)
                    compared["not found"] += 1
                else:
                    assert found(outcome).coefficients == expected
                    compared["found"] += 1
        assert min(compared.values()) >= 10, compared

    def test_system_sizes_of_a_fixed_positive_search(self, monkeypatch):
        # (columns built, monomials, nonzeros) of every system the search solves:
        # a guard on the work of the ladder that does not depend on timing.
        model = em_modes(2)
        system = model.system
        space = system.space
        ideal = list(system.primaries) + [poly("p2", space), poly("p6", space)]
        ideal.append(system.h_d - poly("E", space))
        target = (
            poly("q3*q4 - 1/2*E", space) * ideal[-1]
            + poly("2/3*q1", space) * ideal[0]
            - poly("3*p6*E", space) * ideal[3]
        )
        sizes = []
        real = membership.solve_sparse

        def recording(columns, target):
            monomials = set().union(*(column for column, _ in columns))
            sizes.append((
                len(columns), len(monomials), sum(len(column) for column, _ in columns)
            ))
            return real(columns, target)

        monkeypatch.setattr(membership, "solve_sparse", recording)
        outcome = found(decompose(target, ideal, degree_bound=2))
        assert max(c.total_degree() for c in outcome.coefficients) == 2
        # Degrees 0 and 1 are skipped: their columns cannot reach degree 4.
        # The stored columns leave out the monomials that the leading one-term
        # generators (the primaries, p2 and p6) cover.
        assert sizes == [(136, 1512, 1614)]

    def test_certificates_match_on_a_warm_cache(self, monkeypatch):
        membership._KEPT.clear()
        self.test_certificates_match_the_dense_rational_reference()
        inserted = record_insertions(monkeypatch)
        self.test_certificates_match_the_dense_rational_reference()
        assert inserted == []  # every system came from the cache


# ----------------------------------------------------------------------
# Packed monomials and kept systems
# ----------------------------------------------------------------------
@st.composite
def packing_cases(draw):
    """A width, an allowed subset of n identifiers, and three exponent
    tuples supported on it, the sum of the first two still within the
    width."""
    n = draw(st.integers(1, 7))
    allowed = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    width = draw(st.integers(1, 5))
    top = (1 << width) - 1

    def tuple_of(values):
        exps = [0] * n
        for idx, value in zip(allowed, values):
            exps[idx] = value
        return tuple(exps)

    a = [draw(st.integers(0, top)) for _ in allowed]
    b = [draw(st.integers(0, top - x)) for x in a]
    c = [draw(st.integers(0, top)) for _ in allowed]
    return n, allowed, width, tuple_of(a), tuple_of(b), tuple_of(c)


class TestPackedMonomials:
    @given(packing_cases())
    def test_packing_is_injective_additive_and_ordered(self, case):
        n, allowed, width, a, b, c = case
        fields = membership._fields(allowed, width)

        def pack(mon):
            return membership._pack(mon, fields)

        assert (pack(a) == pack(c)) == (a == c)
        assert (pack(a) < pack(c)) == (a < c)
        assert pack(a) + pack(b) == pack(tuple(x + y for x, y in zip(a, b)))
        assert membership._unpack(pack(c), fields, width, n) == c

    def test_packed_monomials_are_in_ascending_graded_order(self):
        fields = membership._fields([0, 2, 3], 3)
        packed = membership._monomials_up_to(fields, 3)
        tuples = [membership._unpack(m, fields, 3, 5) for m in packed]
        assert len(set(packed)) == len(packed) == 20
        assert tuples == sorted(tuples, key=lambda m: (sum(m), [-e for e in m]))

    @pytest.mark.parametrize(
        "target, generators, bound, expected, exact",
        [
            # p1^2 is no multiple of q1; a field one bit wide, wide enough
            # for the columns alone, would pack p1^2 as q1.
            ("p1^2", ["q1"], 0, None, False),
            ("q1*p1^4", ["q1"], 0, None, False),
            ("q1*p1^4", ["q1"], 4, ["p1^4"], None),
            ("q1^9*p1*p2", ["p1"], 2, None, False),
            ("q3^7*p2 + p3", ["q1", "p3"], 0, None, False),
            ("q3^7*p2 + p3", ["q1", "p3"], 1, None, True),
        ],
    )
    def test_target_degree_above_the_columns(self, target, generators, bound, expected, exact):
        # deg target > degree bound + max generator degree: no system is
        # solved, so no exponent of the target aliases another field.
        outcome = decompose(
            poly(target, SPACE), [poly(g, SPACE) for g in generators], degree_bound=bound
        )
        if expected is None:
            assert isinstance(outcome, NotFound) and outcome.exact is exact
        else:
            assert [str(c) for c in found(outcome).coefficients] == expected


class TestKeptSystems:
    GENERATORS = ("q1*p1 - 1", "p2^2")

    def test_a_repeated_search_inserts_no_column(self, monkeypatch):
        g0, g1 = (poly(g, SPACE) for g in self.GENERATORS)
        first = poly("q2", SPACE) * g0 + poly("p1", SPACE) * g1
        second = poly("p1 - 3*q2", SPACE) * g0 + poly("2/3*q2", SPACE) * g1
        membership._KEPT.clear()
        found(decompose(first, [g0, g1]))
        inserted = record_insertions(monkeypatch)
        warm = found(decompose(second, [g0, g1]))
        assert inserted == []
        membership._KEPT.clear()
        cold = found(decompose(second, [g0, g1]))
        assert inserted  # the emptied cache built its systems again
        assert warm.coefficients == cold.coefficients
        assert [str(c) for c in warm.coefficients] == ["-3*q2 + p1", "2/3*q2"]

    def test_a_larger_bound_reuses_the_systems(self, monkeypatch):
        # Degree 1 packs at the width its own columns need, whatever the
        # bound, so the search at bound 2 finds it kept.
        g0, g1 = (poly(g, SPACE) for g in self.GENERATORS)
        target = poly("q2*(q1*p1 - 1) + p1*p2^2", SPACE)
        membership._KEPT.clear()
        found(decompose(target, [g0, g1], degree_bound=1))
        inserted = record_insertions(monkeypatch)
        outcome = found(decompose(target, [g0, g1], degree_bound=2))
        assert inserted == []
        assert [str(c) for c in outcome.coefficients] == ["q2", "p1"]

    def test_kept_unknowns_stay_within_the_cap(self, monkeypatch):
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 40)
        membership._KEPT.clear()
        solved = record_solved(monkeypatch)
        charges = {}  # the charge of every system built, by its columns
        real = membership._build_system

        def build(*args):
            system, charge = real(*args)
            charges[id(system.columns)] = charge
            return system, charge

        monkeypatch.setattr(membership, "_build_system", build)
        searches = [
            ("q1*p1*p2", ["p1", "p1^2"]),  # systems of 8 and 20 unknowns
            ("q2*p3", ["p3", "q2 + q3"]),
            ("q1*p1*p2", ["p1", "p1^2"]),
            ("q3^2*p2", ["p2"]),
            ("q1*q2*p3 + p3", ["p3"]),
        ]
        for target, generators in searches:
            decompose(poly(target, SPACE), [poly(g, SPACE) for g in generators])
            assert_charged_within(40)
            kept = [
                value.columns for value, _ in membership._KEPT.entries.values()
                if isinstance(value, membership._System)
            ]
            assert kept[-1] is solved[-1]  # the most recent system is kept
        built = {id(columns): charges[id(columns)] for columns in solved}
        assert sum(built.values()) > 40  # so some systems were evicted

    def test_bases_share_the_bound(self, monkeypatch, empty_cache):
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 40)
        built = []
        real = membership._buchberger
        monkeypatch.setattr(
            membership, "_buchberger", lambda g, steps: built.append(g) or real(g, steps)
        )
        gens = tuple(poly(g, SPACE) for g in self.GENERATORS)
        searches = [
            ("q1", gens),  # an exact non-member: its basis is kept
            ("q1", gens),
            ("q1*p1*p2", (poly("p1", SPACE), poly("p1^2", SPACE))),
            ("q2*p3", (poly("p3", SPACE), poly("q2 + q3", SPACE))),
            ("q3^2*p2", (poly("p2", SPACE),)),
        ]
        for target, generators in searches:
            decompose(poly(target, SPACE), generators)
            assert_charged_within(40)
            if generators is gens:  # charged its terms: q1*p1, -1 and p2^2
                assert membership._KEPT.entries[(gens,)][1] == 3
        assert (gens,) not in membership._KEPT.entries  # evicted by the systems
        normal_form = membership._normal_form(poly("q1", SPACE), gens)
        assert PhasePolynomial(SPACE, normal_form) == poly("q1", SPACE)
        assert_charged_within(40)
        assert built.count([g.terms for g in gens]) == 2

    def test_a_warm_hit_keeps_the_callers_generators(self, monkeypatch, empty_cache):
        # A hit with equal but distinct generators compares them once and
        # re-keys the entry to the caller's tuple, in the same place of the
        # order and at the same charge; the next hit compares by identity.
        generators = tuple(poly(g, SPACE) for g in self.GENERATORS)
        target = poly("q2*(q1*p1 - 1) + p1*p2^2", SPACE)
        found(decompose(target, generators))
        order, charge = list(membership._KEPT.entries), membership._KEPT.charge
        equal = tuple(poly(g, SPACE) for g in self.GENERATORS)
        assert equal == generators and equal[0] is not generators[0]
        found(decompose(target, equal))
        assert list(membership._KEPT.entries) == order
        assert all(key[0] is equal for key in membership._KEPT.entries)
        assert membership._KEPT.charge == charge

        compared = []
        real = PhasePolynomial.__eq__
        monkeypatch.setattr(
            PhasePolynomial, "__eq__",
            lambda self, other: compared.append(1) or real(self, other),
        )
        again = tuple(poly(g, SPACE) for g in self.GENERATORS)
        index = membership._term_index(again)
        assert len(compared) == len(again)  # one comparison per generator
        assert membership._term_index(again) is index
        assert len(compared) == len(again)  # the kept key is now `again`

    def test_threads_share_the_kept_systems(self, monkeypatch):
        # A small cap makes the threads evict each other's systems; without
        # the cache's lock the charge count loses updates in some runs.
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 40)
        rng = random.Random(5)
        searches = []
        for _ in range(12):
            generators = [random_polynomial(rng, SPACE, 2, 2) for _ in range(2)]
            multiplier = random_polynomial(rng, SPACE, 2, 1)
            searches.append((multiplier * generators[0], generators))
        membership._KEPT.clear()
        expected = [decompose(t, g, degree_bound=1) for t, g in searches]
        results = {}

        def run(worker):
            for _ in range(30):
                results[worker] = [decompose(t, g, degree_bound=1) for t, g in searches]

        threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the cache too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[w] == expected for w in range(4))
        assert_charged_within(40)


# ----------------------------------------------------------------------
# Every column after the one-term run, built on demand
# ----------------------------------------------------------------------
ITEM_8_MODEL = """
[system]
n_dof = 3
hamiltonian = (q1 + q2 + q3 + p1 + p2 + p3)^2 + p1*q2^2
[primaries]
P1 = p3^2 - q1*q2
P2 = q3*p1 + q2^2
"""


class Captured(Exception):
    pass


def tertiary_closure_module(monkeypatch) -> tuple[PhasePolynomial, ...]:
    """The seven generators of degree 2 and 3 over which the chain of the
    dense three-dof model above asks its tertiary weak closure; the search
    itself is stopped before it starts."""

    def capture(target, generators, *args):
        raise Captured(tuple(generators))

    monkeypatch.setattr(chain, "decompose", capture)
    with pytest.raises(Captured) as info:
        generate_chain(parse_model_text(ITEM_8_MODEL).system)
    return info.value.args[0]


def all_columns(generators, system):
    """Every column of the system, built or not, with its unknown, in the
    system's order."""
    monomials = system.monomials
    for k, gen in enumerate(generators):
        _, scaled = linsolve.integer_scaled(gen.terms)
        packed = {membership._pack(mon, system.fields): c for mon, c in scaled.items()}
        for unknown, mon in enumerate(monomials, k * len(monomials)):
            yield {mon + gmon: c for gmon, c in packed.items()}, unknown


def reachable_monomials(generators, system, degree) -> list[int]:
    """The monomials of degree up to `degree` plus the generators' largest
    degree, in the system's fields: every monomial its columns and targets
    can hold."""
    top = max(g.total_degree() for g in generators)
    return membership._monomials_up_to(system.fields, degree + top)


def eager_reference(generators, system) -> linsolve.Columns:
    """Every column of the system built as a plain dict row, unit columns
    included, in the system's order: the whole system, solved by
    ``solve_sparse`` as it comes."""
    return linsolve.Columns(all_columns(generators, system))


def built_pivots(echelon) -> dict:
    """The echelon's stored pivots, each deferred one built as
    ``Echelon.reduce`` builds it: by reducing a row that it leads."""
    for col in list(echelon.pivots):
        echelon.reduce({col: 1}, {})
    return echelon.pivots


def used_identifiers(*polynomials) -> tuple[int, ...]:
    return tuple(sorted(set().union(*(p.used_indices() for p in polynomials))))


def projected_system(generators, degree) -> tuple[membership._System, int]:
    """The system of `degree` over the generators' identifiers, checked
    against the whole system's echelon: the covered monomials and the
    stored pivots are its pivot columns, and each covered monomial's unknown
    is the unit column that takes it there.  The system keeps the column of
    every unknown after the leading one-term run, in order, and the charge
    counts every unknown.  Also returns how many stored columns add no
    pivot."""
    allowed = used_identifiers(*generators)
    system, charge = membership._build_system(generators, allowed, degree)
    per_generator = len(system.monomials)
    assert charge == per_generator * len(generators)
    units = len(list(takewhile(lambda g: len(g.terms) == 1, generators)))
    assert len(system.units) == units
    assert [unknown for _, unknown in system.columns] == list(
        range(units * per_generator, charge)
    )
    whole = eager_reference(generators, system).echelon.pivots
    stored, covered = system.columns.echelon.pivots, system.covered
    assert whole.keys() == covered.keys() | stored.keys()
    assert not covered.keys() & stored.keys()
    for mon, unknown in covered.items():
        assert whole[mon] == ({mon: system.units[unknown // per_generator]}, {unknown: 1})
    return system, len(system.columns) - len(stored)


def eager_certificate(target, generators, degree_bound):
    """The certificate of the first degree, from the target's reach up to
    the bound, at which the whole system solves for the target, or None."""
    generators = tuple(generators)
    reach = membership._reach(target, generators)
    if reach is None:
        return None
    scale, terms = linsolve.integer_scaled(target.terms)
    for degree in range(reach, degree_bound + 1):
        system, _ = membership._build_system(
            generators, used_identifiers(target, *generators), degree
        )
        packed = {membership._pack(mon, system.fields): c for mon, c in terms.items()}
        solution = linsolve.solve_sparse(eager_reference(generators, system), packed)
        if solution is not None:
            return membership._certificate(target.space, solution, system, scale)
    return None


def assert_eager_certificate(target, generators, degree_bound) -> bool:
    """``decompose`` gives the eager reference's certificate, or a
    ``NotFound`` where it has none; True for a certificate."""
    expected = eager_certificate(target, generators, degree_bound)
    outcome = decompose(target, generators, degree_bound=degree_bound)
    if expected is None:
        assert isinstance(outcome, NotFound)
        return False
    assert found(outcome).coefficients == expected
    return True


class TestEagerEchelon:
    def test_random_ideals(self):
        dependent = 0
        for _, gens, _ in random_ideals(28, 25):
            for degree in (1, 2, 3):
                dependent += projected_system(tuple(gens), degree)[1]
        assert dependent > 0

    @pytest.mark.parametrize("degree", [2, 3])
    def test_dense_module(self, monkeypatch, degree):
        projected_system(tertiary_closure_module(monkeypatch), degree)

    @pytest.mark.parametrize(
        "generators",
        [
            # A zero generator's own columns are empty.
            ["q1*p1 - 1", "0", "p2^2 + q1", "0", "q2*p1 + p2"],
            # A constant's columns span every monomial within the degree,
            # so each later column t * g_k of that degree range depends on
            # them.
            ["q1*p1 - q2", "2", "p2^2 - q1", "q1*q2 + p1"],
        ],
    )
    def test_zero_and_constant_generators(self, generators):
        gens = tuple(poly(g, SPACE) for g in generators)
        dependent = [projected_system(gens, degree)[1] for degree in (1, 2, 3)]
        assert dependent[-1] > 0

    def test_work_of_a_cold_degree_3_system(self, empty_cache):
        # em_modes(2)'s on-shell module at degree 3: 4080 unknowns, charged
        # in full.  Its four one-term generators cover 2511 monomials.  The
        # 816 columns of H_d - E are stored, and 758 of them become pivots;
        # the other 58 have every term on a covered monomial, so insertion
        # drops them.
        space, gens = on_shell_ideal(2)
        gens = tuple(gens)
        target = poly("q3^3", space) * gens[0]
        found(decompose(target, gens, degree_bound=3))
        (system, charge), = [
            entry for key, entry in membership._KEPT.entries.items() if key[2:] == (3,)
        ]
        assert charge == len(system.monomials) * len(gens) == 4080
        assert (len(system.columns), len(system.columns.echelon.pivots)) == (816, 758)
        assert len(system.covered) == 2511


# ----------------------------------------------------------------------
# One-term generators as a projection
# ----------------------------------------------------------------------
def unit_modules(seed: int, count: int):
    """Seeded modules whose generators start with a run of one-term ones:
    monomials of degree 0 to 2 over a few identifiers, so constants,
    repeated monomials and monomials sharing factors are common.  Some go
    on with a zero generator, multi-term ones, and a one-term generator
    after a multi-term one."""
    rng = random.Random(seed)
    for _ in range(count):
        space = PhaseSpace(rng.randint(1, 2), ("E", "a") if rng.random() < 0.5 else ("E",))
        n = space.n_identifiers

        def one_term():
            exps = [0] * n
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(n)] += 1
            coeff = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
            return PhasePolynomial(space, {tuple(exps): coeff})

        gens = [one_term() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.25:
            gens.append(PhasePolynomial.zero(space))
        for _ in range(rng.randint(0, 2)):
            gens.append(random_polynomial(rng, space, 3, 2, allow_parameters=True))
        if rng.random() < 0.5:
            gens.append(one_term())
        yield gens


def seeded_targets(rng, reachable, columns) -> list[dict]:
    """Packed targets within the system's reach: combinations of a few of
    its columns, members, and the same with a stray monomial added."""
    targets = []
    for _ in range(4):
        target: dict[int, int] = {}
        for column, _ in rng.sample(columns, min(3, len(columns))):
            factor = rng.randint(-4, 4)
            for mon, c in column.items():
                target[mon] = target.get(mon, 0) + factor * c
        target = {mon: c for mon, c in target.items() if c}
        targets.append(target)
        targets.append({**target, rng.choice(reachable): rng.randint(1, 5)})
    return targets


def target_polynomial(space, system, packed) -> PhasePolynomial:
    """A packed target of the system as a polynomial."""
    return PhasePolynomial(space, {
        membership._unpack(mon, system.fields, system.width, space.n_identifiers): c
        for mon, c in packed.items()
    })


def assert_eager_solutions(generators, degree, rng) -> membership._System:
    """``projected_system``, and on seeded targets the whole system's
    solution: ``membership._solve`` gives it, and ``decompose`` the eager
    reference's certificate of the first two."""
    generators = tuple(generators)
    system, _ = projected_system(generators, degree)
    every = eager_reference(generators, system)
    reachable = reachable_monomials(generators, system, degree)
    for n, target in enumerate(seeded_targets(rng, reachable, every)):
        assert membership._solve(system, target) == linsolve.solve_sparse(every, target)
        if n < 2:
            poly_target = target_polynomial(generators[0].space, system, target)
            assert_eager_certificate(poly_target, generators, degree)
    return system


class TestUnitPivots:
    def test_seeded_modules(self):
        rng = random.Random(29)
        seen = dict.fromkeys(("units", "constant", "zero", "unit after", "shared"), 0)
        for gens in unit_modules(29, 120):
            units = list(takewhile(lambda g: len(g.terms) == 1, gens))
            rest = gens[len(units):]
            seen["constant"] += any(g.total_degree() == 0 for g in units)
            seen["zero"] += any(not g for g in rest)
            seen["unit after"] += any(len(g.terms) == 1 for g in rest)
            monos = [next(iter(g.terms)) for g in units]
            seen["shared"] += any(
                any(x and y for x, y in zip(a, b)) for a, b in combinations(monos, 2)
            )
            for degree in range(4):
                system = assert_eager_solutions(gens, degree, rng)
                seen["units"] += bool(system.covered)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("n, degree", [(1, 3), (2, 3), (3, 2)])
    def test_on_shell_modules(self, n, degree):
        space, gens = on_shell_ideal(n)
        assert_eager_solutions(gens, degree, random.Random(n))
        multiplier = poly("q1*q2 - 2*E*p1 + 3", space)
        target = multiplier * gens[-1] + poly("q1*p2", space) * gens[0]
        assert assert_eager_certificate(target, tuple(gens), degree)

    def test_a_later_one_term_generator_is_built(self):
        # Only q1 leads the generators with one term.  The unit column of
        # p1 reduces against the pivot p1 of q1*p1 - p1 to a new pivot
        # q1*p1, so it is built, after the column of q1*p1 - p1.
        gens = (poly("q1", SPACE), poly("q1*p1 - p1", SPACE), poly("p1", SPACE))
        system = assert_eager_solutions(gens, 0, random.Random(0))
        assert [unknown for _, unknown in system.columns] == [1, 2]
        assert len(system.columns.echelon.pivots) == 2

    @pytest.mark.parametrize(
        "generators, owners, targets",
        [
            # p1 covers every monomial 2*p1 would: 2*p1 owns none.
            (["p1", "2*p1", "q1*p2 - q2"], {0},
             ["q1*p1 + 3*q2^2*p1", "p1*q1*p2 - 2*q2*p1 + q1*p2 - q2", "q2", "q1*p2"]),
            # A constant owns every monomial of degree 2 or less, p1 the
            # multiples of p1 of degree 3.
            (["3", "p1", "q1*p1 - 1"], {0, 1},
             ["q1*p2 + 5", "2/3*q2^2*p1 - q1", "q1^3*p2 + q1*p1", "q2^4"]),
            # A zero generator ends the unit run: q1 after it keeps its columns.
            (["p1", "0", "q1", "q2*p2 + p1"], {0},
             ["q1*p1 - q2*q1", "q2^2*p2 + q2*p1 + 7*q1", "q2*p2", "p2"]),
        ],
        ids=["shared monomial", "constant", "zero ends the run"],
    )
    def test_certificates_are_the_eager_ones(self, generators, owners, targets):
        gens = tuple(poly(g, SPACE) for g in generators)
        system, _ = projected_system(gens, 2)
        per_generator = len(system.monomials)
        assert {unknown // per_generator for unknown in system.covered.values()} == owners
        results = [
            assert_eager_certificate(poly(t, SPACE), gens, bound)
            for t in targets for bound in range(4)
        ]
        assert True in results and False in results


# ----------------------------------------------------------------------
# Columns built when an elimination reads them
# ----------------------------------------------------------------------
def cold_system(generators, degree) -> membership._System:
    """The system of `degree` over the generators' identifiers, its echelon
    not yet built."""
    allowed = used_identifiers(*generators)
    return membership._build_system(tuple(generators), allowed, degree)[0]


def eager_columns(system) -> linsolve.Columns:
    """The system's stored columns built as dicts: the echelon that inserts
    every one as it comes."""
    return linsolve.Columns((column.row(), unknown) for column, unknown in system.columns)


def stored_kinds(echelon) -> tuple[int, int]:
    """(pivots built, pivots deferred) of the echelon."""
    built = sum(type(row) is dict for row, _ in echelon.pivots.values())
    return built, len(echelon.pivots) - built


def assert_deferred_rows_are_eager(generators, degree, rng) -> tuple[int, int]:
    """On a cold system, seeded targets solve as the whole system does, and
    every stored row and tags, deferred ones built on demand, are those of
    the eager echelon of its stored columns.  Returns the echelon's
    ``stored_kinds`` before any solve."""
    system = cold_system(generators, degree)
    kinds = stored_kinds(system.columns.echelon)
    reachable = reachable_monomials(generators, system, degree)
    every = eager_reference(generators, system)
    for target in seeded_targets(rng, reachable, every):
        assert membership._solve(system, target) == linsolve.solve_sparse(every, target)
    assert built_pivots(system.columns.echelon) == eager_columns(system).echelon.pivots
    return kinds


class TestDeferredColumns:
    def test_seeded_modules(self):
        rng = random.Random(33)
        seen = dict.fromkeys(("built at insertion", "deferred"), 0)
        for gens in unit_modules(29, 120):
            for degree in range(4):
                built, deferred = assert_deferred_rows_are_eager(gens, degree, rng)
                seen["built at insertion"] += built > 0
                seen["deferred"] += deferred > 0
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("n, degree", [(1, 3), (2, 3), (3, 2)])
    def test_on_shell_modules(self, n, degree):
        _, gens = on_shell_ideal(n)
        assert_deferred_rows_are_eager(gens, degree, random.Random(n))

    @pytest.mark.parametrize("degree", [2, 3])
    def test_dense_module(self, monkeypatch, degree):
        gens = tertiary_closure_module(monkeypatch)
        assert_deferred_rows_are_eager(gens, degree, random.Random(degree))

    def test_rows_built_by_a_cold_degree_3_search(self, empty_cache):
        # em_modes(2)'s on-shell module at degree 3: each of the 758 of its
        # 816 stored columns that adds a pivot is deferred at insertion, and
        # the search for one target builds only the 5 rows its elimination
        # reads.
        space, gens = on_shell_ideal(2)
        gens = tuple(gens)
        assert stored_kinds(cold_system(gens, 3).columns.echelon) == (0, 758)
        multiplier = poly("q3^3 - 2*q1*q4*p7 + 5*q8^2 + E*p3 + q5", space)
        target = multiplier * gens[-1] + poly("2*q1*p2", space) * gens[0]
        found(decompose(target, gens, degree_bound=3))
        (system, _), = [
            entry for key, entry in membership._KEPT.entries.items() if key[2:] == (3,)
        ]
        assert stored_kinds(system.columns.echelon) == (5, 753)

    def test_threads_build_the_single_threaded_rows(self):
        # Four threads solve seeded targets against one cold system, each in
        # its own order, so they read and build its deferred rows together.
        _, gens = on_shell_ideal(2)
        rng = random.Random(4)
        system = cold_system(gens, 3)
        reachable = reachable_monomials(gens, system, 3)
        every = eager_reference(gens, system)
        targets = [t for _ in range(3) for t in seeded_targets(rng, reachable, every)]
        expected = [linsolve.solve_sparse(every, t) for t in targets]
        results = {}

        def run(worker):
            order = list(range(len(targets)))
            random.Random(worker).shuffle(order)
            results[worker] = {i: membership._solve(system, targets[i]) for i in order}

        threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for w in range(4):
            assert [results[w][i] for i in range(len(targets))] == expected
        assert built_pivots(system.columns.echelon) == eager_columns(system).echelon.pivots
