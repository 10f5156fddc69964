import random
from fractions import Fraction

import pytest

from dirac_symmetry import (
    CoefficientMode,
    IdealDecomposition,
    NotFound,
    PhasePolynomial,
    PhaseSpace,
    SearchTooLargeError,
    decompose,
    default_degree_bound,
    weak_equals,
)

from dirac_symmetry import membership
from conftest import poly, random_polynomial

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
        assert outcome.is_zero_certificate()
        empty = found(decompose(PhasePolynomial.zero(SPACE), []))
        assert empty.coefficients == ()

    def test_empty_generators_nonzero_target(self):
        assert isinstance(decompose(poly("q1", SPACE), []), NotFound)

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


class TestSizeCap:
    # q1^9*p2 is no multiple of p1; the search runs over the identifiers
    # q1, p1, p2, so degree d has C(3 + d, d) monomials per generator:
    # 1, 4, 10, 20, 35, ...
    TARGET = "q1^9*p2"

    def test_refused_before_building_the_degree_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 70)
        built = []
        real = membership._try_degree
        monkeypatch.setattr(
            membership,
            "_try_degree",
            lambda t, g, mons: built.append(len(mons) * len(g)) or real(t, g, mons),
        )
        generators = [poly("p1", SPACE), poly("p1^2", SPACE)]
        with pytest.raises(SearchTooLargeError) as info:
            decompose(poly(self.TARGET, SPACE), generators)
        assert built == [2, 8, 20, 40]  # 70 in all: at the cap, not over it
        message = str(info.value)
        assert "up to coefficient degree 4" in message
        assert "140 unknowns" in message and "limit of 70" in message

    def test_bound_within_the_cap_is_a_bounded_negative(self, monkeypatch):
        monkeypatch.setattr(membership, "MAX_UNKNOWNS", 15)
        outcome = decompose(poly(self.TARGET, SPACE), [poly("p1", SPACE)], degree_bound=2)
        assert isinstance(outcome, NotFound)
        assert outcome.degree_bound == 2

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
        assert certificate.is_zero_certificate()

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
