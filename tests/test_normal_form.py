"""The Groebner normal form behind exact negative membership, against sympy.

The package's reduced basis and normal forms are compared with
``sympy.groebner`` in graded-lex order over the declared identifier order,
on seeded random ideals and on the on-shell modules of ``em_modes``.
"""

import random
import time

import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirac_symmetry import (
    IdealDecomposition,
    NotFound,
    PhasePolynomial,
    PhaseSpace,
    decompose,
    em_modes,
    generate_chain,
)
from dirac_symmetry import membership, phase
from dirac_symmetry.errors import SearchTooLargeError
from dirac_symmetry.report import certificate_dict
from conftest import poly, polynomial_strategy, random_polynomial
from oracles import to_sympy


def symbols(space):
    return [sp.Symbol(name) for name in space.identifiers]


def basis_polynomials(space, generators):
    layout, basis = membership._groebner_basis(tuple(generators))
    return [
        PhasePolynomial(space, layout.unpack_terms({lead: 1, **dict(tail)}))
        for lead, tail in basis
    ]


def sympy_basis(space, generators):
    return sp.groebner([to_sympy(g) for g in generators], *symbols(space), order="grlex")


def monic_grlex(expr, space):
    """expr divided by its graded-lex leading coefficient."""
    return sp.expand(expr / sp.Poly(expr, *symbols(space)).LC(order="grlex"))


def random_ideals(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        parameters = ("E", "a") if rng.random() < 0.5 else ("E",)
        space = PhaseSpace(rng.randint(1, 3), parameters)
        gens = [
            random_polynomial(rng, space, max_terms=3, max_degree=3, allow_parameters=True)
            for _ in range(rng.randint(1, 3))
        ]
        targets = [
            random_polynomial(rng, space, max_terms=4, max_degree=4, allow_parameters=True)
            for _ in range(3)
        ]
        yield space, [g for g in gens if g], targets


def on_shell_ideal(n):
    chain = generate_chain(em_modes(n).system)
    return chain.space, list(chain.on_shell_generators(True)[1])


def spy(monkeypatch, owner, name) -> list[tuple]:
    """The arguments of every call of ``owner.name``, in order."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(
        owner, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
    )
    return calls


def assert_matches_sympy(space, gens, targets):
    reference = sympy_basis(space, gens)
    mine = {sp.expand(to_sympy(g)) for g in basis_polynomials(space, gens)}
    assert mine == {monic_grlex(e, space) for e in reference.exprs}
    for target in targets:
        normal_form = PhasePolynomial(space, membership._normal_form(target, tuple(gens)))
        _, remainder = reference.reduce(to_sympy(target))
        assert sp.expand(to_sympy(normal_form) - remainder) == 0


class TestAgainstSympy:
    def test_random_ideals(self):
        for space, gens, targets in random_ideals(2024, 40):
            assert_matches_sympy(space, gens, targets)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_on_shell_ideals_of_em_modes(self, n):
        space, gens = on_shell_ideal(n)
        rng = random.Random(n)
        targets = [
            random_polynomial(rng, space, max_terms=4, max_degree=3, allow_parameters=True)
            for _ in range(10)
        ]
        assert_matches_sympy(space, gens, targets)

    def test_basis_is_sorted_monic_and_reduced(self):
        space = PhaseSpace(1)
        gens = [poly("q1^2*p1 - 1", space), poly("q1*p1^2 - q1", space)]
        # p1*g1 - q1*g2 = q1^2 - p1, which then reduces g1 to p1^2 - 1, a
        # factor of g2.
        assert basis_polynomials(space, gens) == [
            poly("q1^2 - p1", space),
            poly("p1^2 - 1", space),
        ]


SMALL_SPACE = PhaseSpace(1, ("E",))


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(polynomial_strategy(SMALL_SPACE, max_degree=3, max_terms=3), min_size=1, max_size=3),
    polynomial_strategy(SMALL_SPACE, max_degree=4, max_terms=4),
)
def test_normal_form_is_sympys_remainder(gens, target):
    # The same remainder as sympy's reduction by its grlex basis, since both
    # are the unique normal form modulo the reduced basis.
    gens = [g for g in gens if g]
    if gens:
        assert_matches_sympy(SMALL_SPACE, gens, [target])


class TestPackedLayout:
    """Fields at the edge of their width, against sympy."""

    @pytest.fixture
    def widths(self, monkeypatch):
        used = []
        real = membership._layout
        monkeypatch.setattr(
            membership, "_layout", lambda n, width: used.append(width) or real(n, width)
        )
        membership._KEPT.clear()
        yield used
        membership._KEPT.clear()

    def test_target_of_degree_above_the_first_width(self, widths):
        space = PhaseSpace(2)
        gens = [poly("q1^2 - p1", space), poly("q2*p2 - 1", space)]
        targets = [
            poly("q1^131 + 3*q2^70*p2^70*p1 - q1", space),
            poly("q1^200*q2 + p1^3", space),
            poly("q2^128", space),
        ]
        assert_matches_sympy(space, gens, targets)
        assert widths == [1, 2, 2, 2]  # the basis, then each target's copy

    def test_lcm_outgrowing_the_first_width(self, widths, monkeypatch):
        # Leads of degree 57 fit one-byte fields, but the basis reaches an lcm
        # of degree 128 or more, so it is built again in two-byte fields.
        space = PhaseSpace(1)
        gens = [poly("q1^46*p1^11 + p1^34", space), poly("q1^10*p1^42 - q1^28*p1^5", space)]
        steps = membership._Steps(membership.MAX_BASIS_STEPS)
        membership._buchberger([g.terms for g in gens], steps)
        assert widths == [1, 2]
        # The restart replays the same steps: a basis started wide takes as many.
        wide = membership._Steps(membership.MAX_BASIS_STEPS)
        with monkeypatch.context() as patch:
            patch.setattr(membership, "_width", lambda degree: 2)
            membership._buchberger([g.terms for g in gens], wide)
        assert widths == [1, 2, 2]
        assert wide.left == steps.left == membership.MAX_BASIS_STEPS - 45
        assert_matches_sympy(space, gens, [poly("q1^60*p1^70 + q1^2", space)])

    def test_exponents_at_the_guard_bit(self, widths):
        space = PhaseSpace(1)
        gens = [poly("q1^63 - p1^2", space), poly("q1*p1^62 - q1", space)]
        targets = [
            poly("q1^64*p1^63", space),  # total degree 127, the largest one byte holds
            poly("q1^127 + p1^127", space),
            poly("q1^64*p1^64 + q1^127*p1", space),  # degree 128: two bytes
        ]
        assert_matches_sympy(space, gens, targets)
        assert widths == [1, 2]

    def test_exact_negative_at_the_largest_space(self):
        space = PhaseSpace(phase.MAX_DOF)
        target = poly("q1*q2 + q9999", space)
        gens = [poly("p1", space), poly("p2 - q3", space)]
        membership._KEPT.clear()
        try:
            outcome = decompose(target, gens)
            assert isinstance(outcome, NotFound) and outcome.exact
            # The normal form keeps the target: no lead, p1 or q3, divides it.
            # sympy agrees over the identifiers in use, in the same order.
            assert PhasePolynomial(space, membership._normal_form(target, tuple(gens))) == target
        finally:
            membership._KEPT.clear()
        q1, q2, q3, q9999, p1, p2 = sp.symbols("q1 q2 q3 q9999 p1 p2")
        reference = sp.groebner([p1, p2 - q3], q1, q2, q3, q9999, p1, p2, order="grlex")
        assert reference.reduce(q1 * q2 + q9999)[1] == q1 * q2 + q9999


class TestWorkPins:
    """Timing-free guards on the work of the Groebner layer: these counts
    move only when what a step is or how the basis is built changes."""

    @pytest.mark.parametrize("n, steps", [(5, 560), (12, 3192), (20, 8840), (30, 19860)])
    def test_on_shell_basis_steps(self, n, steps):
        _, gens = on_shell_ideal(n)
        budget = membership._Steps(membership.MAX_BASIS_STEPS)
        membership._buchberger([g.terms for g in gens if g], budget)
        assert membership.MAX_BASIS_STEPS - budget.left == steps

    def test_normal_form_steps(self, monkeypatch):
        budgets = []

        class Recorded(membership._Steps):
            def __init__(self, limit):
                super().__init__(limit)
                budgets.append(self)

        monkeypatch.setattr(membership, "_Steps", Recorded)
        space, gens = on_shell_ideal(5)
        membership._KEPT.clear()
        try:
            target = poly("q3*q4 + p1^2*q2 + q1*p2*p3", space)
            normal_form = membership._normal_form(target, tuple(gens))
        finally:
            membership._KEPT.clear()
        assert PhasePolynomial(space, normal_form) == poly("q3*q4", space)
        assert [b.left for b in budgets] == [
            membership.MAX_BASIS_STEPS - 560, membership.MAX_REDUCTION_STEPS - 16,
        ]

    def test_exact_negatives_end_at_the_step_budget(self):
        # q3^2 is a term of H_d - E, so only the normal form can settle it.
        # At n = 31 the basis passes MAX_BASIS_STEPS, and the ladder alone is
        # refused by the size cap.
        membership._KEPT.clear()
        try:
            space, gens = on_shell_ideal(30)
            outcome = decompose(poly("q3^2", space), gens, 4)
            assert isinstance(outcome, NotFound) and outcome.exact
            space, gens = on_shell_ideal(31)
            with pytest.raises(SearchTooLargeError):
                decompose(poly("q3^2", space), gens, 4)
            # No generator term divides q3*q4: exact without a basis.
            outcome = decompose(poly("q3*q4", space), gens, 4)
            assert isinstance(outcome, NotFound) and outcome.exact
        finally:
            membership._KEPT.clear()


class TestDecomposeVerdicts:
    def test_members_round_trip_and_non_members_are_exact(self):
        rng = random.Random(77)
        checked = {"member": 0, "outside": 0}
        for space, gens, targets in random_ideals(31, 30):
            reference = sympy_basis(space, gens)
            for target in targets:
                member = target * gens[0]
                for extra, g in zip(targets, gens[1:]):
                    member = member + extra * g
                outcome = decompose(member, gens, degree_bound=4)
                assert isinstance(outcome, IdealDecomposition)
                assert outcome.verify()
                checked["member"] += 1
                _, remainder = reference.reduce(to_sympy(target))
                outcome = decompose(target, gens, degree_bound=rng.randint(1, 3))
                if sp.expand(remainder) != 0:
                    assert isinstance(outcome, NotFound) and outcome.exact
                    checked["outside"] += 1
                else:
                    assert isinstance(outcome, IdealDecomposition) or not outcome.exact
        assert checked["member"] == 90 and checked["outside"] > 40

    def test_on_shell_non_member_at_any_bound(self):
        # q3*q4 is a polynomial in the free identifiers of em_modes(5) alone.
        space, gens = on_shell_ideal(5)
        for bound in (1, 4, 40):
            outcome = decompose(poly("q3*q4", space), gens, bound)
            assert isinstance(outcome, NotFound) and outcome.exact
            assert outcome.message == f"not representable within degree bound {bound}"

    def test_constant_mode_never_reduces(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the normal form was consulted")

        monkeypatch.setattr(membership, "_normal_form", refuse)
        space = PhaseSpace(2)
        outcome = decompose(
            poly("q1", space), [poly("p1", space)], mode=membership.CoefficientMode.CONSTANT
        )
        assert isinstance(outcome, NotFound) and not outcome.exact
        # A constant certificate ends the ladder at degree 0, before any
        # basis, in one solve.
        solved = spy(monkeypatch, membership, "solve_sparse")
        found = decompose(poly("2*p1 - 3*q2", space), [poly("p1", space), poly("q2", space)])
        assert found.coefficients == (poly("2", space), poly("-3", space))
        assert len(solved) == 1


class TestReach:
    """The screen on the generators' terms (``membership._reach``), against
    sympy on the random ideals."""

    def test_screened_targets_are_no_members(self):
        rejected = 0
        for space, gens, targets in random_ideals(3100, 60):
            reference = sympy_basis(space, gens)
            for target in targets:
                if membership._reach(target, tuple(gens)) is None:
                    rejected += 1
                    assert sp.expand(reference.reduce(to_sympy(target))[1]) != 0
        assert rejected == 60  # of 180 targets

    def test_reach_bounds_every_certificate_degree(self):
        rng = random.Random(3101)
        checked = 0
        for space, gens, _ in random_ideals(3101, 40):
            for _ in range(3):
                factors = [
                    random_polynomial(rng, space, max_terms=3, max_degree=3, allow_parameters=True)
                    for _ in gens
                ]
                member = PhasePolynomial.zero(space)
                for h, g in zip(factors, gens):
                    member = member + h * g
                if member:
                    reach = membership._reach(member, tuple(gens))
                    assert reach is not None
                    assert reach <= max(h.total_degree() for h in factors)
                    checked += 1
        assert checked == 120

    def test_the_ladder_starts_at_the_reach(self, monkeypatch):
        # Seeded targets, members and not, over the on-shell modules of
        # em_modes(1..3) and the random ideals, each on a cold cache: the
        # first system built is the one at the target's reach.
        rng = random.Random(3102)
        modules = [on_shell_ideal(n) for n in (1, 2, 3)]
        modules += [(space, gens) for space, gens, _ in random_ideals(3102, 20)]
        built = spy(monkeypatch, membership, "_build_system")
        checked = []
        try:
            for space, gens in modules:
                targets = [
                    random_polynomial(rng, space, max_terms=3, max_degree=3, allow_parameters=True)
                    for _ in range(2)
                ]
                member = PhasePolynomial.zero(space)
                for g in gens:
                    h = random_polynomial(rng, space, max_terms=2, max_degree=2)
                    member = member + h * g
                for target in [t for t in targets + [member] if t]:
                    membership._KEPT.clear()
                    built.clear()
                    decompose(target, gens, 3)
                    reach = membership._reach(target, tuple(gens))
                    if reach is None:
                        assert built == []
                    elif built:
                        assert built[0][2] == reach
                        checked.append(reach)
        finally:
            membership._KEPT.clear()
        # 52 targets build a system, 46 of them above degree 0.
        assert len(checked) == 52 and sum(reach > 0 for reach in checked) == 46

    def test_a_target_of_generator_terms_needs_no_index(self, monkeypatch):
        space = PhaseSpace(2)
        gens = (poly("q1*p1 - 1", space), poly("p2", space))
        built = spy(monkeypatch, membership, "_build_term_index")
        membership._KEPT.clear()
        try:
            assert membership._reach(poly("q1*p1 + 3*p2", space), gens) == 0
            assert built == []
            # q1*p1 divides q1*p1*p2 with the gap 1, p2 with the gap 2.
            assert membership._reach(poly("q1*p1*p2", space), gens) == 1
            assert len(built) == 1
        finally:
            membership._KEPT.clear()

    def test_screen_is_skipped_above_the_term_pairs_cap(self, monkeypatch):
        # 1001 target terms times 100 generator terms pass MAX_TERM_PAIRS,
        # and each target monomial would be tested against every term
        # listed under q1.  The reach falls back to deg target - deg g.
        space = PhaseSpace(1)
        g = PhasePolynomial(space, {(k, 1, 0): 1 for k in range(1, 101)})
        target = PhasePolynomial(space, {(i, 0, 0): 1 for i in range(1, 1002)})
        assert len(target.terms) * len(g.terms) > phase.MAX_TERM_PAIRS
        membership._KEPT.clear()
        try:
            assert membership._reach(target, (g,)) == 1001 - 101
            start = time.process_time()
            outcome = decompose(target, [g])
            spent = time.process_time() - start
            # Before the first degree over the cap, the normal form settles it.
            assert isinstance(outcome, NotFound) and outcome.exact
            assert spent < 1.0
            monkeypatch.setattr(phase, "MAX_TERM_PAIRS", len(target.terms) * len(g.terms))
            assert membership._reach(target, (g,)) is None
        finally:
            membership._KEPT.clear()


class TestNegativeWork:
    """Timing-free pins on what a negative ``decompose`` does, in exact call
    counts."""

    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "n, generators, target",
        [(5, None, "q3*q4"), (2, None, "q1*p1 + p3 - 1"), (2, ("p1", "q2^2 - p2"), "q1*q2")],
    )
    def test_a_monomial_no_generator_term_divides_costs_no_basis(
        self, monkeypatch, n, generators, target, cold
    ):
        # The on-shell module of em_modes(n), or the generators on PhaseSpace(n).
        if generators is None:
            space, gens = on_shell_ideal(n)
        else:
            space = PhaseSpace(n)
            gens = [poly(g, space) for g in generators]
        target = poly(target, space)
        membership._KEPT.clear()
        if not cold:
            membership._groebner_basis(tuple(gens))
        solved = spy(monkeypatch, membership, "solve_sparse")
        used = spy(monkeypatch, PhasePolynomial, "used_indices")
        normal_forms = spy(monkeypatch, membership, "_normal_form")
        bases = spy(monkeypatch, membership, "_buchberger")
        try:
            outcome = decompose(target, gens, 3)
        finally:
            membership._KEPT.clear()
        assert isinstance(outcome, NotFound) and outcome.exact
        assert outcome.degree_bound == 3
        assert normal_forms == [] and solved == [] and bases == []
        assert not any(args[0] is target for args in used)

    def test_a_member_with_such_a_monomial_climbs_from_degree_1(self, monkeypatch):
        # q2 is a term of neither generator, but the constant term divides
        # it: the reach is 1, and one solve there finds the certificate,
        # with no basis.
        space = PhaseSpace(2)
        gens = [poly("q1*p1 - 1", space), poly("p2^2", space)]
        solved = spy(monkeypatch, membership, "solve_sparse")
        normal_forms = spy(monkeypatch, membership, "_normal_form")
        outcome = decompose(poly("q2*(q1*p1 - 1) + p1*p2^2", space), gens, 3)
        assert [str(c) for c in outcome.coefficients] == ["q2", "p1"]
        assert normal_forms == [] and len(solved) == 1

    def test_a_non_member_within_the_generators_terms_solves_degree_0(self, monkeypatch):
        # q1*p1 is a term of q1*p1 - 1, so degree 0 is solved first; its
        # normal form, 1, then settles it, unpacked once.
        space = PhaseSpace(2)
        gens = [poly("q1*p1 - 1", space), poly("p2", space)]
        solved = spy(monkeypatch, membership, "solve_sparse")
        unpacked = spy(monkeypatch, membership._Layout, "unpack_terms")
        outcome = decompose(poly("q1*p1 + 3*p2", space), gens, 3)
        assert isinstance(outcome, NotFound) and outcome.exact
        assert len(solved) == 1 and len(unpacked) == 1

    def test_a_non_member_past_the_screen_solves_once_at_its_reach(self, monkeypatch):
        # The constant term of q2^2 - 1 divides q1, so the reach is 1: one
        # failing solve there, then one normal form settles it.
        space = PhaseSpace(2)
        gens = [poly("p1", space), poly("q2^2 - 1", space)]
        solved = spy(monkeypatch, membership, "solve_sparse")
        normal_forms = spy(monkeypatch, membership, "_normal_form")
        outcome = decompose(poly("q1", space), gens, 3)
        assert isinstance(outcome, NotFound) and outcome.exact
        assert len(solved) == 1 and len(normal_forms) == 1


class TestBudgets:
    def test_tiny_basis_budget_falls_back_to_the_ladder(self, monkeypatch):
        membership._KEPT.clear()
        monkeypatch.setattr(membership, "MAX_BASIS_STEPS", 1)
        try:
            space = PhaseSpace(1)
            gens = (poly("q1^2*p1 - 1", space), poly("q1*p1^2 - q1", space))
            assert membership._normal_form(poly("q1", space), gens) is None
            outcome = decompose(poly("q1 + 7", space), gens, degree_bound=2)
            assert isinstance(outcome, NotFound) and not outcome.exact
            assert outcome.message == "not representable within degree bound 2"
            # Members still get their minimal-degree certificate.
            member = decompose(poly("q1^2 - p1", space), gens, degree_bound=2)
            assert isinstance(member, IdealDecomposition) and member.verify()
        finally:
            membership._KEPT.clear()

    def test_tiny_reduction_budget_falls_back_to_the_ladder(self, monkeypatch):
        # The constant term of p2 - 1 divides every monomial, so only the
        # normal form can prove these targets no members.
        monkeypatch.setattr(membership, "MAX_REDUCTION_STEPS", 2)
        space = PhaseSpace(2)
        gens = (poly("p1", space), poly("p2 - 1", space))
        outcome = decompose(poly("q1^2 + q1*q2 + q2^2", space), gens, degree_bound=1)
        assert isinstance(outcome, NotFound) and not outcome.exact
        small = decompose(poly("q1", space), gens, degree_bound=1)
        assert isinstance(small, NotFound) and small.exact
        # Members are still found by the ladder.
        member = decompose(poly("q1^2*(p2 - 1) + q2*p1", space), gens, degree_bound=2)
        assert isinstance(member, IdealDecomposition) and member.verify()

    def test_exhausted_basis_is_memoised(self, monkeypatch):
        membership._KEPT.clear()
        monkeypatch.setattr(membership, "MAX_BASIS_STEPS", 1)
        calls = []
        real = membership._buchberger
        monkeypatch.setattr(
            membership, "_buchberger", lambda g, steps: calls.append(1) or real(g, steps)
        )
        try:
            space = PhaseSpace(1)
            gens = (poly("q1^2*p1 - 1", space), poly("q1*p1^2 - q1", space))
            for _ in range(3):
                assert membership._normal_form(poly("q1", space), gens) is None
            assert calls == [1]
        finally:
            membership._KEPT.clear()


def test_exactness_leaves_reports_unchanged():
    # Exact and bounded negatives report the same bytes, so the CLI
    # contract does not move.
    exact = NotFound(3, membership.CoefficientMode.POLYNOMIAL, exact=True)
    bounded = NotFound(3, membership.CoefficientMode.POLYNOMIAL)
    assert exact.message == bounded.message
    assert certificate_dict(exact, ["A"]) == certificate_dict(bounded, ["A"])
