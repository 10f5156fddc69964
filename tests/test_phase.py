import copy
import pickle
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dirac_symmetry import (
    ParseError,
    PhasePolynomial,
    PhaseSpace,
    ProductTooLargeError,
    SpaceMismatchError,
    UndeclaredIdentifierError,
    parse_polynomial,
    poisson,
)

from dirac_symmetry import phase
from dirac_symmetry.expressions import MAX_NESTING

from conftest import poly, polynomial_strategy, random_polynomial
from oracles import same_polynomial, sympy_bracket, sympy_space, to_sympy

SPACE2 = PhaseSpace(2)
SPACE3 = PhaseSpace(3)


class TestPhaseSpace:
    def test_identifier_layout(self):
        space = PhaseSpace(2, ("E", "m"))
        assert space.identifiers == ("q1", "q2", "p1", "p2", "E", "m")
        assert space.index("p2") == 3

    def test_requires_energy_symbol(self):
        with pytest.raises(ValueError):
            PhaseSpace(1, ("m",))

    def test_rejects_variable_shaped_parameter(self):
        with pytest.raises(ValueError):
            PhaseSpace(2, ("E", "q3"))

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValueError):
            PhaseSpace(1, ("E", "E"))
        with pytest.raises(ValueError):
            PhaseSpace(1, ("E", "2m"))
        with pytest.raises(ValueError):
            PhaseSpace(0)

    def test_degrees_of_freedom_are_capped(self):
        assert PhaseSpace(phase.MAX_DOF).n_dof == phase.MAX_DOF
        with pytest.raises(ValueError, match=f"n_dof must be at most {phase.MAX_DOF}"):
            PhaseSpace(phase.MAX_DOF + 1)
        with pytest.raises(ValueError):
            PhaseSpace(10**7)

    def test_extend_appends_parameters(self):
        space = PhaseSpace(1)
        ext = space.extend(("v1", "u1"))
        assert ext.identifiers == ("q1", "p1", "E", "v1", "u1")
        assert ext.extends(space)
        assert not space.extends(ext)


class TestImmutability:
    """Phase spaces and polynomials refuse setting and deleting every slot,
    so the values the membership caches key on cannot change."""

    SPACE_SLOTS = ("n_dof", "parameters", "identifiers", "_index")
    POLY_SLOTS = ("space", "terms", "_hash", "_degree", "_used", "_pairs")

    @pytest.mark.parametrize("name", SPACE_SLOTS)
    def test_space_slots_cannot_be_set_or_deleted(self, name):
        space = PhaseSpace(2, ("E", "m"))
        before = getattr(space, name)
        with pytest.raises(AttributeError, match="PhaseSpace is immutable"):
            setattr(space, name, None)
        with pytest.raises(AttributeError, match="PhaseSpace is immutable"):
            delattr(space, name)
        assert getattr(space, name) == before
        assert space == PhaseSpace(2, ("E", "m"))
        assert space.index("m") == 5

    @pytest.mark.parametrize("name", POLY_SLOTS)
    def test_polynomial_slots_cannot_be_set_or_deleted(self, name):
        f = poly("q1*p2 + 3", SPACE2)
        cached = (hash(f), f.total_degree(), f.used_indices(), f._pair_masks())
        before = getattr(f, name)
        with pytest.raises(AttributeError, match="PhasePolynomial is immutable"):
            setattr(f, name, None)
        with pytest.raises(AttributeError, match="PhasePolynomial is immutable"):
            delattr(f, name)
        assert getattr(f, name) == before
        assert (hash(f), f.total_degree(), f.used_indices(), f._pair_masks()) == cached
        assert f == poly("q1*p2 + 3", SPACE2)

    def test_space_repr_hash_and_equality(self):
        assert repr(PhaseSpace(2, ("E", "m"))) == "PhaseSpace(n_dof=2, parameters=('E', 'm'))"
        assert hash(PhaseSpace(2)) == hash((2, ("E",)))
        assert PhaseSpace(2) == PhaseSpace(2) and SPACE2 == SPACE2
        assert PhaseSpace(2) != PhaseSpace(3)
        assert PhaseSpace(2) != PhaseSpace(2, ("E", "m"))
        assert PhaseSpace(2) != (2, ("E",))


class TestParsing:
    def test_mixed_terms(self):
        f = poly("q1^2*p2 + 3/2*p1", SPACE2)
        q1 = PhasePolynomial.variable(SPACE2, "q1")
        p1 = PhasePolynomial.variable(SPACE2, "p1")
        p2 = PhasePolynomial.variable(SPACE2, "p2")
        assert f == q1 * q1 * p2 + Fraction(3, 2) * p1

    def test_undeclared_identifier(self):
        with pytest.raises(UndeclaredIdentifierError):
            parse_polynomial("q3", SPACE2)

    def test_commutative_cancellation(self):
        assert poly("q1*p1 - p1*q1", PhaseSpace(1)).is_zero()

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("q1 + * p1", SPACE2)
        assert err.value.position == 5

    def test_exponent_must_be_uint_literal(self):
        with pytest.raises(ParseError):
            parse_polynomial("q1^-2", SPACE2)
        with pytest.raises(ParseError):
            parse_polynomial("q1^(2)", SPACE2)

    def test_rational_literals(self):
        assert poly("-3/2", SPACE2) == PhasePolynomial.constant(SPACE2, Fraction(-3, 2))
        assert poly("2*-3", SPACE2) == PhasePolynomial.constant(SPACE2, -6)
        with pytest.raises(ParseError):
            parse_polynomial("1/0", SPACE2)

    def test_over_long_literals_are_parse_errors(self):
        # Python converts at most sys.get_int_max_str_digits() (4300) digits.
        for text, position in (
            ("q1 + " + "7" * 5001 + "*p1", 5),
            ("q1 + 1/" + "3" * 4400, 7),
            ("q1^" + "2" * 5001, 3),
        ):
            with pytest.raises(ParseError, match="digits is too long") as err:
                parse_polynomial(text, SPACE2)
            assert err.value.position == position
        assert poly("1/" + "3" * 4300, SPACE2) == PhasePolynomial.constant(
            SPACE2, Fraction(1, int("3" * 4300))
        )

    def test_parenthesized_powers(self):
        assert poly("(q1 + p1)^2", SPACE2) == poly("q1^2 + 2*q1*p1 + p1^2", SPACE2)

    def test_leading_sign_tolerated(self):
        assert poly("-q1 + p1", SPACE2) == poly("p1 - q1", SPACE2)

    def test_zero_exponent(self):
        assert poly("q1^0", SPACE2) == PhasePolynomial.constant(SPACE2, 1)

    def test_nesting_cap(self):
        depth = MAX_NESTING
        assert poly("(" * depth + "q1" + ")" * depth, SPACE2) == poly("q1", SPACE2)
        with pytest.raises(ParseError) as err:
            parse_polynomial("-(" * (depth + 1) + "q1" + ")" * (depth + 1), SPACE2)
        assert "nested deeper" in str(err.value)
        assert err.value.position == 2 * depth + 1


    def test_long_sums_match_sympy(self):
        # Few distinct monomials under many signed terms, so most of them
        # cancel or merge; parenthesised sub-sums and a leading '-' too.
        rng = random.Random(8)
        names = {name: sp.Symbol(name) for name in SPACE2.identifiers}
        monomials = ["q1", "p1^2", "q1*p2", "q2^3*p1", "E", "1"]
        for n_terms in (1, 50, 2000):
            pieces = []
            for i in range(n_terms):
                sign = rng.choice("+-") if i else rng.choice(("", "-"))
                term = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}*{rng.choice(monomials)}"
                if rng.random() < 0.05:
                    term = f"({term} - {rng.choice(monomials)})"
                pieces.append(f"{sign} {term}")
            text = " ".join(pieces)
            parsed = poly(text, SPACE2)
            assert all(parsed.terms.values())
            expected = sp.sympify(text.replace("^", "**"), locals=names, rational=True)
            assert same_polynomial(parsed, sp.expand(expected))

    def test_long_sum_cancelling_to_zero(self):
        text = " + ".join(f"{i}*q1*p{i % 2 + 1} - {i}*p{i % 2 + 1}*q1" for i in range(1, 3001))
        parsed = poly(text, SPACE2)
        assert parsed.is_zero() and parsed.terms == {}

class TestPrinting:
    def test_canonical_forms(self):
        cases = [
            ("0", "0"),
            ("5", "5"),
            ("-3/2", "-3/2"),
            ("q1", "q1"),
            ("-q1", "-1*q1"),
            ("q2 + q1", "q1 + q2"),
            ("2*p1 - q1^2*p2", "-1*q1^2*p2 + 2*p1"),
            ("3/2*p1 + q1^2*p2", "q1^2*p2 + 3/2*p1"),
        ]
        for source, expected in cases:
            assert str(poly(source, SPACE2)) == expected

    def test_graded_lex_order(self):
        f = poly("q1 + q1^2 + p2 + q1*p1", SPACE2)
        assert str(f) == "q1^2 + q1*p1 + q1 + p2"

    @staticmethod
    def walked_str(f: PhasePolynomial) -> str:
        """The printer before it read signs from numerators: a walk over every
        exponent and ``Fraction`` comparisons."""
        if not f.terms:
            return "0"
        pieces = []
        for position, (monomial, coeff) in enumerate(f.sorted_terms()):
            mon = "*".join(
                f.space.identifiers[i] + ("" if e == 1 else f"^{e}")
                for i, e in enumerate(monomial) if e
            )
            if position == 0:
                pieces.append(str(coeff) if not mon else mon if coeff == 1 else f"{coeff}*{mon}")
            else:
                sign, mag = (" + " if coeff > 0 else " - "), abs(coeff)
                pieces.append(
                    f"{sign}{mag}" if not mon else f"{sign}{mon}" if mag == 1
                    else f"{sign}{mag}*{mon}"
                )
        return "".join(pieces)

    def test_matches_the_walked_printer(self):
        rng = random.Random(35)
        space = PhaseSpace(3, ("E", "m"))
        for _ in range(500):
            f = random_polynomial(rng, space, max_terms=6, max_degree=4,
                                  coeff_range=(-3, 3), allow_parameters=True)
            f = f.scale(Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 2, 5))))
            assert str(f) == self.walked_str(f)

    def test_a_coefficient_past_the_digit_limit_raises_value_error(self):
        # report._text turns this ValueError into exit 3.
        huge = 10**5000
        q1, p1, one = (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0,) * 5
        for value in (huge, -huge, Fraction(1, huge), Fraction(-3, huge)):
            for terms in ({q1: value}, {one: value}, {q1: 1, p1: value}, {q1: 1, one: value}):
                f = PhasePolynomial(SPACE2, terms)
                for printer in (str, self.walked_str):
                    with pytest.raises(ValueError):
                        printer(f)


class TestArithmetic:
    def test_additive_inverse(self):
        q1 = poly("q1", SPACE2)
        assert (q1 + (-q1)).is_zero()

    def test_difference_of_squares(self):
        assert poly("q1 + p1", SPACE2) * poly("q1 - p1", SPACE2) == poly(
            "q1^2 - p1^2", SPACE2
        )

    def test_scale(self):
        assert poly("q1*p1", SPACE2).scale(Fraction(2, 3)) == poly(
            "2/3*q1*p1", SPACE2
        )

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            poly("q1", SPACE2) + poly("q1", SPACE3)
        with pytest.raises(SpaceMismatchError, match="^operands live on different phase spaces"):
            poisson(poly("q1", SPACE2), poly("p1", SPACE3))

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            poly("q1", SPACE2) ** -1

    def test_lift_to_extended_space(self):
        ext = SPACE2.extend(("v1",))
        f = poly("q1*p2 + 2", SPACE2).in_space(ext)
        assert f == parse_polynomial("q1*p2 + 2", ext)
        with pytest.raises(SpaceMismatchError):
            parse_polynomial("v1", ext).in_space(SPACE2)


class TestForeignOperands:
    """Against a value that is neither a polynomial nor an int or a
    ``Fraction``, arithmetic and equality return NotImplemented, so Python
    raises TypeError or falls back to identity."""

    FOREIGN = (1.5, "q1", None)

    @pytest.mark.parametrize("other", FOREIGN)
    def test_arithmetic_is_refused(self, other):
        f = poly("q1 + 2", SPACE2)
        for method in (f.__add__, f.__radd__, f.__sub__, f.__rsub__, f.__mul__, f.__rmul__):
            assert method(other) is NotImplemented
        for combine in (
            lambda: f + other,
            lambda: other + f,
            lambda: f - other,
            lambda: other - f,
            lambda: f * other,
            lambda: other * f,
        ):
            with pytest.raises(TypeError):
                combine()

    @pytest.mark.parametrize("other", FOREIGN)
    def test_equality_falls_back_to_identity(self, other):
        f = poly("q1 + 2", SPACE2)
        assert f.__eq__(other) is NotImplemented
        assert SPACE2.__eq__(other) is NotImplemented
        assert f != other and SPACE2 != other

    def test_constant_value(self):
        assert poly("3/4", SPACE2).constant_value() == Fraction(3, 4)
        assert PhasePolynomial.zero(SPACE2).constant_value() == 0
        with pytest.raises(ValueError, match=r"^polynomial q1 \+ 2 is not constant$"):
            poly("q1 + 2", SPACE2).constant_value()


class TestPartial:
    def test_power_rule(self):
        assert poly("q1^2*p2", SPACE2).partial("q1") == poly("2*q1*p2", SPACE2)

    def test_constant(self):
        assert poly("5", SPACE2).partial("p1").is_zero()

    def test_momentum_power(self):
        assert poly("q1*p1^2", SPACE2).partial("p1") == poly("2*q1*p1", SPACE2)

    def test_undeclared(self):
        with pytest.raises(KeyError):
            poly("q1", SPACE2).partial("q9")


def on_pairs(rng, space, pairs, parameters=False):
    """A seeded polynomial whose variables are q_i and p_i for the canonical
    pairs i in `pairs` (counted from 0) alone, and parameters if asked."""
    n = space.n_dof
    usable = [k for i in pairs for k in (i, n + i)]
    if parameters:
        usable += range(2 * n, space.n_identifiers)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * space.n_identifiers
        for _ in range(rng.randint(0, 3)):
            exps[rng.choice(usable)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return PhasePolynomial(space, terms)


def pairwise_bracket(f, g):
    """{f, g} from the formula, one partial derivative per variable."""
    space = f.space
    total = PhasePolynomial.zero(space)
    for i in range(1, space.n_dof + 1):
        q, p = f"q{i}", f"p{i}"
        total = total + f.partial(q) * g.partial(p) - f.partial(p) * g.partial(q)
    return total


class TestPoisson:
    def test_canonical_pair(self):
        assert poisson(poly("q1", SPACE2), poly("p1", SPACE2)) == poly("1", SPACE2)

    def test_self_bracket_vanishes(self):
        f = poly("q1^2*p2 + 3/2*p1*q2", SPACE2)
        assert poisson(f, f).is_zero()

    def test_angular_momentum_algebra(self):
        # Frozen from the independent sympy oracle: {L_x, L_y} = L_z.
        l_x = poly("q2*p3 - q3*p2", SPACE3)
        l_y = poly("q3*p1 - q1*p3", SPACE3)
        bracket = poisson(l_x, l_y)
        assert bracket == poly("q1*p2 - q2*p1", SPACE3)
        qs, ps, _ = sympy_space(3)
        oracle = sympy_bracket(
            qs[1] * ps[2] - qs[2] * ps[1], qs[2] * ps[0] - qs[0] * ps[2], qs, ps
        )
        assert same_polynomial(bracket, oracle)

    def test_canonical_relations_up_to_four(self):
        space = PhaseSpace(4)
        for i in range(1, 5):
            qi = parse_polynomial(f"q{i}", space)
            for j in range(1, 5):
                pj = parse_polynomial(f"p{j}", space)
                qj = parse_polynomial(f"q{j}", space)
                pi = parse_polynomial(f"p{i}", space)
                expected = 1 if i == j else 0
                assert poisson(qi, pj) == PhasePolynomial.constant(space, expected)
                assert poisson(qi, qj).is_zero()
                assert poisson(pi, pj).is_zero()

    def test_parameters_are_bracket_inert(self):
        space = PhaseSpace(1, ("E", "m"))
        f = parse_polynomial("m*q1 + E", space)
        g = parse_polynomial("E*p1", space)
        assert poisson(f, g) == parse_polynomial("m*E", space)

    @pytest.mark.parametrize("n_dof", [1, 2, 4])
    def test_bracket_against_oracle_randomized(self, n_dof):
        rng = random.Random(20240811 + n_dof)
        space = PhaseSpace(n_dof, ("E", "m"))
        qs, ps, _ = sympy_space(n_dof)
        for _ in range(25):
            f = random_polynomial(rng, space, max_terms=6, max_degree=3, allow_parameters=True)
            g = random_polynomial(rng, space, max_terms=6, max_degree=3, allow_parameters=True)
            oracle = sympy_bracket(to_sympy(f), to_sympy(g), qs, ps)
            assert same_polynomial(poisson(f, g), oracle)

    # The bracket visits only the canonical pairs both operands touch, q_i in
    # one and p_i in the other, read from each operand's cached masks; with
    # none it returns zero without visiting a term.  At 70 pairs the masks
    # span more than one machine word.
    @pytest.mark.parametrize("n_dof", [3, 70])
    @pytest.mark.parametrize("sharing", ["no pair", "one pair", "parameters only"])
    def test_masked_bracket_against_oracle(self, n_dof, sharing):
        rng = random.Random(2700 + n_dof + len(sharing))
        space = PhaseSpace(n_dof, ("E", "m"))
        qs, ps, _ = sympy_space(n_dof, space.parameters)
        high = range(max(0, n_dof - 6), n_dof)  # pairs past bit 64 when n_dof is 70
        for _ in range(12):
            shared = rng.choice(high)
            f_pair, g_pair = rng.sample([i for i in range(n_dof) if i != shared], 2)
            f_pairs, g_pairs = [f_pair], [g_pair]
            if sharing == "one pair":
                f_pairs.append(shared)
                g_pairs.append(shared)
            with_parameters = sharing == "parameters only"
            f = on_pairs(rng, space, f_pairs, with_parameters)
            g = on_pairs(rng, space, g_pairs, with_parameters)
            bracket = poisson(f, g)
            (fq, fp), (gq, gp) = f._pair_masks(), g._pair_masks()
            assert (fq & gp | fp & gq) & ~(1 << shared) == 0
            if sharing != "one pair":
                assert bracket.is_zero()
            assert bracket.terms == pairwise_bracket(f, g).terms
            assert same_polynomial(bracket, sympy_bracket(to_sympy(f), to_sympy(g), qs, ps))

    def test_masks_span_more_than_one_word(self):
        space = PhaseSpace(70, ("E", "m"))
        f = parse_polynomial("q70*p66 + 2*q1*m + E", space)
        assert f._pair_masks() == ((1 << 69) | 1, 1 << 65)
        assert poisson(f, parse_polynomial("p70", space)) == parse_polynomial("p66", space)
        assert poisson(f, parse_polynomial("q65 + p65 + m", space)).is_zero()

    def test_parameters_are_ignored(self):
        space = PhaseSpace(2, ("E", "m"))
        assert parse_polynomial("m*E + 3", space)._pair_masks() == (0, 0)
        assert parse_polynomial("q2*p1^2 + m*p2", space)._pair_masks() == (0b10, 0b11)

    def test_a_zero_bracket_over_the_cap_is_refused(self, monkeypatch):
        f = poly("q1 + q1^2 + q1^3", SPACE2)
        g = poly("q2 + p2 + q2*p2 + p2^2", SPACE2)
        assert poisson(f, g).is_zero()
        monkeypatch.setattr(phase, "MAX_TERM_PAIRS", 11)
        with pytest.raises(
            ProductTooLargeError,
            match="^bracket of a 3-term and a 4-term polynomial would form 12 term "
            "pairs, over the limit of 11$",
        ):
            poisson(f, g)

    def test_a_zero_bracket_across_spaces_is_refused(self):
        f, g = poly("q1", SPACE2), poly("q2", SPACE3)
        assert f._pair_masks() == (1, 0) and g._pair_masks() == (2, 0)
        with pytest.raises(SpaceMismatchError, match="^operands live on different phase spaces"):
            poisson(f, g)

    def test_copies_recompute_the_masks(self):
        f = poly("q1*p2 + 3", SPACE2)
        assert poisson(f, poly("q2", SPACE2)) == poly("-q1", SPACE2)
        assert f._pairs == (0b01, 0b10)
        assert "_pairs" not in PhasePolynomial._compared
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and hash(twin) == hash(f)
            with pytest.raises(AttributeError):
                twin._pairs
            assert twin._pair_masks() == f._pairs


class TestTermPairCap:
    def test_cap_hit_exactly_passes_and_one_pair_over_is_refused(self, monkeypatch):
        f = poly("q1 + q2 + p1", SPACE2)
        g = poly("p1 + p2 + q1*p1 + q2^2", SPACE2)
        monkeypatch.setattr(phase, "MAX_TERM_PAIRS", 12)
        product, bracket = f * g, poisson(f, g)
        qs, ps, _ = sympy_space(2)
        assert same_polynomial(product, sp.expand(to_sympy(f) * to_sympy(g)))
        assert same_polynomial(bracket, sympy_bracket(to_sympy(f), to_sympy(g), qs, ps))
        monkeypatch.setattr(phase, "MAX_TERM_PAIRS", 11)
        with pytest.raises(ProductTooLargeError, match="12 term pairs, over the limit of 11"):
            f * g
        with pytest.raises(ProductTooLargeError, match="bracket of a 3-term and a 4-term"):
            poisson(f, g)


POLYS2 = polynomial_strategy(PhaseSpace(2), max_degree=3, max_terms=3)
POLYS3 = polynomial_strategy(PhaseSpace(3), max_degree=4, max_terms=3)
SCALARS = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=3)


class TestRingLaws:
    @given(POLYS2, POLYS2, POLYS2)
    def test_associativity_and_commutativity(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f

    @given(POLYS2, POLYS2, POLYS2)
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(POLYS2, POLYS2)
    def test_subtraction(self, f, g):
        assert f - g == -(g - f)
        assert (f - g) + g == f
        assert 3 - f == -(f - 3)


class TestBracketLaws:
    @given(POLYS3, POLYS3)
    def test_antisymmetry(self, f, g):
        assert poisson(f, g) == -poisson(g, f)

    @given(POLYS3, POLYS3, POLYS3, SCALARS)
    def test_bilinearity(self, f, g, h, r):
        assert poisson(f + g, h) == poisson(f, h) + poisson(g, h)
        assert poisson(f.scale(r), h) == poisson(f, h).scale(r)

    @given(POLYS3, POLYS3, POLYS3)
    def test_leibniz(self, f, g, h):
        assert poisson(f, g * h) == g * poisson(f, h) + poisson(f, g) * h

    @settings(max_examples=60)
    @given(POLYS3, POLYS3, POLYS3)
    def test_jacobi(self, f, g, h):
        total = (
            poisson(f, poisson(g, h))
            + poisson(g, poisson(h, f))
            + poisson(h, poisson(f, g))
        )
        assert total.is_zero()


def _invariant_holds(f: PhasePolynomial) -> bool:
    """Only nonzero Fractions, and memoised queries equal to a fresh count."""
    fresh_degree = max((sum(m) for m in f.terms), default=-1)
    fresh_used = {i for m in f.terms for i, e in enumerate(m) if e}
    return (
        all(type(c) is Fraction and c != 0 for c in f.terms.values())
        and f.total_degree() == fresh_degree
        and f.total_degree() == fresh_degree  # the memoised value
        and f.used_indices() == fresh_used
        and f.used_indices() == fresh_used
    )


class TestKernelInvariants:
    """Every kernel result is built without re-coercion, so check what it holds."""

    @seed(20261018)
    @settings(max_examples=80)
    @given(POLYS3, POLYS3, SCALARS)
    def test_results_hold_nonzero_fractions(self, f, g, r):
        ext = f.space.extend(("v1",))
        results = [
            f + g, f - g, f - f, g + (-g), f * g, f * (g - g), -f,
            f.scale(r), f.scale(0), f.partial("q1"), f.partial("E"),
            f.in_space(ext), poisson(f, g), poisson(f, f), poisson(f, f * f),
            f**0, f**1, f**2, (f - g) ** 3, f + 2, 3 - f, f * Fraction(1, 2),
        ]
        for result in results:
            assert _invariant_holds(result)

    def test_cancelling_results(self):
        f = poly("q1 + p1", SPACE2)
        product = f * poly("q1 - p1", SPACE2)
        assert product.terms == {(2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0): -1}
        assert _invariant_holds(product)
        # The four pairs of {f, f} land twice on q1*p1 and twice on q2*p2,
        # with opposite signs: merged sums that cancel to zero.
        f = poly("q1*p2 + q2*p1", SPACE2)
        bracket = poisson(f, f)
        assert bracket.terms == {} and _invariant_holds(bracket)
        # Merged terms of a bracket that partly cancel.
        g = poly("q1^2*p1 + q1*p1^2", SPACE2)
        assert _invariant_holds(poisson(g, poly("q1*p1", SPACE2)))
        assert _invariant_holds(poly("q1 - q1", SPACE2))

    def test_public_constructor_still_coerces(self):
        f = PhasePolynomial(SPACE2, {(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): 0})
        assert f.terms == {(1, 0, 0, 0, 0): Fraction(2)}
        assert _invariant_holds(f)
        assert PhasePolynomial.constant(SPACE2, 0).terms == {}

    @pytest.mark.parametrize(
        "monomial",
        [
            (1,),  # too short: a product would silently truncate it
            (-1, 0, 0),  # a negative exponent
            (0, 0, 0, 5),  # too long: printing it would index past the space
            (1.0, 0, 0),  # not ints
            (True, 0, 0),
        ],
    )
    def test_public_constructor_refuses_malformed_monomials(self, monomial):
        space = PhaseSpace(1)
        with pytest.raises(ValueError, match="non-negative ints") as info:
            PhasePolynomial(space, {(0, 1, 0): 1, monomial: 1})
        assert repr(monomial) in str(info.value)

    def test_public_constructor_checks_zero_terms_too(self):
        with pytest.raises(ValueError, match=r"\(1,\)"):
            PhasePolynomial(PhaseSpace(1), {(1,): 0})


class TestCoefficientCap:
    def test_power_bound_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(phase, "MAX_COEFFICIENT_BITS", 16)
        two_q1 = poly("2*q1", SPACE2)
        assert two_q1**16 == poly(f"{2**16}*q1^16", SPACE2)
        with pytest.raises(
            ProductTooLargeError,
            match="power 17 of a 1-term polynomial could build coefficients "
            "of 17 bits, over the limit of 16",
        ):
            two_q1**17
        # Two terms with coefficient 1: log2(2) = 1 bit per factor.
        assert len((poly("q1 + p1", SPACE2) ** 16).terms) == 17
        with pytest.raises(ProductTooLargeError, match="power 17 of a 2-term"):
            poly("q1 + p1", SPACE2) ** 17

    def test_default_limit(self):
        assert phase.MAX_COEFFICIENT_BITS == 8192
        assert (poly("q1", SPACE2) ** 1_000_000).total_degree() == 1_000_000
        assert poly("-1", SPACE2) ** 10**10 == poly("1", SPACE2)
        with pytest.raises(ProductTooLargeError, match="20000 bits"):
            poly("2*q1", SPACE2) ** 20000


class TestRoundTrip:
    @given(POLYS2)
    def test_parse_print_identity(self, f):
        assert parse_polynomial(str(f), f.space) == f

    @given(POLYS2)
    def test_print_parse_print_fixed_point(self, f):
        text = str(f)
        assert str(parse_polynomial(text, f.space)) == text
