"""The expression parser: its error branches and its agreement with sympy.

``ERRORS`` pins the exception type, message and position of every error
branch of ``parse_polynomial``, as the parser reported them before terms were
built as single monomials; the parser's speed may change, what it reports on
bad input may not.
"""

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
    UndeclaredIdentifierError,
    parse_model_text,
    parse_polynomial,
)
from dirac_symmetry import expressions, phase


SPACE = PhaseSpace(2, ("E", "m"))
SYMBOLS = {name: sp.Symbol(name) for name in SPACE.identifiers}

# (text, exception type, message without its position suffix, position)
ERRORS = [
    ('q1*-q2', ParseError, "expected a rational after '-'", 3),
    ('2^', ParseError, 'exponent must be a non-negative integer literal', 2),
    ('q1^x', ParseError, 'exponent must be a non-negative integer literal', 3),
    ('2*q9', UndeclaredIdentifierError, "undeclared identifier 'q9'", 2),
    ('q1*(p1', ParseError, "expected ')'", 6),
    ('-(q1', ParseError, "expected ')'", 4),
    ('1/0', ParseError, 'zero denominator', 2),
    ('q1 + * p1', ParseError, "expected a rational, identifier or '(', got '*'", 5),
    ('q1 $ p1', ParseError, "unexpected character '$'", 3),
    ('', ParseError, 'unexpected end of expression', 0),
    ('   ', ParseError, 'unexpected end of expression', 3),
    ('q1 +', ParseError, 'unexpected end of expression', 4),
    ('q1^-2', ParseError, 'exponent must be a non-negative integer literal', 3),
    ('q1^(2)', ParseError, 'exponent must be a non-negative integer literal', 3),
    ('1/q1', ParseError, 'expected an unsigned denominator', 2),
    ('1/', ParseError, 'expected an unsigned denominator', 2),
    ('q1 p1', ParseError, "unexpected trailing input 'p1'", 3),
    ('q1)', ParseError, "unexpected trailing input ')'", 2),
    ('(q1)(p1)', ParseError, "unexpected trailing input '('", 4),
    ('q1^2^3', ParseError, "unexpected trailing input '^'", 4),
    ('--q1', ParseError, "expected a rational after '-'", 0),
    ('- -3', ParseError, "expected a rational after '-'", 0),
    ('3/-2', ParseError, 'expected an unsigned denominator', 2),
    ('q1*', ParseError, 'unexpected end of expression', 3),
    ('*q1', ParseError, "expected a rational, identifier or '(', got '*'", 0),
    ('+', ParseError, 'unexpected end of expression', 1),
    ('-', ParseError, "expected a rational after '-'", 0),
    ('(', ParseError, 'unexpected end of expression', 1),
    (')', ParseError, "expected a rational, identifier or '(', got ')'", 0),
    ('()', ParseError, "expected a rational, identifier or '(', got ')'", 1),
    ('q1/2', ParseError, "unexpected trailing input '/'", 2),
    ('2/3/4', ParseError, "unexpected trailing input '/'", 3),
    ('E2', UndeclaredIdentifierError, "undeclared identifier 'E2'", 0),
    ('q0', UndeclaredIdentifierError, "undeclared identifier 'q0'", 0),
    ('2 3', ParseError, "unexpected trailing input '3'", 2),
    ('q1^2 3', ParseError, "unexpected trailing input '3'", 5),
    ('(q1 + p1', ParseError, "expected ')'", 8),
    ('((q1)', ParseError, "expected ')'", 5),
    ('q1 ^ x', ParseError, 'exponent must be a non-negative integer literal', 5),
    ('1/0*q9', ParseError, 'zero denominator', 2),
    ('q9*1/0', UndeclaredIdentifierError, "undeclared identifier 'q9'", 0),
    ('-q1^', ParseError, 'exponent must be a non-negative integer literal', 4),
    ('-(', ParseError, 'unexpected end of expression', 2),
    ('p1*(q1 + q9)', UndeclaredIdentifierError, "undeclared identifier 'q9'", 9),
    ('2*(q1 - -)', ParseError, "expected a rational after '-'", 8),
    ('q1*p1^', ParseError, 'exponent must be a non-negative integer literal', 6),
    ('2^q1', ParseError, 'exponent must be a non-negative integer literal', 2),
    ('2/3^x', ParseError, 'exponent must be a non-negative integer literal', 4),
    ('-3/0', ParseError, 'zero denominator', 3),
    ('q1 + 2*(3 + )', ParseError, "expected a rational, identifier or '(', got ')'", 12),
    ('m*m^ ', ParseError, 'exponent must be a non-negative integer literal', 5),
    ('q1**2', ParseError, "expected a rational, identifier or '(', got '*'", 3),
    ('q1^^2', ParseError, 'exponent must be a non-negative integer literal', 3),
    ('q1 - + p1', ParseError, "expected a rational, identifier or '(', got '+'", 5),
    ('+-q1', ParseError, "expected a rational after '-'", 1),
    ('q1*+2', ParseError, "expected a rational, identifier or '(', got '+'", 3),
    ('(q1)^', ParseError, 'exponent must be a non-negative integer literal', 5),
    ('(q1)^p1', ParseError, 'exponent must be a non-negative integer literal', 5),
    ('2*((q1)', ParseError, "expected ')'", 7),
    ("q1 + 1/" + "3" * 4400, ParseError, 'numeric literal of 4400 digits is too long', 7),
    ("q1 + " + "7" * 5001 + "*p1", ParseError, 'numeric literal of 5001 digits is too long', 5),
    ("q1^" + "2" * 5001, ParseError, 'numeric literal of 5001 digits is too long', 3),
    ("(" * 101 + "q1" + ")" * 101, ParseError, 'parentheses nested deeper than 100', 100),
    ("-(" * 101 + "q1" + ")" * 101, ParseError, 'parentheses nested deeper than 100', 201),
    ('q1é', ParseError, "unexpected character 'é'", 2),
    ('q1 # p1', ParseError, "unexpected character '#'", 3),
    ('q1;p1', ParseError, "unexpected character ';'", 2),
]


@pytest.mark.parametrize(
    "text, kind, message, position", ERRORS, ids=[repr(case[0])[:32] for case in ERRORS]
)
def test_error_branch_is_pinned(text, kind, message, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, SPACE)
    assert type(err.value) is kind
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


# (text, printed value): whitespace of every kind separates tokens and is
# never one, and a '-' binds to the digits after it.  Pinned before the
# tokenizer became one regular-expression scan.
TOKEN_EDGES = [
    ("q1\t+\tp1", "q1 + p1"),
    ("q1\n*\np1", "q1*p1"),
    ("q1\f-\fm", "q1 - m"),
    ("2\u00a0*\u00a0q1", "2*q1"),
    ("q1\u2003^\u20032", "q1^2"),
    ("\t q1 \n", "q1"),
    ("- 2*q1", "-2*q1"),
    ("q1 - -2", "q1 + 2"),
    ("q1*(-2)", "-2*q1"),
    ("2 / 3 * q1", "2/3*q1"),
]


@pytest.mark.parametrize("text, printed", TOKEN_EDGES, ids=[repr(t) for t, _ in TOKEN_EDGES])
def test_token_edge_parses(text, printed):
    assert str(parse_polynomial(text, SPACE)) == printed


@pytest.mark.parametrize("name", SPACE.identifiers)
def test_a_lone_identifier_is_the_parsed_variable(name):
    # The parser's own result for the identifier, past the lone-identifier
    # shortcut, and with whitespace, which always goes through the parser.
    parser = expressions._Parser(name, SPACE)
    parsed = parser.expression()
    assert parser.tokens[parser.cursor] == ""
    for text in (name, f" {name}", f"{name}\n"):
        result = parse_polynomial(text, SPACE)
        assert result == parsed == PhasePolynomial.variable(SPACE, name)
        assert str(result) == name


def test_lone_undeclared_names_keep_their_errors():
    for text, position in (("q3", 0), ("x", 0), (" q3", 1)):
        with pytest.raises(UndeclaredIdentifierError) as err:
            parse_polynomial(text, SPACE)
        assert err.value.position == position


def test_nul_is_an_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_polynomial("q1\x00", SPACE)
    assert str(err.value) == "unexpected character '\\x00' (at position 2)"
    assert err.value.position == 2


def test_model_value_continued_on_an_indented_line_is_one_expression():
    model = parse_model_text(
        "[system]\nn_dof = 2\nparameters = E\nhamiltonian = q1*p2\n    + q2*p1\n\t- 3*E\n"
    )
    assert str(model.system.h_d) == "q1*p2 + q2*p1 - 3*E"


class TestLiteralPowers:
    def test_refused_before_computing(self):
        for text, bits in (
            ("2^15000*q1*p1", 15000),
            ("(2*q1)^20000*p1", 20000),
            ("2^10000000000", 10000000000),
            ("q1 + 2/3^9000", 14265),
        ):
            with pytest.raises(ProductTooLargeError, match=f"coefficients of {bits} bits"):
                parse_polynomial(text, SPACE)

    def test_accepted_up_to_the_limit(self):
        assert parse_polynomial("2^8192", SPACE) == PhasePolynomial.constant(SPACE, 2**8192)
        with pytest.raises(ProductTooLargeError, match="over the limit of 8192"):
            parse_polynomial("2^8193", SPACE)
        assert parse_polynomial("q1^1000000", SPACE).total_degree() == 1_000_000
        literal = "7" * 4300
        assert parse_polynomial(f"{literal}*q1", SPACE).terms == {
            (1, 0, 0, 0, 0, 0): Fraction(int(literal))
        }
        assert parse_polynomial("-1^10000000000 + 0^10000000000", SPACE) == 1

    def test_products_past_the_limit_are_refused(self):
        for text in (
            "2^8000*2^8000*q1*p1",
            "2^8000*q1*2^8000",
            "(2^8000*q1)*(2^8000 + p1)",
            "2^8000*(2^8000*q1 + p1)",
            "(q1 + p1)*2/3^5000*1/3^5000",
        ):
            with pytest.raises(ProductTooLargeError, match="product builds coefficients of"):
                parse_polynomial(text, SPACE)

    def test_products_up_to_the_limit_and_single_factors_are_accepted(self):
        assert parse_polynomial("2^4096*2^4096*q1", SPACE).terms == {
            (1, 0, 0, 0, 0, 0): Fraction(2**8192)
        }
        # A literal alone may be longer: it prints within Python's limit.
        literal = "7" * 4300
        for text in (
            f"({literal}*q1)", f"({literal})*q1", f"q1*({literal})",
            # The cap is a rule of value: a product that builds no coefficient
            # larger than its factors hold is taken, however it is written.
            f"({literal})*(q1)", f"(q1)*({literal})", f"(q1)*{literal}",
            f"({literal})*(q1)*(1)", f"{literal}*1*q1", f"-1*-{literal}*q1",
        ):
            assert parse_polynomial(text, SPACE) == parse_polynomial(f"{literal}*q1", SPACE)
        for text in (f"({literal})*({literal})", f"{literal}*{literal}"):
            with pytest.raises(
                ProductTooLargeError,
                match="^product builds coefficients of 28568 bits, over the limit of 8192$",
            ):
                parse_polynomial(text, SPACE)
        for text in (f"({literal})*2*q1", f"(q1)*({literal})*(2)", f"{literal}*2*q1"):
            with pytest.raises(ProductTooLargeError, match="coefficients of 14285 bits"):
                parse_polynomial(text, SPACE)

    def test_a_term_is_one_monomial(self):
        parsed = parse_polynomial("2*q1^2*-3/2*p1*q1*m^0", SPACE)
        assert parsed.terms == {(3, 0, 1, 0, 0, 0): Fraction(-3)}
        assert parse_polynomial("0*q1*(q1 + p1)^2", SPACE).terms == {}
        assert parse_polynomial("q1*(q1 + p1)*2*(q1 - p1)", SPACE) == parse_polynomial(
            "2*q1^3 - 2*q1*p1^2", SPACE
        )


class TestStoredEntries:
    # SPACE has six identifiers, so every term stores six exponent entries.
    def test_sum_at_the_limit_parses_and_one_term_more_is_refused(self, monkeypatch):
        monkeypatch.setattr(phase, "MAX_TERM_ENTRIES", 18)
        assert len(parse_polynomial("q1 + q2 + p1 + q1", SPACE).terms) == 3
        with pytest.raises(
            ProductTooLargeError,
            match="^sum of more than 3 terms over 6 identifiers would store more "
            "exponent entries than the limit of 18$",
        ):
            parse_polynomial("q1 + q2 + p1 + p2", SPACE)

    def test_each_group_is_a_sum_of_its_own(self, monkeypatch):
        monkeypatch.setattr(phase, "MAX_TERM_ENTRIES", 18)
        assert parse_polynomial("(q1 + q2 + p1) - (q1 + q2)", SPACE) == parse_polynomial(
            "p1", SPACE
        )
        with pytest.raises(ProductTooLargeError, match="^sum of more than 3 terms"):
            parse_polynomial("m*(q1 + q2 + p1 + p2)", SPACE)


# Random expression trees.  An atom is (text, sympy value, kind), a factor
# adds its exponent.  A leading '-' before a literal belongs to that literal,
# so "-3^2" is (-3)^2: the value is built from the tree, not read from the text.
def _rational_atom(parts):
    numerator, denominator, negative = parts
    text = f"{numerator}" if denominator is None else f"{numerator}/{denominator}"
    value = sp.Rational(numerator, denominator or 1)
    if negative:
        return f"-{text}", -value, "negative"
    return text, value, "number"


_RATIONAL = st.tuples(
    st.integers(0, 12), st.sampled_from([None, 1, 2, 3, 6]), st.booleans()
).map(_rational_atom)
_IDENTIFIER = st.sampled_from(SPACE.identifiers).map(
    lambda name: (name, SYMBOLS[name], "identifier")
)


def _power(parts):
    (text, value, kind), exponent = parts
    if exponent is None:
        return text, value, kind, 1
    return f"{text}^{exponent}", value, kind, exponent


def _term_value(factors, negate_literal=False):
    value = sp.Integer(1)
    for position, (_, base, _, exponent) in enumerate(factors):
        if position == 0 and negate_literal:
            base = -base
        value *= base**exponent
    return value


def _expression(parts):
    lead, first, rest = parts
    kind = first[0][2]
    if lead == "-" and kind == "negative":
        lead = ""  # "- -3" is not in the grammar
    text = lead + "*".join(f[0] for f in first)
    if lead == "-" and kind == "number":
        value = _term_value(first, negate_literal=True)
    else:
        value = -_term_value(first) if lead == "-" else _term_value(first)
    for sign, factors in rest:
        text += f" {sign} " + "*".join(f[0] for f in factors)
        value += _term_value(factors) if sign == "+" else -_term_value(factors)
    return text, value


def _expressions(group=st.nothing()):
    # Groups take at most a square, so nested powers stay small for sympy.
    factor = st.one_of(
        st.tuples(st.one_of(_RATIONAL, _IDENTIFIER), st.sampled_from([None, 0, 1, 2, 3])),
        st.tuples(group, st.sampled_from([None, 0, 1, 2])),
    ).map(_power)
    term = st.lists(factor, min_size=1, max_size=3)
    rest = st.lists(st.tuples(st.sampled_from("+-"), term), max_size=2)
    return st.tuples(st.sampled_from(["", "+", "-"]), term, rest).map(_expression)


EXPRESSIONS = st.recursive(
    _expressions(),
    lambda inner: _expressions(inner.map(lambda e: (f"({e[0]})", e[1], "group"))),
    max_leaves=5,
)
GENERATORS = [SYMBOLS[name] for name in SPACE.identifiers]


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(EXPRESSIONS)
def test_random_expressions_parse_to_the_sympy_expansion(expression):
    text, value = expression
    parsed = parse_polynomial(text, SPACE)
    assert all(type(c) is Fraction and c for c in parsed.terms.values())
    assert sp.Poly.from_dict(
        {m: sp.Rational(c.numerator, c.denominator) for m, c in parsed.terms.items()},
        *GENERATORS,
    ) == sp.Poly(value, *GENERATORS), text
    printed = str(parsed)
    assert parse_polynomial(printed, SPACE) == parsed
    assert str(parse_polynomial(printed, SPACE)) == printed
