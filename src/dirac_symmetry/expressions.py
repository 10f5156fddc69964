"""Recursive-descent parser for the phase-polynomial expression grammar.

Grammar (whitespace insignificant):

    expr       := term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := atom ('^' uint)?
    atom       := rational | identifier | '(' expr ')'
    rational   := int ('/' uint)?
    identifier := ('q' | 'p') uint | declared parameter name

The printer (``str(PhasePolynomial)``) emits this grammar exactly.  As a
convenience the parser additionally accepts one leading '+' or '-' before the
first term of an expression; printed output never relies on it.

A term is built as one monomial: its rationals, identifiers and their powers
fold into one coefficient and one exponent list, and only parenthesised
groups are multiplied as polynomials.  A whole sum collects its terms in one
dict and hands it to the kernel's trusted constructor ``phase._adopt``, whose
invariant it keeps: a fresh dict whose values are all nonzero ``Fraction``s.
A rational literal raised to a power is refused, as ``PhasePolynomial``
powers are, when ``phase.check_power`` estimates its size past
``phase.MAX_COEFFICIENT_BITS``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import ParseError, UndeclaredIdentifierError
from .phase import _ONE, Exponents, PhasePolynomial, PhaseSpace, _adopt, check_power

# Deepest parenthesis nesting accepted: each level costs four frames of
# recursive descent, so this stays far below the interpreter's limit.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<number>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
)


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind
        self.text = text
        self.position = position


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, space: PhaseSpace):
        self.space = space
        self.tokens = _tokenize(text)
        self.cursor = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect_op(self, op: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}", token.position)
        return self.advance()

    # expr := ('+'|'-')? term (('+'|'-') term)*   -- leading sign is tolerated
    def expression(self) -> PhasePolynomial:
        token = self.peek()
        negate = False
        if token.kind == "op" and token.text == "+":
            self.advance()
        elif token.kind == "op" and token.text == "-":
            # A '-' before digits already belongs to the rational literal.
            nxt = self.tokens[self.cursor + 1]
            if nxt.kind == "ident" or (nxt.kind == "op" and nxt.text == "("):
                self.advance()
                negate = True
        # The terms of the whole sum go into one dictionary, so a sum of n
        # terms costs O(n), not the O(n^2) of adding polynomials one by one;
        # the coefficients that cancelled are dropped once, at the end.
        terms: dict[Exponents, Fraction] = {}
        get = terms.get
        while True:
            for mon, coeff in self.term().items():
                if negate:
                    coeff = -coeff
                old = get(mon)
                terms[mon] = coeff if old is None else old + coeff
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                negate = token.text == "-"
            else:
                return _adopt(self.space, {m: c for m, c in terms.items() if c})

    # term := factor ('*' factor)*
    def term(self) -> Mapping[Exponents, Fraction]:
        """The terms of one product, each coefficient a nonzero Fraction.

        Rationals, identifiers and their powers fold into one coefficient and
        one exponent list; only parenthesised groups are multiplied as
        polynomials, in the order they come.
        """
        coeff = _ONE
        exps = [0] * self.space.n_identifiers
        group = None
        while True:
            token = self.peek()
            if token.kind == "op" and token.text == "(":
                factor = self.group()
                group = factor if group is None else group * factor
            elif token.kind == "ident":
                self.advance()
                if not self.space.has_identifier(token.text):
                    raise UndeclaredIdentifierError(
                        f"undeclared identifier {token.text!r}", token.position
                    )
                exps[self.space.index(token.text)] += self.exponent()
            elif token.kind == "number" or (token.kind == "op" and token.text == "-"):
                value = self.rational()
                exponent = self.exponent()
                if exponent != 1:
                    check_power((value,), exponent)
                    value = value**exponent
                coeff *= value
            else:
                raise ParseError(
                    f"expected a rational, identifier or '(', got {token.text!r}"
                    if token.kind != "end"
                    else "unexpected end of expression",
                    token.position,
                )
            token = self.peek()
            if token.kind == "op" and token.text == "*":
                self.advance()
            else:
                break
        monomial = {tuple(exps): coeff} if coeff else {}
        if group is None:
            return monomial
        return (group * _adopt(self.space, monomial)).terms

    # '(' expr ')' ('^' uint)?
    def group(self) -> PhasePolynomial:
        token = self.advance()
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING}", token.position
            )
        self.depth += 1
        poly = self.expression()
        self.depth -= 1
        self.expect_op(")")
        exponent = self.exponent()
        return poly if exponent == 1 else poly**exponent

    # ('^' uint)?
    def exponent(self) -> int:
        token = self.peek()
        if token.kind != "op" or token.text != "^":
            return 1
        self.advance()
        exp_token = self.peek()
        if exp_token.kind != "number":
            raise ParseError(
                "exponent must be a non-negative integer literal", exp_token.position
            )
        self.advance()
        return _integer(exp_token)

    # rational := '-'? int ('/' uint)?
    def rational(self) -> Fraction:
        token = self.advance()
        negative = token.kind == "op"  # the '-' of a negative literal
        if negative:
            if self.peek().kind != "number":
                raise ParseError("expected a rational after '-'", token.position)
            token = self.advance()
        numerator = _integer(token)
        if negative:
            numerator = -numerator
        denominator = 1
        token = self.peek()
        if token.kind == "op" and token.text == "/":
            self.advance()
            den_token = self.peek()
            if den_token.kind != "number":
                raise ParseError("expected an unsigned denominator", den_token.position)
            self.advance()
            denominator = _integer(den_token)
            if denominator == 0:
                raise ParseError("zero denominator", den_token.position)
        return Fraction(numerator, denominator)


def _integer(token: _Token) -> int:
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits.
    try:
        return int(token.text)
    except ValueError:
        raise ParseError(
            f"numeric literal of {len(token.text)} digits is too long", token.position
        ) from None


def parse_polynomial(text: str, space: PhaseSpace) -> PhasePolynomial:
    """Parse expression text into a canonical-form polynomial on `space`."""
    parser = _Parser(text, space)
    poly = parser.expression()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.position)
    return poly
