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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, UndeclaredIdentifierError
from .phase import Exponents, PhasePolynomial, PhaseSpace

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
        # the constructor drops the coefficients that cancelled.
        terms: dict[Exponents, Fraction] = {}
        while True:
            for mon, coeff in self.term().terms.items():
                terms[mon] = terms.get(mon, 0) + (-coeff if negate else coeff)
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                negate = token.text == "-"
            else:
                return PhasePolynomial(self.space, terms)

    def term(self) -> PhasePolynomial:
        poly = self.factor()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> PhasePolynomial:
        poly = self.atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            exp_token = self.peek()
            if exp_token.kind != "number":
                raise ParseError(
                    "exponent must be a non-negative integer literal",
                    exp_token.position,
                )
            self.advance()
            poly = poly ** _integer(exp_token)
        return poly

    def atom(self) -> PhasePolynomial:
        token = self.peek()
        if token.kind == "op" and token.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", token.position
                )
            self.advance()
            self.depth += 1
            poly = self.expression()
            self.depth -= 1
            self.expect_op(")")
            return poly
        if token.kind == "op" and token.text == "-":
            nxt = self.tokens[self.cursor + 1]
            if nxt.kind != "number":
                raise ParseError("expected a rational after '-'", token.position)
            self.advance()
            return self.rational(negative=True)
        if token.kind == "number":
            return self.rational(negative=False)
        if token.kind == "ident":
            self.advance()
            if not self.space.has_identifier(token.text):
                raise UndeclaredIdentifierError(
                    f"undeclared identifier {token.text!r}", token.position
                )
            return PhasePolynomial.variable(self.space, token.text)
        raise ParseError(
            f"expected a rational, identifier or '(', got {token.text!r}"
            if token.kind != "end"
            else "unexpected end of expression",
            token.position,
        )

    def rational(self, negative: bool) -> PhasePolynomial:
        num_token = self.advance()
        numerator = _integer(num_token)
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
        return PhasePolynomial.constant(self.space, Fraction(numerator, denominator))


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
