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
``phase.MAX_COEFFICIENT_BITS``.  A product the parser forms (a second
literal folded into a term's coefficient, or a product of parenthesised
groups) is refused by ``phase.check_coefficients`` when it builds a
coefficient past that limit that is larger than every coefficient of its
factors.  The rule is one of value, not of form: a single literal is taken as
written, and so is the same literal in parentheses times a monomial, as in
``(X)*(q1)`` or ``(q1)*X``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import ParseError, UndeclaredIdentifierError
from .phase import (
    _ONE,
    Exponents,
    PhasePolynomial,
    PhaseSpace,
    _adopt,
    check_coefficients,
    check_power,
)

# Deepest parenthesis nesting accepted: each level costs four frames of
# recursive descent, so this stays far below the interpreter's limit.
MAX_NESTING = 100

# A token is a digit run (str.isdigit), a name (str.isidentifier) or one
# operator character.  Whitespace matches nothing, so the scan steps over
# it, and the last group catches any other character.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]|(\S)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The (text, position) of every token, ending with ("", len(text))."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastindex:
            raise ParseError(f"unexpected character {match[0]!r}", match.start())
        tokens.append((match[0], match.start()))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, space: PhaseSpace):
        self.space = space
        self.tokens = _tokenize(text)
        self.cursor = 0
        self.depth = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.cursor]

    # expr := ('+'|'-')? term (('+'|'-') term)*   -- leading sign is tolerated
    def expression(self) -> PhasePolynomial:
        text = self.peek()[0]
        negate = False
        if text == "+":
            self.cursor += 1
        elif text == "-":
            # A '-' before digits already belongs to the rational literal.
            following = self.tokens[self.cursor + 1][0]
            if following == "(" or following.isidentifier():
                self.cursor += 1
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
            text = self.peek()[0]
            if text != "+" and text != "-":
                return _adopt(self.space, {m: c for m, c in terms.items() if c})
            self.cursor += 1
            negate = text == "-"

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
            text, position = self.peek()
            if text == "(":
                factor = self.group()
                if group is not None:
                    product = group * factor
                    check_coefficients(
                        product.terms.values(),
                        group.terms.values(),
                        factor.terms.values(),
                    )
                    factor = product
                group = factor
            elif text.isidentifier():
                self.cursor += 1
                if not self.space.has_identifier(text):
                    raise UndeclaredIdentifierError(
                        f"undeclared identifier {text!r}", position
                    )
                exps[self.space.index(text)] += self.exponent()
            elif text.isdigit() or text == "-":
                value = self.rational()
                exponent = self.exponent()
                if exponent != 1:
                    check_power((value,), exponent)
                    value = value**exponent
                if coeff is _ONE:
                    coeff = value
                else:
                    folded = coeff * value
                    check_coefficients((folded,), (coeff,), (value,))
                    coeff = folded
            else:
                raise ParseError(
                    f"expected a rational, identifier or '(', got {text!r}"
                    if text
                    else "unexpected end of expression",
                    position,
                )
            if self.peek()[0] != "*":
                break
            self.cursor += 1
        monomial = {tuple(exps): coeff} if coeff else {}
        if group is None:
            return monomial
        product = (group * _adopt(self.space, monomial)).terms
        if coeff is not _ONE:
            check_coefficients(product.values(), group.terms.values(), (coeff,))
        return product

    # '(' expr ')' ('^' uint)?
    def group(self) -> PhasePolynomial:
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING}", self.peek()[1]
            )
        self.cursor += 1
        self.depth += 1
        poly = self.expression()
        self.depth -= 1
        text, position = self.peek()
        if text != ")":
            raise ParseError("expected ')'", position)
        self.cursor += 1
        exponent = self.exponent()
        return poly if exponent == 1 else poly**exponent

    # ('^' uint)?
    def exponent(self) -> int:
        if self.peek()[0] != "^":
            return 1
        self.cursor += 1
        return self.unsigned("exponent must be a non-negative integer literal")

    # rational := '-'? int ('/' uint)?
    def rational(self) -> Fraction:
        sign, position = self.peek()
        negative = sign == "-"
        self.cursor += negative
        numerator = self.unsigned("expected a rational after '-'", position)
        if negative:
            numerator = -numerator
        if self.peek()[0] != "/":
            return Fraction(numerator)
        self.cursor += 1
        position = self.peek()[1]
        denominator = self.unsigned("expected an unsigned denominator")
        if not denominator:
            raise ParseError("zero denominator", position)
        return Fraction(numerator, denominator)

    def unsigned(self, message: str, position: int | None = None) -> int:
        """Read an unsigned integer literal, or raise `message` at `position`
        (by default the offending token's)."""
        text, at = self.peek()
        if not text.isdigit():
            raise ParseError(message, at if position is None else position)
        self.cursor += 1
        # int() refuses more than sys.get_int_max_str_digits() (4300) digits.
        try:
            return int(text)
        except ValueError:
            raise ParseError(
                f"numeric literal of {len(text)} digits is too long", at
            ) from None


def parse_polynomial(text: str, space: PhaseSpace) -> PhasePolynomial:
    """Parse expression text into a canonical-form polynomial on `space`."""
    parser = _Parser(text, space)
    poly = parser.expression()
    tail, position = parser.peek()
    if tail:
        raise ParseError(f"unexpected trailing input {tail!r}", position)
    return poly
