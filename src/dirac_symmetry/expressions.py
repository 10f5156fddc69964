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
``(X)*(q1)`` or ``(q1)*X``.  A sum is refused as soon as its distinct terms
times the space's identifiers pass ``phase.MAX_TERM_ENTRIES``, since every
term stores one exponent per identifier; a model file hands the parser
the entries its earlier sums left instead (see ``modelfile``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from . import phase
from .errors import ParseError, ProductTooLargeError, UndeclaredIdentifierError
from .phase import (
    _ONE,
    Exponents,
    PhasePolynomial,
    PhaseSpace,
    _adopt,
    check_coefficients,
    check_power,
)

# Deepest parenthesis nesting accepted: each level costs three frames of
# recursive descent, so this stays far below the interpreter's limit.
MAX_NESTING = 100

# A token is a digit run (str.isdigit), a name (str.isidentifier) or one
# operator character.  Whitespace matches no token, so findall steps over
# it; any other character is refused by one search before the scan.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]")
_BAD_CHARACTER_RE = re.compile(r"[^\s0-9A-Za-z_+\-*/^()]")


class _Parser:
    """Recursive descent over the token strings of `text`, which end with "".

    ``cursor`` is the index of the next token.  Token positions in the text
    are found only when an error is raised.
    """

    def __init__(self, text: str, space: PhaseSpace, entries: int | None = None):
        bad = _BAD_CHARACTER_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
        self.text = text
        self.space = space
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.cursor = 0
        self.depth = 0
        # A sum of more terms would store more exponent entries than
        # `entries`, by default phase.MAX_TERM_ENTRIES.
        self.entries = phase.MAX_TERM_ENTRIES if entries is None else entries
        self.most_terms = self.entries // space.n_identifiers

    def error(self, message: str, index: int, kind=ParseError) -> ParseError:
        """A `kind` error for `message` at the position of token `index`."""
        starts = [match.start() for match in _TOKEN_RE.finditer(self.text)]
        starts.append(len(self.text))
        return kind(message, starts[index])

    # expr := ('+'|'-')? term (('+'|'-') term)*   -- leading sign is tolerated
    def expression(self) -> PhasePolynomial:
        tokens = self.tokens
        text = tokens[self.cursor]
        negate = False
        if text == "+":
            self.cursor += 1
        elif text == "-":
            # A '-' before digits already belongs to the rational literal.
            following = tokens[self.cursor + 1]
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
                if old is not None:
                    terms[mon] = old + coeff
                    continue
                terms[mon] = coeff
                if len(terms) > self.most_terms:
                    stored = phase.MAX_TERM_ENTRIES - self.entries
                    raise ProductTooLargeError(
                        f"sum of more than {self.most_terms} terms over "
                        f"{self.space.n_identifiers} identifiers would "
                        + (f"take the model's sums, {stored} exponent entries "
                           f"before it, over the limit of "
                           f"{phase.MAX_TERM_ENTRIES} for one model" if stored else
                           f"store more exponent entries than the limit of "
                           f"{phase.MAX_TERM_ENTRIES}")
                    )
            text = tokens[self.cursor]
            if text != "+" and text != "-":
                return _adopt(self.space, {m: c for m, c in terms.items() if c})
            self.cursor += 1
            negate = text == "-"

    # term := factor ('*' factor)*,  factor := atom ('^' uint)?
    def term(self) -> Mapping[Exponents, Fraction]:
        """The terms of one product, each coefficient a nonzero Fraction.

        Rationals, identifiers and their powers fold into one coefficient and
        one exponent list; only parenthesised groups are multiplied as
        polynomials, in the order they come.
        """
        tokens = self.tokens
        index = self.space._index
        coeff = _ONE
        exps = [0] * len(index)
        group = None
        i = self.cursor
        try:
            while True:
                text = tokens[i]
                if text == "(":
                    self.cursor = i
                    factor = self.group()
                    i = self.cursor
                elif text.isidentifier():
                    slot = index.get(text)
                    if slot is None:
                        raise self.error(
                            f"undeclared identifier {text!r}", i,
                            UndeclaredIdentifierError,
                        )
                    i += 1
                elif text.isdigit() or text == "-":
                    # rational := '-'? int ('/' uint)?
                    if text == "-":
                        i += 1
                        if not tokens[i].isdigit():
                            raise self.error("expected a rational after '-'", i - 1)
                        value = -int(tokens[i])
                    else:
                        value = int(text)
                    i += 1
                    if tokens[i] == "/":
                        i += 1
                        if not tokens[i].isdigit():
                            raise self.error("expected an unsigned denominator", i)
                        denominator = int(tokens[i])
                        if not denominator:
                            raise self.error("zero denominator", i)
                        value = Fraction(value, denominator)
                        i += 1
                    else:
                        value = Fraction(value)
                else:
                    raise self.error(
                        f"expected a rational, identifier or '(', got {text!r}"
                        if text
                        else "unexpected end of expression",
                        i,
                    )
                exponent = 1
                if tokens[i] == "^":
                    i += 1
                    if not tokens[i].isdigit():
                        raise self.error(
                            "exponent must be a non-negative integer literal", i
                        )
                    exponent = int(tokens[i])
                    i += 1
                if text == "(":
                    if exponent != 1:
                        factor = factor**exponent
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
                    exps[slot] += exponent
                else:
                    if exponent != 1:
                        check_power((value,), exponent)
                        value = value**exponent
                    if coeff is _ONE:
                        coeff = value
                    else:
                        folded = coeff * value
                        check_coefficients((folded,), (coeff,), (value,))
                        coeff = folded
                if tokens[i] != "*":
                    break
                i += 1
        except ValueError:
            # int() refuses more than sys.get_int_max_str_digits() (4300)
            # digits; token i is the literal it was given.
            raise self.error(
                f"numeric literal of {len(tokens[i])} digits is too long", i
            ) from None
        self.cursor = i
        monomial = {tuple(exps): coeff} if coeff else {}
        if group is None:
            return monomial
        product = (group * _adopt(self.space, monomial)).terms
        if coeff is not _ONE:
            check_coefficients(product.values(), group.terms.values(), (coeff,))
        return product

    # '(' expr ')', its exponent read by the caller
    def group(self) -> PhasePolynomial:
        if self.depth == MAX_NESTING:
            raise self.error(
                f"parentheses nested deeper than {MAX_NESTING}", self.cursor
            )
        self.cursor += 1
        self.depth += 1
        poly = self.expression()
        self.depth -= 1
        if self.tokens[self.cursor] != ")":
            raise self.error("expected ')'", self.cursor)
        self.cursor += 1
        return poly


def parse_polynomial(
    text: str, space: PhaseSpace, _entries: int | None = None
) -> PhasePolynomial:
    """Parse expression text into a canonical-form polynomial on `space`.

    ``_entries``, the exponent entries a model's earlier sums left of
    ``phase.MAX_TERM_ENTRIES``, takes the place of that limit."""
    # A lone declared identifier, no whitespace, that the entries can hold.
    if text in space._index and (_entries is None or _entries >= space.n_identifiers):
        return PhasePolynomial.variable(space, text)
    parser = _Parser(text, space, _entries)
    poly = parser.expression()
    tail = parser.tokens[parser.cursor]
    if tail:
        raise parser.error(f"unexpected trailing input {tail!r}", parser.cursor)
    return poly
