import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dirac_symmetry import PhasePolynomial, PhaseSpace, parse_polynomial


@pytest.fixture
def space1():
    return PhaseSpace(1)


@pytest.fixture
def space2():
    return PhaseSpace(2)


@pytest.fixture
def space3():
    return PhaseSpace(3)


def poly(text: str, space: PhaseSpace) -> PhasePolynomial:
    return parse_polynomial(text, space)


def random_polynomial(
    rng: random.Random,
    space: PhaseSpace,
    max_terms: int = 4,
    max_degree: int = 4,
    coeff_range: tuple[int, int] = (-9, 9),
    allow_parameters: bool = False,
) -> PhasePolynomial:
    n = space.n_identifiers
    usable = n if allow_parameters else 2 * space.n_dof
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(usable)] += 1
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(*coeff_range)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return PhasePolynomial(space, terms)


def polynomial_strategy(space: PhaseSpace, max_degree: int = 3, max_terms: int = 4):
    n = space.n_identifiers

    def exponents(degree_budget):
        return st.lists(
            st.integers(0, n - 1), min_size=0, max_size=degree_budget
        ).map(
            lambda picks: tuple(
                sum(1 for p in picks if p == idx) for idx in range(n)
            )
        )

    coeffs = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
    ).filter(lambda c: c != 0)
    term = st.tuples(exponents(max_degree), coeffs)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda pairs: PhasePolynomial(space, dict(pairs))
    )


# Text a mutation may insert into a line, or insert as a line of its own:
# the characters the model-file reader gives meaning to, whitespace that is
# not a space, and lines that open, repeat or break sections.
MUTATION_TOKENS = ("#", " #", "=", "[", "]", " ", "\t", "\x0c", "\xa0", "\r", "\u2028")
MUTATION_LINES = ("", "[DEFAULT]", "[system]", "[primaries]", "[generators.g]",
                  "x = 1", " = x", "#", "]", "[x] y")


def mutate_model_text(text: str, rng: random.Random, edits: int) -> str:
    """`text` after `edits` random line edits: drop, duplicate, indent or
    dedent a line, insert a token into a line, or insert a line."""
    lines = text.split("\n")
    for _ in range(edits):
        at = rng.randrange(len(lines))
        edit = rng.randrange(6)
        if edit == 0 and len(lines) > 1:
            del lines[at]
        elif edit == 1:
            lines.insert(at, lines[at])
        elif edit == 2:
            lines[at] = rng.choice(("  ", "\t", " ")) + lines[at]
        elif edit == 3:
            lines[at] = lines[at].lstrip()
        elif edit == 4:
            cut = rng.randrange(len(lines[at]) + 1)
            lines[at] = lines[at][:cut] + rng.choice(MUTATION_TOKENS) + lines[at][cut:]
        else:
            lines.insert(at, rng.choice(MUTATION_LINES))
    return "\n".join(lines)
