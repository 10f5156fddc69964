"""Answers that a canonical relabelling must leave alone.

Permuting the degrees of freedom, and mapping (q_i, p_i) -> (p_i, -q_i) on
any subset of them, is a canonical transformation: substituted into every
polynomial, it maps each bracket to the bracket of the images and each
monomial to a monomial of the same degree.  So the chain's counts, the
first-class verdict of every pair, every generator's class, the overall
class and the structure constants must come out the same for the relabelled
model.  The oracle needs no second implementation: it catches answers that
depend on the order of the identifiers or on tie-breaks in graded-lex,
which an oracle using the same order would share.

Whether a negative answer is ``exact`` is not compared: the Groebner steps
it takes depend on the term order, so a budget may run out on one side only.
"""

import random

import pytest

from dirac_symmetry import (
    SHIPPED_MODELS,
    ConstrainedSystem,
    GeneratorSet,
    NotClosed,
    PhasePolynomial,
    classify,
    first_class_check,
    generate_chain,
    parse_model_text,
    poisson,
)

from test_cli import MEMBER_PAST_THE_BOUND

MODELS = {
    **SHIPPED_MODELS,
    "member_past_the_bound": lambda: parse_model_text(MEMBER_PAST_THE_BOUND),
}
SEEDS = range(5)


def relabelling(space, rng):
    """A seeded canonical relabelling of the space's polynomials: dof i goes
    to dof order[i], and on the dofs in `flipped` q_i -> p_j and p_i ->
    -q_j.  Parameters stay.  Returns the substitution and whether it moves
    any dof and flips any."""
    n = space.n_dof
    order = list(range(n))
    rng.shuffle(order)
    flipped = {i for i in range(n) if rng.random() < 0.5}

    def apply(poly: PhasePolynomial) -> PhasePolynomial:
        terms = {}
        for mon, coeff in poly.terms.items():
            image, sign = list(mon), 1
            for i, j in enumerate(order):
                q, p = mon[i], mon[n + i]
                if i in flipped:  # q^a p^b -> p^a (-q)^b
                    q, p, sign = p, q, sign * (-1) ** p
                image[j], image[n + j] = q, p
            terms[tuple(image)] = sign * coeff
        return PhasePolynomial(space, terms)

    return apply, order != sorted(order), bool(flipped)


def relabelled(model, apply):
    """The model's system and generator sets, every polynomial substituted."""
    system = model.system
    primaries = tuple(map(apply, system.primaries))
    image = ConstrainedSystem(system.space, apply(system.h_d), primaries, system.primary_names)
    sets = {
        name: GeneratorSet(gen_set.names, tuple(map(apply, gen_set.generators)))
        for name, gen_set in model.generator_sets.items()
    }
    return image, sets


def answers(system, generator_sets):
    """What the relabelling must not change."""
    chain = generate_chain(system)
    pairs = [
        (pair.name_a, pair.name_b, pair.first_class)
        for pair in first_class_check(chain).pairs
    ]
    classes = {}
    for name, gen_set in generator_sets.items():
        verdict = classify(gen_set, system, chain)
        closure = verdict.closure
        if isinstance(closure, NotClosed):
            closure = closure.pair, closure.field_dependent_close
        else:
            closure = closure.tensor
        classes[name] = (
            [v.verdict for v in verdict.generator_verdicts], verdict.overall, closure
        )
    return chain.counts, pairs, classes


def test_the_relabellings_are_canonical_and_move_something():
    moved = flipped = 0
    for name, build in MODELS.items():
        space = build().system.space
        variables = [
            PhasePolynomial.variable(space, f"{kind}{i}")
            for kind in "qp" for i in range(1, space.n_dof + 1)
        ]
        n = space.n_dof
        for seed in SEEDS:
            apply, moves, flips = relabelling(space, random.Random(seed))
            moved += moves
            flipped += flips
            images = list(map(apply, variables))
            for a, f in enumerate(images):
                for b, g in enumerate(images):
                    # {q_i, p_j} = delta_ij, every other bracket of two
                    # variables is zero
                    expected = (b == a + n) - (a == b + n)
                    assert poisson(f, g) == expected, (name, seed, a, b)
    assert moved >= 10 and flipped >= 10


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_answers_survive_a_canonical_relabelling(name, seed):
    model = MODELS[name]()
    apply, _, _ = relabelling(model.system.space, random.Random(seed))
    assert answers(*relabelled(model, apply)) == answers(
        model.system, model.generator_sets
    )
