"""``decompose`` outcomes pinned against a recording.

``data/decompose_outcomes.json`` lists searches, each with its inputs (the
phase space, the generators and the target as text, and any limit patched
for it) and its runs: a degree bound and a coefficient mode, and the
outcome, that is the result type, its ``degree_bound``, ``exact`` for a
``NotFound`` and the coefficients as text for a certificate, or the
exception's type and message.

The cases are seeded members and non-members over the on-shell modules of
``em_modes(1..3)`` and over the random ideals of ``test_normal_form``, at
bounds None and 0 to 3 in both coefficient modes, and edge cases: all-zero
generators, constant targets, targets above every generator's degree,
``MAX_UNKNOWNS`` below the generator count and step budgets of 0.  Like the
CLI contract, the data was recorded once and is never regenerated to make a
test pass.  It was written by this module's ``record()``::

    PYTHONPATH=src python tests/test_decompose_outcomes.py > tests/data/decompose_outcomes.json
"""

import json
import random
from pathlib import Path

import pytest

from dirac_symmetry import (
    NotFound,
    PhasePolynomial,
    PhaseSpace,
    decompose,
    membership,
    parse_polynomial,
)
from dirac_symmetry.membership import CoefficientMode

DATA = Path(__file__).parent / "data" / "decompose_outcomes.json"
SEARCHES = json.loads(DATA.read_text()) if DATA.exists() else []
BOUNDS = (None, 0, 1, 2, 3)


def outcome(search: dict, bound: int | None, mode: str) -> dict:
    """What ``decompose`` gives on the search's inputs, in the recorded form."""
    space = PhaseSpace(search["n_dof"], search["parameters"])
    target = parse_polynomial(search["target"], space)
    generators = [parse_polynomial(g, space) for g in search["generators"]]
    try:
        result = decompose(target, generators, bound, CoefficientMode(mode))
    except Exception as error:  # the type and message are the outcome
        return {"raised": type(error).__name__, "message": str(error)}
    record = {"type": type(result).__name__, "degree_bound": result.degree_bound}
    if isinstance(result, NotFound):
        record["exact"] = result.exact
    else:
        record["coefficients"] = [str(c) for c in result.coefficients]
    return record


def run(search: dict, bound: int | None, mode: str) -> dict:
    """The outcome under the search's patched limits, with an empty cache on
    either side of them, so that no basis built under a budget outlives
    them."""
    if not search["patch"]:
        return outcome(search, bound, mode)
    membership._KEPT.clear()
    try:
        with pytest.MonkeyPatch.context() as patched:
            for name, value in search["patch"].items():
                patched.setattr(membership, name, value)
            return outcome(search, bound, mode)
    finally:
        membership._KEPT.clear()


@pytest.mark.parametrize("group", sorted({search["group"] for search in SEARCHES}))
def test_outcomes_match_the_recording(group):
    membership._KEPT.clear()
    differing = [
        (search["target"], bound, mode, recorded, got)
        for search in SEARCHES
        if search["group"] == group
        for bound, mode, recorded in search["runs"]
        if (got := run(search, bound, mode)) != recorded
    ]
    assert not differing, differing[:3]


def test_the_recording_covers_every_kind_of_outcome():
    kinds = {
        recorded.get("raised") or (recorded["type"], recorded.get("exact"))
        for search in SEARCHES
        for _, _, recorded in search["runs"]
    }
    assert kinds == {
        ("IdealDecomposition", None),
        ("NotFound", True),
        ("NotFound", False),
        "SearchTooLargeError",
        "ValueError",
    }


# ----------------------------------------------------------------------
# The recording
# ----------------------------------------------------------------------
def record() -> list[dict]:
    """Every search with its outcomes under the source on the path."""
    from conftest import random_polynomial
    from test_normal_form import on_shell_ideal, random_ideals

    searches = []

    def add(group, space, generators, targets, bounds=BOUNDS, modes=CoefficientMode, patch=None):
        for target in targets:
            search = {
                "group": group,
                "n_dof": space.n_dof,
                "parameters": list(space.parameters),
                "generators": [str(g) for g in generators],
                "target": str(target),
                "patch": patch or {},
            }
            # The text must read back as the polynomial it was made from.
            assert parse_polynomial(search["target"], space) == target
            search["runs"] = [
                (bound, mode.value, run(search, bound, mode.value))
                for mode in modes
                for bound in bounds
            ]
            searches.append(search)

    def combination(rng, space, generators, degree):
        """A member: random coefficients of at most `degree` on some generators."""
        member = generators[0] * random_polynomial(rng, space, 2, degree, allow_parameters=True)
        for g in generators[1:]:
            if rng.random() < 0.5:
                member = member + g * random_polynomial(rng, space, 2, degree, allow_parameters=True)
        return member

    def from_supports(rng, space, generators):
        """A target whose every monomial is a term of some generator."""
        monomials = sorted({m for g in generators for m in g.terms})
        picked = rng.sample(monomials, min(len(monomials), rng.randint(1, 3)))
        return PhasePolynomial(space, {m: rng.randint(1, 9) for m in picked})

    for n in (1, 2, 3):
        rng = random.Random(2600 + n)
        space, gens = on_shell_ideal(n)
        members = [combination(rng, space, gens, degree) for degree in (0, 0, 1, 1, 2)]
        outside = [random_polynomial(rng, space, 4, 3, allow_parameters=True) for _ in range(4)]
        supported = [from_supports(rng, space, gens) for _ in range(3)]
        add(f"em_modes({n})", space, gens, members + outside + supported)

    rng = random.Random(26)
    for space, gens, targets in random_ideals(2026, 12):
        members = [combination(rng, space, gens, 1) for _ in range(2)]
        add("random ideals", space, gens, targets + members + [from_supports(rng, space, gens)])

    space = PhaseSpace(2)

    def polys(*texts):
        return [parse_polynomial(text, space) for text in texts]

    add("all-zero generators", space, polys("0", "0"), polys("q1", "3", "q1*p2 + 1"))
    add("constant targets", space, polys("q1*p1 - 1", "p2"), polys("1"))
    add("constant targets", space, polys("3", "q1"), polys("7"))
    add("constant targets", space, polys("q1 - 1", "q1 + 1"), polys("2"))
    add("constant targets", space, polys("q1*p1 - 1", "q1"), polys("1"))
    add("constant targets", space, polys("3", "0"), polys("5"))
    add("above every generator", space, polys("p1", "q2^2 - 1"), polys("q1^4*p2 + q2^3", "q1^3*p1"))
    add("negative bound", space, polys("p1", "q2"), polys("q1", "p1"), bounds=(-1,))
    add(
        "unknowns below the generators", space, polys("p1", "q2"),
        polys("q1", "p1", "2*p1 - 3*q2", "0"), patch={"MAX_UNKNOWNS": 1},
    )
    add(
        "unknowns below the generators", space, polys("p1", "q2", "q1*p2"),
        polys("q1", "p1*q2"), patch={"MAX_UNKNOWNS": 2},
    )
    add(
        "no basis steps", space, polys("p1", "p2"),
        polys("q1", "q1*p1 + p2", "p1 + 2*p2", "q1^2*p2"), patch={"MAX_BASIS_STEPS": 0},
    )
    em_space, em_gens = on_shell_ideal(1)
    add(
        "no basis steps", em_space, em_gens,
        [parse_polynomial("q1*q2 + p1", em_space)], patch={"MAX_BASIS_STEPS": 0},
    )
    add(
        "no reduction steps", space, polys("p1", "p2"),
        polys("q1", "q1*p1 + p2"), patch={"MAX_REDUCTION_STEPS": 0},
    )
    add(
        "ladder refused at the cap", space, polys("p1", "p1^2"), polys("q1*p2"),
        bounds=(10,), modes=(CoefficientMode.POLYNOMIAL,),
        patch={"MAX_UNKNOWNS": 70, "MAX_BASIS_STEPS": 0},
    )

    return searches


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    print("[\n" + ",\n".join(json.dumps(search) for search in record()) + "\n]")
