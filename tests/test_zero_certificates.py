"""Zero brackets get their certificate without a membership search.

A zero target's certificate is known before any search: every coefficient
zero, over the given generators, with the bound ``decompose`` records.
``membership._zero_certificate`` is its one definition; ``decompose``'s zero
branch returns through it, and the checks call it directly for their zero
brackets, once per module and call.  It refuses a negative bound and
generators on another phase space with ``decompose``'s messages, so no check
answers where it raised before.

The call counts below are timing-free performance pins: they count the
``decompose`` calls the package's checks make, at the ``chain`` and
``symmetry`` binding sites, on command-line invocations.
"""

import contextlib
import io
import sys

import pytest

from dirac_symmetry import (
    CoefficientMode,
    CommutationClass,
    PhasePolynomial,
    PhaseSpace,
    check_counts,
    check_dynamical_symmetry,
    check_level_preservation,
    default_degree_bound,
    em_modes,
    first_class_check,
    generate_chain,
    three_level_chain,
)
from dirac_symmetry import chain as chain_module
from dirac_symmetry import membership, symmetry
from dirac_symmetry.cli import main

from conftest import poly
from test_cli_contract import CONTRACT, ROOT


def on_shell_module(n):
    return generate_chain(em_modes(n).system).on_shell_generators(True)[1]


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "degree_bound, mode, recorded",
    [
        (None, CoefficientMode.POLYNOMIAL, None),
        (3, CoefficientMode.POLYNOMIAL, 3),
        (None, CoefficientMode.CONSTANT, 0),
        (-1, CoefficientMode.CONSTANT, 0),
    ],
    ids=["default-bound", "explicit-bound", "constant", "constant-negative-bound"],
)
def test_builder_gives_decomposes_answer(degree_bound, mode, recorded):
    generators = on_shell_module(2)
    zero = PhasePolynomial.zero(generators[0].space)
    built = membership._zero_certificate(zero, generators, degree_bound, mode)
    if recorded is None:
        recorded = default_degree_bound(zero, generators)
        assert recorded == 2  # H_d - E is quadratic
    assert built == membership.decompose(zero, generators, degree_bound, mode)
    assert built.target == zero
    assert built.generators == tuple(generators)
    assert built.coefficients == (zero,) * len(generators)
    assert built.degree_bound == recorded
    assert built.verify() and built.is_zero_certificate()


def test_builder_over_no_generators():
    zero = PhasePolynomial.zero(PhaseSpace(2))
    built = membership._zero_certificate(zero, (), None, CoefficientMode.POLYNOMIAL)
    assert built == membership.decompose(zero, ())
    assert built.generators == built.coefficients == ()
    assert built.degree_bound == 0
    assert built.verify()


def test_builder_refuses_what_decompose_refuses():
    generators = on_shell_module(2)
    zero = PhasePolynomial.zero(generators[0].space)
    with pytest.raises(ValueError, match=r"^degree bound must be >= 0, got -1$"):
        membership._zero_certificate(zero, generators, -1, CoefficientMode.POLYNOMIAL)
    elsewhere = PhasePolynomial.zero(PhaseSpace(3))
    with pytest.raises(ValueError, match="^generators must share the target's phase space$"):
        membership._zero_certificate(elsewhere, generators, None, CoefficientMode.CONSTANT)


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def test_checks_refuse_a_negative_bound_on_zero_brackets():
    # G_1's bracket with H_d and every image of a constraint under it are
    # zero, as is every constraint pair's bracket: the bound is refused on
    # the zero path.
    model = em_modes(2)
    chain = generate_chain(model.system)
    gauss = model.generator_sets["gauge"].generators[2]
    message = r"^degree bound must be >= 0, got -1$"
    with pytest.raises(ValueError, match=message):
        check_dynamical_symmetry(gauss, model.system, chain, degree_bound=-1)
    with pytest.raises(ValueError, match=message):
        check_level_preservation(gauss, chain, degree_bound=-1)
    with pytest.raises(ValueError, match=message):
        first_class_check(chain, degree_bound=-1)


def test_commutation_refuses_a_chain_on_another_space():
    larger = em_modes(3)
    gauss = larger.generator_sets["gauge"].generators[3]
    chain = generate_chain(em_modes(2).system)
    with pytest.raises(ValueError, match="^generators must share the target's phase space$"):
        check_dynamical_symmetry(gauss, larger.system, chain)


def test_zero_bracket_commutes_strictly_with_the_built_certificate():
    model = em_modes(2)
    chain = generate_chain(model.system)
    gauss = model.generator_sets["gauge"].generators[2]
    commutation, bracket, certificate = check_dynamical_symmetry(
        gauss, model.system, chain, degree_bound=4
    )
    assert commutation is CommutationClass.STRICT
    assert not bracket
    _, ideal = chain.on_shell_generators(True)
    assert certificate == membership._zero_certificate(
        bracket, ideal, 4, CoefficientMode.POLYNOMIAL
    )


def test_one_zero_certificate_per_module_and_call():
    model = em_modes(3)
    chain = generate_chain(model.system)
    report = first_class_check(chain)
    assert len(report.pairs) == 15
    assert len({id(pair.certificate) for pair in report.pairs}) == 1
    gauss = model.generator_sets["gauge"].generators[3]
    images = check_level_preservation(gauss, chain).images
    by_level = {}
    for image in images:
        assert not image.image and image.across_levels is None
        by_level.setdefault(image.level, set()).add(id(image.within_level))
    assert sorted(by_level) == ["primary", "secondary"]
    assert all(len(ids) == 1 for ids in by_level.values())
    assert by_level["primary"] != by_level["secondary"]


def test_zero_rows_leave_the_ranks_unchanged():
    # The cascade's good generator q1*p1 maps p1 to itself and p2, p3 to zero.
    model = three_level_chain()
    chain = generate_chain(model.system)
    report = check_level_preservation(poly("q1*p1", model.system.space), chain)
    assert [bool(i.image) for i in report.images] == [True, False, False]
    assert all(i.within_level.verify() for i in report.images)
    assert check_counts(chain, report).ranks == {
        "primary": 1, "secondary": 0, "tertiary": 0,
    }


# ----------------------------------------------------------------------
# call counts
# ----------------------------------------------------------------------
@pytest.fixture
def decompose_calls(monkeypatch):
    """(caller, target is nonzero) for every ``decompose`` call of the checks."""
    calls = []
    for owner in (chain_module, symmetry):
        real = owner.decompose

        def spy(target, *args, _real=real, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name, bool(target)))
            return _real(target, *args, **kwargs)

        monkeypatch.setattr(owner, "decompose", spy)
    monkeypatch.chdir(ROOT)
    return calls


def run(invocation) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(invocation.split()) == CONTRACT[invocation]["exit"], invocation


@pytest.mark.parametrize(
    "invocation, nonzero",
    [
        ("check-symmetry models/em_modes_5.model --set gauge --format=text", 5),
        ("first-class models/em_modes_5.model --format=text", 0),
        ("check-symmetry models/three_level_chain.model --set good --format=text", 2),
    ],
)
def test_zero_brackets_never_reach_the_search(decompose_calls, invocation, nonzero):
    run(invocation)
    # three_level_chain's one zero target is its tertiary's weak closure.
    zero = [caller for caller, target in decompose_calls if not target]
    assert zero == (["_build_chain"] if "three_level_chain" in invocation else [])
    assert len(decompose_calls) - len(zero) == nonzero


def test_contract_invocations_search_only_nonzero_checks(decompose_calls):
    for invocation in sorted(CONTRACT):
        run(invocation)
    zero = [caller for caller, target in decompose_calls if not target]
    assert zero == ["_build_chain"] * 10  # the tertiary closures
    assert len(decompose_calls) - len(zero) == 44
