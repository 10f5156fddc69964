"""Today's output on branches that the rest of the suite does not reach:
a negative degree bound on the command line, the constant-coefficient flag,
two malformed model files, the text views of a generator set that does not
close, a search over generators that are all zero, and the package's
``dir()``."""

import json
from pathlib import Path

import pytest

import dirac_symmetry
from dirac_symmetry import PhasePolynomial, PhaseSpace, decompose
from dirac_symmetry.cli import main
from dirac_symmetry.membership import CoefficientMode, NotFound

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
TLC = str(MODEL_DIR / "three_level_chain.model")

SYSTEM = "[system]\nn_dof = 1\nhamiltonian = p1^2\n"

# fd closes only with a field-dependent coefficient; canon not at all.
OPEN_SETS = SYSTEM + """
[generators.fd]
A = q1^2*p1
B = q1

[generators.canon]
Q = q1
P = p1
"""

FD_CLOSURE = (
    "closure: NOT closed at pair (A, B), bracket -1*q1^2\n"
    "  a field-dependent decomposition exists: constancy violated\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_negative_degree_bound_flag_is_invalid_input(capsys):
    code, out, err = run(capsys, "chain", TLC, "--degree-bound", "-1")
    assert (code, out) == (3, "")
    assert err == "error: invalid input: --degree-bound must be >= 0\n"


def test_constant_coefficients_flag_sets_the_level_search_mode(capsys):
    code, out, _ = run(
        capsys, "check-symmetry", TLC, "--set", "bad",
        "--coefficients", "constant", "--format=structured",
    )
    assert code == 2
    (generator,) = json.loads(out)["generators"]
    action = {entry["constraint"]: entry for entry in generator["level_action"]}
    assert action["S1"]["within_level"] == {
        "found": False,
        "degree_bound": 0,
        "mode": "constant",
        "message": "not representable with constant coefficients",
    }


@pytest.mark.parametrize(
    "extra, message",
    [
        ("[generators.]\nA = q1\n", "generator set name must be nonempty"),
        (
            "[options]\ndegree_bound = x\n",
            "[options] degree_bound must be an integer: "
            "invalid literal for int() with base 10: 'x'",
        ),
    ],
)
def test_malformed_model_sections(capsys, tmp_path, extra, message):
    path = tmp_path / "bad.model"
    path.write_text(SYSTEM + extra)
    code, out, err = run(capsys, "chain", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: invalid input: {message}\n"


def test_check_symmetry_text_on_a_set_that_does_not_close(capsys, tmp_path, monkeypatch):
    (tmp_path / "open.model").write_text(OPEN_SETS)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "check-symmetry", "open.model", "--set", "fd")
    assert code == 2
    assert out.endswith(FD_CLOSURE + "overall: NotSymmetry\n")
    code, out, _ = run(capsys, "check-symmetry", "open.model", "--set", "canon")
    assert code == 2
    assert out.endswith(
        "closure: NOT closed at pair (Q, P), bracket 1\noverall: NotSymmetry\n"
    )


def test_structure_constants_text_on_a_set_that_does_not_close(
    capsys, tmp_path, monkeypatch
):
    (tmp_path / "open.model").write_text(OPEN_SETS)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "structure-constants", "open.model", "--set", "fd")
    assert (code, out) == (
        2,
        "structure constants for open.model (set fd)\n"
        "closed: no; failing pair (A, B), bracket -1*q1^2\n"
        "  a field-dependent decomposition exists: constancy violated\n",
    )
    code, out, _ = run(capsys, "structure-constants", "open.model", "--set", "canon")
    assert (code, out) == (
        2,
        "structure constants for open.model (set canon)\n"
        "closed: no; failing pair (Q, P), bracket 1\n",
    )


def test_a_nonzero_target_over_zero_generators_is_an_exact_negative():
    space = PhaseSpace(1)
    zero = PhasePolynomial.zero(space)
    outcome = decompose(PhasePolynomial.variable(space, "q1"), [zero, zero])
    assert outcome == NotFound(1, CoefficientMode.POLYNOMIAL, exact=True)


def test_package_dir_lists_every_export():
    names = dir(dirac_symmetry)
    assert names == sorted(set(names))
    assert set(dirac_symmetry.__all__) <= set(names)
    assert {"em_modes", "SHIPPED_MODELS", "poisson"} <= set(names)
