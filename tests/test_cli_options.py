"""The three run settings through ``cli.main``: the degree bound, whether
H_d - E joins the on-shell module, and the level-preservation coefficient
class.

Each is taken from its flag, else from the model's ``[options]`` section,
else from its built-in default, and the value must reach the library calls
the commands make.  Every message for a bad ``[options]`` entry is pinned
verbatim.
"""

import pytest

from dirac_symmetry import cli
from dirac_symmetry.membership import CoefficientMode

CONSTANT, POLYNOMIAL = CoefficientMode.CONSTANT, CoefficientMode.POLYNOMIAL

MODEL = (
    "[system]\nn_dof = 1\nhamiltonian = 1/2*p1^2\n"
    "[generators.g]\nA = q1*p1\n"
)


def _write(tmp_path, options: str) -> str:
    path = tmp_path / "settings.model"
    path.write_text(MODEL + ("[options]\n" + options if options else ""))
    return str(path)


@pytest.mark.parametrize(
    "options, flags, expected",
    [
        # built-in defaults
        ("", [], (None, True, POLYNOMIAL)),
        # [options] alone
        ("degree_bound = 2\n", [], (2, True, POLYNOMIAL)),
        ("degree_bound = 0\n", [], (0, True, POLYNOMIAL)),
        ("on_shell_energy = false\n", [], (None, False, POLYNOMIAL)),
        ("on_shell_energy = true\n", [], (None, True, POLYNOMIAL)),
        ("coefficient_mode = constant\n", [], (None, True, CONSTANT)),
        ("coefficient_mode = polynomial\n", [], (None, True, POLYNOMIAL)),
        (
            "degree_bound = 1\non_shell_energy = false\ncoefficient_mode = constant\n",
            [],
            (1, False, CONSTANT),
        ),
        # flags alone, in both spellings
        ("", ["--degree-bound", "3"], (3, True, POLYNOMIAL)),
        ("", ["--degree-bound=0"], (0, True, POLYNOMIAL)),
        ("", ["--on-shell-energy", "false"], (None, False, POLYNOMIAL)),
        ("", ["--on-shell-energy=true"], (None, True, POLYNOMIAL)),
        ("", ["--coefficients", "constant"], (None, True, CONSTANT)),
        ("", ["--coefficients=polynomial"], (None, True, POLYNOMIAL)),
        # a flag over [options], a zero bound included
        ("degree_bound = 2\n", ["--degree-bound", "3"], (3, True, POLYNOMIAL)),
        ("degree_bound = 2\n", ["--degree-bound", "0"], (0, True, POLYNOMIAL)),
        ("on_shell_energy = false\n", ["--on-shell-energy=true"], (None, True, POLYNOMIAL)),
        ("on_shell_energy = true\n", ["--on-shell-energy=false"], (None, False, POLYNOMIAL)),
        ("coefficient_mode = constant\n", ["--coefficients=polynomial"], (None, True, POLYNOMIAL)),
        ("coefficient_mode = polynomial\n", ["--coefficients=constant"], (None, True, CONSTANT)),
        # one setting from each source
        (
            "degree_bound = 2\non_shell_energy = false\n",
            ["--on-shell-energy", "true"],
            (2, True, POLYNOMIAL),
        ),
        # abbreviated flags, which argparse reads
        ("degree_bound = 2\n", ["--deg", "4", "--coef", "constant"], (4, True, CONSTANT)),
    ],
)
def test_each_setting_reaches_the_library(capsys, tmp_path, monkeypatch, options, flags, expected):
    seen = {}

    def spy(name, keep):
        real = getattr(cli, name)

        def wrapper(*args):
            seen[name] = keep(args)
            return real(*args)

        monkeypatch.setattr(cli, name, wrapper)

    spy("generate_chain", lambda args: args[1:])
    spy("first_class_check", lambda args: args[1:])
    spy("classify", lambda args: args[3:])
    path = _write(tmp_path, options)
    degree_bound, include_energy, mode = expected
    for command, extra, call, values in [
        ("chain", [], "generate_chain", (degree_bound,)),
        ("first-class", [], "first_class_check", (degree_bound, include_energy)),
        ("check-symmetry", ["--set", "g"], "classify", expected),
    ]:
        seen.clear()
        code = cli.main([command, path, *extra, *flags])
        assert code in (0, 2), capsys.readouterr().err
        assert seen[call] == values, command
        assert seen["generate_chain"] == (degree_bound,), command
    capsys.readouterr()


@pytest.mark.parametrize(
    "options, message",
    [
        (
            "degree_bound = x\n",
            "[options] degree_bound must be an integer: "
            "invalid literal for int() with base 10: 'x'",
        ),
        (
            "degree_bound = 1.5\n",
            "[options] degree_bound must be an integer: "
            "invalid literal for int() with base 10: '1.5'",
        ),
        (
            "degree_bound =\n",
            "[options] degree_bound must be an integer: "
            "invalid literal for int() with base 10: ''",
        ),
        ("degree_bound = -1\n", "[options] degree_bound must be >= 0"),
        (
            "on_shell_energy = yes\n",
            "[options] on_shell_energy must be true or false, got 'yes'",
        ),
        (
            "on_shell_energy = True\n",
            "[options] on_shell_energy must be true or false, got 'True'",
        ),
        (
            "coefficient_mode = exotic\n",
            "[options] coefficient_mode must be constant or polynomial, got 'exotic'",
        ),
        ("foo = 1\nbar = 2\n", "unknown [options] keys: ['bar', 'foo']"),
        ("coefficients = constant\n", "unknown [options] keys: ['coefficients']"),
        # the keys are checked before any value, and the values in key order
        ("degree_bound = x\nfoo = 1\n", "unknown [options] keys: ['foo']"),
        (
            "coefficient_mode = exotic\non_shell_energy = yes\ndegree_bound = -1\n",
            "[options] degree_bound must be >= 0",
        ),
        (
            "coefficient_mode = exotic\non_shell_energy = yes\n",
            "[options] on_shell_energy must be true or false, got 'yes'",
        ),
    ],
)
def test_options_messages(capsys, tmp_path, options, message):
    code = cli.main(["chain", _write(tmp_path, options)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: invalid input: {message}\n"


@pytest.mark.parametrize("options", ["", "degree_bound = 2\n"])
@pytest.mark.parametrize("flags", [["--degree-bound", "-1"], ["--degree-bound=-1"]])
def test_negative_degree_bound_flag(capsys, tmp_path, options, flags):
    code = cli.main(["chain", _write(tmp_path, options), *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: invalid input: --degree-bound must be >= 0\n"
