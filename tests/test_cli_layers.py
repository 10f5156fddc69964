"""The command line's input and output layers against the stdlib they stand
in for.

``cli._plain_parse`` must give argparse's namespace or decline, and
``report.render`` must write the bytes of ``json.dumps(report, indent=2,
ensure_ascii=False)``.  Both references change with the Python version, so
CI runs this file on the oldest supported Python too.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dirac_symmetry import cli
from dirac_symmetry import report as rpt
from dirac_symmetry.errors import DiracSymmetryError, UsageError

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "tests" / "data" / "cli_contract.json").read_text())
MODEL = "models/em_modes_1.model"

# Pieces of a random argv: the exact flags, their abbreviations, values valid
# and invalid for each, and tokens that argparse reads in its own ways.
FLAGS = [flag for flag, *_ in cli._FLAGS]
VALID = {
    flag: ["gauge", "a=b", ""] if kind is None else ["0", "3", "12"] if kind is int else kind
    for flag, _, kind, _ in cli._FLAGS
}
ABBREVIATIONS = ["--se", "--deg", "--degree", "--on", "--coef", "--form", "--fo", "--c"]
VALUES = [
    "text", "structured", "true", "false", "constant", "polynomial", "gauge",
    "3", "0", "-1", "+2", " 4", "1_0", "٣", "x", "", "-x", "--format",
    "a=b", "x y", "TEXT",
]
SPECIALS = ["--", "-h", "--help", "--no-such-flag", "-5", "-", "extra", "--set="]
COMMANDS = [*cli.COMMANDS, "frobnicate", ""]
FILES = [MODEL, "-", "-f", "", "x y", "a=b", "--set"]


def _random_argv(rng: random.Random) -> list[str]:
    argv = [rng.choice(COMMANDS)] if rng.random() < 0.97 else []
    if rng.random() < 0.95:
        argv.append(rng.choice(FILES) if rng.random() < 0.1 else MODEL)
    for _ in range(rng.randrange(5)):
        flag = rng.choice(FLAGS) if rng.random() < 0.9 else rng.choice(ABBREVIATIONS)
        value = rng.choice(VALID.get(flag, VALUES) if rng.random() < 0.8 else VALUES)
        form = rng.random()
        if form < 0.45:
            argv += [flag, value]
        elif form < 0.9:
            argv.append(f"{flag}={value}")
        elif form < 0.95:
            argv.append(flag)  # its value missing, or the next token taken
        else:
            argv.append(rng.choice(SPECIALS))
    if argv and rng.random() < 0.1:
        argv.insert(0, argv.pop())  # a flag or a value before the command
    return argv


def _argparse_namespace(argv):
    """argparse's namespace as a dict, or None where it refuses or prints help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(cli._build_arg_parser().parse_args(argv))
    except (UsageError, SystemExit):
        return None


def test_plain_parse_declines_or_agrees_with_argparse():
    rng = random.Random(20261020)
    accepted = declined = 0
    for _ in range(3000):
        argv = _random_argv(rng)
        plain = cli._plain_parse(argv)
        if plain is None:
            declined += 1
            continue
        accepted += 1
        assert vars(plain) == _argparse_namespace(argv), argv
    assert accepted > 800 and declined > 800, (accepted, declined)


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", MODEL],
        ["chain", MODEL, "--format", "structured", "--set", "a", "--set=b"],
        ["check-symmetry", MODEL, "--degree-bound=7", "--on-shell-energy", "false",
         "--coefficients=constant"],
        ["chain", MODEL, "--set", ""],
        ["chain", MODEL, "--set=a=b"],
        ["chain", MODEL, "--degree-bound", " 4"],
    ],
)
def test_plain_parse_takes_the_documented_shape(argv):
    assert vars(cli._plain_parse(argv)) == _argparse_namespace(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [], ["chain"], ["-h"], ["chain", "--help"], ["chain", MODEL, "-h"],
        ["chain", MODEL, "--form=text"], ["chain", MODEL, "--", "x"],
        ["chain", "--set", "a", MODEL], ["--set", "a", "chain", MODEL],
        ["chain", MODEL, "extra"], ["chain", MODEL, "--set"],
        ["chain", MODEL, "--set", "-a"], ["chain", MODEL, "--degree-bound", "-1"],
        ["chain", MODEL, "--degree-bound=x"], ["chain", MODEL, "--format=xml"],
        ["chain", "-"], ["frobnicate", MODEL],
    ],
)
def test_plain_parse_leaves_everything_else_to_argparse(argv):
    assert cli._plain_parse(argv) is None


def test_usage_errors_are_the_package_s_invalid_input():
    with pytest.raises(UsageError, match="invalid choice: 'frobnicate'") as err:
        cli._build_arg_parser().parse_args(["frobnicate", MODEL])
    assert isinstance(err.value, DiracSymmetryError)


def _calls(function) -> int:
    info = function.cache_info()
    return info.hits + info.misses


def test_no_contract_invocation_builds_the_argument_parser(monkeypatch):
    monkeypatch.chdir(ROOT)
    before = _calls(cli._build_arg_parser)
    for invocation in CONTRACT:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(invocation.split())
    assert _calls(cli._build_arg_parser) == before


# ---------------------------------------------------------------------------
# The structured writer
STRUCTURED = sorted(i for i in CONTRACT if i.endswith("--format=structured"))


def test_every_structured_report_is_covered():
    assert len(STRUCTURED) == 32


@pytest.mark.parametrize("invocation", STRUCTURED)
def test_writer_matches_json_dumps_on_the_contract(invocation, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    cli.main(invocation.split())
    out = capsys.readouterr().out
    report = json.loads(out)
    assert rpt.render(report, None, "structured") == out
    assert json.dumps(report, indent=2, ensure_ascii=False) + "\n" == out


TEXT_PIECES = [
    "a", "q1*p2", '"', "\\", "\\n", "\n", "\t", "\x00", "\x1f", "\x7f", " ",
    " ", "é", "中", "\U0001f600", "\ud800", "\udcff", " ", "/", "</script>",
]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randrange(4)))


def _random_value(rng: random.Random, depth: int = 0):
    """A value nested up to four levels of the six types a report holds."""
    kind = rng.randrange(7 if depth < 4 else 5)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(10**30), 2**70])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], {}])
    if kind == 4:
        return rng.choice([[_text(rng)], {_text(rng): _text(rng)}])
    if kind == 5:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_text(rng): _random_value(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_writer_matches_json_dumps_on_random_values():
    rng = random.Random(20261021)
    for _ in range(1000):
        value = _random_value(rng)
        expected = json.dumps(value, indent=2, ensure_ascii=False) + "\n"
        assert rpt.render(value, None, "structured") == expected, value


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, {1, 2}, object()])
def test_writer_refuses_other_types(value):
    for report in (value, {"a": [value]}):
        with pytest.raises(TypeError):
            rpt.render(report, None, "structured")
