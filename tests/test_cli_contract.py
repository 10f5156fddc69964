"""Behaviour contract of the command-line interface.

Every ``cli.main`` invocation over the shipped models -- each command, each
output format and, for the generator-set commands, each declared ``--set`` --
must keep its exit code and the exact bytes of its stdout.  The expected
values in ``data/cli_contract.json`` were recorded once from the released
behaviour; a refactor that changes any of them changes what users see, so the
data is never regenerated to make this test pass.

The text invocations are pinned a second time with ``DIRAC_SYMMETRY_COLOR=1``
(``data/cli_contract_color.json``), so the placement of every escape sequence
is part of the contract too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dirac_symmetry.cli import main
from dirac_symmetry.modelfile import load_model_file

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
CONTRACT = json.loads((DATA / "cli_contract.json").read_text())
COLOR_CONTRACT = json.loads((DATA / "cli_contract_color.json").read_text())
COMMANDS = ("chain", "total-hamiltonian", "first-class")
SET_COMMANDS = ("check-symmetry", "structure-constants")
FORMATS = ("text", "structured")


def invocations() -> list[str]:
    """The full matrix, as space-joined argv with model paths relative to the repo."""
    out = []
    for path in sorted((ROOT / "models").glob("*.model")):
        relative = f"models/{path.name}"
        variants = [[c] for c in COMMANDS]
        for set_name in sorted(load_model_file(str(path)).generator_sets):
            variants += [[c, "--set", set_name] for c in SET_COMMANDS]
        for command, *set_args in variants:
            for fmt in FORMATS:
                out.append(" ".join([command, relative, *set_args, f"--format={fmt}"]))
    return out


def test_contract_covers_the_whole_matrix():
    assert sorted(invocations()) == sorted(CONTRACT)
    assert len(CONTRACT) == 64
    assert sorted(COLOR_CONTRACT) == sorted(i for i in CONTRACT if i.endswith("--format=text"))


def _check(invocation, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the model path is printed as given
    code = main(invocation.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == (expected["exit"], expected["stdout_sha256"]), invocation


@pytest.mark.parametrize("invocation", sorted(CONTRACT))
def test_invocation_output_is_unchanged(invocation, capsys, monkeypatch):
    monkeypatch.delenv("DIRAC_SYMMETRY_COLOR", raising=False)
    _check(invocation, CONTRACT[invocation], capsys, monkeypatch)


@pytest.mark.parametrize("invocation", sorted(COLOR_CONTRACT))
def test_colored_text_output_is_unchanged(invocation, capsys, monkeypatch):
    monkeypatch.setenv("DIRAC_SYMMETRY_COLOR", "1")
    _check(invocation, COLOR_CONTRACT[invocation], capsys, monkeypatch)
