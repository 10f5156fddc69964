"""The exact ``--help`` text of the command-line interface.

``data/cli_help.json`` holds the stdout of ``dirac-symmetry --help`` and of
``dirac-symmetry <command> --help`` for all five commands at ``COLUMNS=80``,
recorded from Python 3.11's argparse (the version CI runs).  All six run in
one process here, so they also check that one argument parser serves every
call.
"""

import json
from pathlib import Path

import pytest

from dirac_symmetry.cli import COMMANDS, main

HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())


def test_every_command_is_pinned():
    assert sorted(HELP) == sorted(["--help", *(f"{c} --help" for c in COMMANDS)])


@pytest.mark.parametrize("invocation", sorted(HELP))
def test_help_text_is_unchanged(invocation, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(invocation.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[invocation]
