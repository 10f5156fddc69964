"""The command-line interface run as a real process.

``python -m dirac_symmetry.cli`` starts a fresh interpreter, so the argument
parser, the model loader and the report renderer are built from nothing, as
they are for a user.  The expected exit codes and stdout digests are the
contract's (``data/cli_contract.json``).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "tests" / "data" / "cli_contract.json").read_text())


def _run(*argv):
    env = dict(os.environ)
    env.pop("DIRAC_SYMMETRY_COLOR", None)
    env["PYTHONIOENCODING"] = "utf-8"  # the contract digests UTF-8 bytes
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dirac_symmetry.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=60,
    )


@pytest.mark.parametrize(
    "invocation",
    [
        "check-symmetry models/three_level_chain.model --set bad --format=text",
        "check-symmetry models/em_modes_2.model --set gauge --format=structured",
    ],
)
def test_invocation_matches_the_contract(invocation):
    expected = CONTRACT[invocation]
    result = _run(*invocation.split())
    assert result.returncode == expected["exit"], result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == expected["stdout_sha256"]


def test_help_exits_zero():
    result = _run("--help")
    assert result.returncode == 0
    assert result.stdout.startswith(b"usage: dirac-symmetry")


def test_runtime_imports_only_the_standard_library():
    # -S skips site hooks, which may import third-party modules of their own.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import dirac_symmetry, dirac_symmetry.cli; "
        "print(sorted({name.partition('.')[0] for name in sys.modules}"
        " - set(sys.stdlib_module_names) - {'dirac_symmetry', '__main__'}))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
