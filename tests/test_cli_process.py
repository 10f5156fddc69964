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


def _probe(statement: str) -> str:
    """The stdout of ``statement`` run in a fresh ``python -S`` after importing
    the package and its command line; -S skips site hooks, which may import
    modules of their own."""
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         f"import dirac_symmetry, dirac_symmetry.cli; {statement}",
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_runtime_imports_only_the_standard_library():
    assert _probe(
        "print(sorted({name.partition('.')[0] for name in sys.modules}"
        " - set(sys.stdlib_module_names) - {'dirac_symmetry', '__main__'}))"
    ) == "[]"


def test_cli_import_does_not_load_configparser():
    assert _probe("print('configparser' in sys.modules)") == "False"


def test_cli_import_does_not_load_pathlib():
    assert _probe("print('pathlib' in sys.modules)") == "False"


def test_cli_import_does_not_load_the_shipped_models():
    assert _probe("print('dirac_symmetry.models' in sys.modules)") == "False"


def test_model_names_load_on_first_use():
    assert _probe(
        "listed = set(dirac_symmetry.__all__) <= set(dir(dirac_symmetry)); "
        "loaded = 'dirac_symmetry.models' in sys.modules; "
        "from dirac_symmetry import em_modes; "
        "print(listed, loaded, em_modes.__module__, "
        "dirac_symmetry.SHIPPED_MODELS is dirac_symmetry.models.SHIPPED_MODELS)"
    ) == "True False dirac_symmetry.models True"


def test_only_ideal_decomposition_is_a_dataclass():
    # Creating a dataclass costs about 1 ms of import time; the other records
    # are NamedTuples or slotted classes.
    assert _probe(
        "print(sorted({value.__name__ for name, module in list(sys.modules.items())"
        " if name.startswith('dirac_symmetry') for value in vars(module).values()"
        " if isinstance(value, type) and hasattr(value, '__dataclass_fields__')}))"
    ) == "['IdealDecomposition']"
