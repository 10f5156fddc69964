"""Text views are pure functions of the structured report.

Three guarantees are tested here:

* Output branches that no shipped model reaches -- off-level spill tables,
  a generator mapping a constraint out of the constraint module, declared
  levels that do not match, first-class checks with fewer than two
  constraints -- keep the exit codes and bytes recorded in
  ``data/cli_extra_branches.json`` (text verbatim, structured by SHA-256 and
  parsed form).  Like the CLI contract, that data was recorded once and is
  never regenerated to make a test pass.
* For every text invocation, of the contract matrix and of those extra models,
  the text stdout equals the command's ``*_text`` view applied to the parsed
  stdout of its structured twin.  The two formats therefore cannot disagree.
* A structured invocation of each command builds no text view and still
  prints the contract's bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dirac_symmetry import report as rpt
from dirac_symmetry.chain import generate_chain
from dirac_symmetry.cli import main
from dirac_symmetry.modelfile import load_model_file

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
CONTRACT = json.loads((DATA / "cli_contract.json").read_text())
EXTRA = json.loads((DATA / "cli_extra_branches.json").read_text())
TEXT_INVOCATIONS = [
    ("contract", i) for i in sorted(CONTRACT) if i.endswith("--format=text")
] + [("extra", i) for i in EXTRA["invocations"] if i.endswith("--format=text")]


VIEWS = {
    "chain": "chain_text",
    "total-hamiltonian": "total_hamiltonian_text",
    "check-symmetry": "symmetry_text",
    "structure-constants": "structure_constants_text",
}


def enter(source: str, tmp_path, monkeypatch) -> None:
    """Change into the directory the invocation's model paths are relative to."""
    if source == "extra":
        for name, text in EXTRA["models"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(ROOT if source == "contract" else tmp_path)


def run(capsys, invocation: str) -> tuple[int, str]:
    code = main(invocation.split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize("invocation", sorted(EXTRA["invocations"]))
def test_extra_branch_output_is_unchanged(invocation, tmp_path, capsys, monkeypatch):
    enter("extra", tmp_path, monkeypatch)
    monkeypatch.delenv("DIRAC_SYMMETRY_COLOR", raising=False)
    expected = EXTRA["invocations"][invocation]
    code, out = run(capsys, invocation)
    assert code == expected["exit"]
    if "stdout" in expected:
        assert out == expected["stdout"]
    else:
        assert json.loads(out) == expected["report"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["stdout_sha256"]


def text_view(report: dict, model_path: str) -> str:
    """The command's text view of ``report``; first-class also needs module names."""
    command = report["command"]
    if command == "first-class":
        chain = generate_chain(
            load_model_file(model_path).system, report["degree_bound"]
        )
        names, _ = chain.on_shell_generators(report["include_energy"])
        return rpt.first_class_text(report, names)
    return getattr(rpt, VIEWS[command])(report)


@pytest.mark.parametrize("source, invocation", TEXT_INVOCATIONS)
def test_text_is_the_view_of_its_structured_twin(
    source, invocation, tmp_path, capsys, monkeypatch
):
    enter(source, tmp_path, monkeypatch)
    code, structured = run(
        capsys, invocation.replace("--format=text", "--format=structured")
    )
    report = json.loads(structured)
    for color in ("0", "1"):
        monkeypatch.setenv("DIRAC_SYMMETRY_COLOR", color)
        assert run(capsys, invocation) == (code, text_view(report, invocation.split()[1]))


def _no_text_view(*args):
    raise AssertionError("a text view was built for --format=structured")


@pytest.mark.parametrize(
    "command", ["chain", "total-hamiltonian", "first-class", "check-symmetry",
                "structure-constants"],
)
def test_structured_output_builds_no_text_view(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name in [*VIEWS.values(), "first_class_text"]:
        monkeypatch.setattr(rpt, name, _no_text_view)
    invocation = next(
        i for i in sorted(CONTRACT)
        if i.split()[0] == command and i.endswith("--format=structured")
    )
    code, out = run(capsys, invocation)
    assert code == CONTRACT[invocation]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONTRACT[invocation]["stdout_sha256"]
