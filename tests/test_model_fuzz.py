"""The command line never reports an internal error on a model file.

Hypothesis draws model files from two sources: line and byte mutations of
the shipped models (a line dropped, repeated, indented or dedented; ``#``,
``=``, ``[``, ``]``, whitespace, blank lines or ``[DEFAULT]`` inserted;
bytes that are not UTF-8), and model files built from the grammar of the
format and of expressions.  ``parse_model_text`` must return a model or
raise a ``DiracSymmetryError``, and ``cli.main`` must exit 0, 2, 3, 4 or 6,
never 5 (internal error).  The examples are derandomized, so every run
tries the same inputs.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirac_symmetry import DiracSymmetryError, parse_model_text
from dirac_symmetry.cli import main

from conftest import mutate_model_text

SHIPPED = [path.read_text(encoding="utf-8")
           for path in sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))]
EXITS = {0, 2, 3, 4, 6}
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

commands = st.one_of(
    st.sampled_from(["chain", "total-hamiltonian", "first-class"]).map(lambda c: [c]),
    st.tuples(
        st.sampled_from(["check-symmetry", "structure-constants"]),
        st.sampled_from(["g", "gauge", "good", "bad", "rotations"]),
    ).map(lambda c: [c[0], "--set", c[1]]),
)
formats = st.sampled_from(["--format=text", "--format=structured"])


@st.composite
def mutated_models(draw) -> bytes:
    text = draw(st.sampled_from(SHIPPED))
    rng = draw(st.randoms(use_true_random=False))
    data = mutate_model_text(text, rng, draw(st.integers(1, 6))).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[cut:]
    return data


# Mostly valid choices, so that many models get past validation: q2 and p2
# are undeclared when n_dof is 1, and a bad option value is one choice among
# several.
identifiers = st.sampled_from(["q1", "p1", "q2", "p2", "E", "m"])
atoms = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(-5, 5), st.integers(1, 4)).map(lambda r: f"{r[0]}/{r[1]}"),
    identifiers,
)
expressions = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(" + ".join),
        st.lists(inner, min_size=2, max_size=3).map("*".join),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} - {t[1]}"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=6,
)


@st.composite
def grammar_models(draw) -> bytes:
    lines = [
        "[system]",
        f"n_dof = {draw(st.sampled_from([2, 3, 1]))}",
        draw(st.sampled_from(["parameters = E, m", "parameters = m, E"])),
        f"hamiltonian = {draw(expressions)}",
    ]
    for section, prefix in (("primaries", "P"), ("secondaries", "S"), ("generators.g", "G")):
        count = draw(st.integers(0, 2))
        if count or draw(st.booleans()):
            lines.append(f"[{section}]")
            lines += [f"{prefix}{k} = {draw(expressions)}" for k in range(1, count + 1)]
    if draw(st.booleans()):
        lines += [
            "[options]",
            f"degree_bound = {draw(st.sampled_from([2, 0, 1, 3, -1]))}",
            f"on_shell_energy = {draw(st.sampled_from(['true', 'false', 'true', 'yes']))}",
            f"coefficient_mode = {draw(st.sampled_from(['constant', 'polynomial']))}",
        ]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzzed.model"


def check(model_path, data: bytes, command: list[str], fmt: str) -> None:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        try:
            parse_model_text(text)
        except DiracSymmetryError:
            pass
    model_path.write_bytes(data)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command[0], str(model_path), *command[1:], fmt])
    assert code in EXITS, stderr.getvalue()


@FUZZ
@given(data=mutated_models(), command=commands, fmt=formats)
def test_mutated_shipped_models(model_path, data, command, fmt):
    check(model_path, data, command, fmt)


@FUZZ
@given(data=grammar_models(), command=commands, fmt=formats)
def test_grammar_built_models(model_path, data, command, fmt):
    check(model_path, data, command, fmt)
