import ast
import configparser
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from dirac_symmetry import (
    CoefficientMode,
    ModelFileError,
    parse_model_text,
)
from dirac_symmetry import modelfile
from dirac_symmetry.modelfile import load_model_file

from conftest import mutate_model_text, poly

ROOT = Path(__file__).resolve().parent.parent

VALID = """\
# a three-level cascade
[system]
n_dof = 3
parameters = E
hamiltonian = q1*p2 + q2*p3

[primaries]
P1 = p1

[secondaries]
S1 = p2

[generators.good]
D1 = q1*p1

[options]
degree_bound = 4
on_shell_energy = true
coefficient_mode = polynomial
"""


class TestValidFiles:
    def test_full_parse(self):
        model = parse_model_text(VALID)
        assert model.system.space.n_dof == 3
        assert model.system.h_d == poly("q1*p2 + q2*p3", model.system.space)
        assert model.system.primary_names == ("P1",)
        assert model.declared_secondaries == (
            ("S1", poly("p2", model.system.space)),
        )
        assert model.declared_tertiaries is None
        assert set(model.generator_sets) == {"good"}
        assert model.options.degree_bound == 4
        assert model.options.on_shell_energy is True
        assert model.options.coefficient_mode is CoefficientMode.POLYNOMIAL

    def test_defaults(self):
        model = parse_model_text(
            "[system]\nn_dof = 1\nhamiltonian = p1^2\n"
        )
        assert model.system.space.parameters == ("E",)
        assert model.system.primaries == ()
        assert model.generator_sets == {}
        assert model.options.degree_bound is None
        assert model.options.on_shell_energy is None
        assert model.options.coefficient_mode is None

    def test_parameter_list_with_commas(self):
        model = parse_model_text(
            "[system]\nn_dof = 1\nparameters = E, m\nhamiltonian = m*p1^2\n"
        )
        assert model.system.space.parameters == ("E", "m")

    def test_names_keep_case(self):
        model = parse_model_text(
            "[system]\nn_dof = 1\nhamiltonian = p1^2\n[primaries]\nPi0 = p1\n"
        )
        assert model.system.primary_names == ("Pi0",)


class TestRejections:
    def test_unknown_section(self):
        with pytest.raises(ModelFileError, match="unknown section"):
            parse_model_text(VALID + "\n[extra]\nx = 1\n")

    def test_unknown_system_key(self):
        with pytest.raises(ModelFileError, match="unknown .system. keys"):
            parse_model_text(
                "[system]\nn_dof = 1\nhamiltonian = p1\nmass = 3\n"
            )

    def test_unknown_option_key(self):
        with pytest.raises(ModelFileError, match="unknown .options. keys"):
            parse_model_text(
                "[system]\nn_dof = 1\nhamiltonian = p1\n[options]\nfoo = 1\n"
            )

    def test_missing_system(self):
        with pytest.raises(ModelFileError, match="missing .system."):
            parse_model_text("[primaries]\nP1 = p1\n")

    def test_missing_hamiltonian(self):
        with pytest.raises(ModelFileError, match="hamiltonian"):
            parse_model_text("[system]\nn_dof = 1\n")

    def test_bad_n_dof(self):
        with pytest.raises(ModelFileError):
            parse_model_text("[system]\nn_dof = two\nhamiltonian = p1\n")
        with pytest.raises(ModelFileError):
            parse_model_text("[system]\nn_dof = 0\nhamiltonian = p1\n")

    def test_parameters_must_include_energy(self):
        with pytest.raises(ModelFileError, match="must include"):
            parse_model_text(
                "[system]\nn_dof = 1\nparameters = m\nhamiltonian = p1\n"
            )

    def test_bad_expression_reports_context(self):
        with pytest.raises(ModelFileError, match=r"\[primaries\] P1"):
            parse_model_text(
                "[system]\nn_dof = 1\nhamiltonian = p1\n[primaries]\nP1 = q9\n"
            )

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ModelFileError):
            parse_model_text(
                "[system]\nn_dof = 1\nhamiltonian = p1\n"
                "[primaries]\nP1 = p1\nP1 = q1\n"
            )

    def test_empty_generator_set_rejected(self):
        with pytest.raises(ModelFileError, match="declares no generators"):
            parse_model_text(
                "[system]\nn_dof = 1\nhamiltonian = p1\n[generators.g]\n"
            )

    def test_dependent_generators_rejected(self):
        with pytest.raises(ModelFileError):
            parse_model_text(
                "[system]\nn_dof = 1\nhamiltonian = p1\n"
                "[generators.g]\nA = q1\nB = 2*q1\n"
            )

    def test_bad_option_values(self):
        base = "[system]\nn_dof = 1\nhamiltonian = p1\n[options]\n"
        with pytest.raises(ModelFileError):
            parse_model_text(base + "degree_bound = -1\n")
        with pytest.raises(ModelFileError):
            parse_model_text(base + "on_shell_energy = yes\n")
        with pytest.raises(ModelFileError):
            parse_model_text(base + "coefficient_mode = exotic\n")


class TestSizeCap:
    def test_default_cap(self):
        assert modelfile.MAX_MODEL_BYTES == 1 << 20

    def test_file_at_the_cap_loads_and_one_byte_more_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "valid.model"
        path.write_bytes(VALID.encode("utf-8"))
        monkeypatch.setattr(modelfile, "MAX_MODEL_BYTES", len(VALID))
        assert load_model_file(path).system.primary_names == ("P1",)
        monkeypatch.setattr(modelfile, "MAX_MODEL_BYTES", len(VALID) - 1)
        with pytest.raises(ModelFileError, match=f"larger than {len(VALID) - 1} bytes"):
            load_model_file(path)

    def test_file_past_the_first_read_loads_whole(self, tmp_path):
        text = VALID + ("#" * 99 + "\n") * 1000 + "[generators.late]\nL1 = q2*p2\n"
        path = tmp_path / "long.model"
        path.write_bytes(text.encode("utf-8"))
        assert len(text) > 1 << 16
        assert load_model_file(path) == parse_model_text(text)
        assert "late" in load_model_file(path).generator_sets

    @pytest.mark.parametrize("cap", [100, 70000])
    def test_reads_at_most_one_byte_past_the_cap(self, tmp_path, monkeypatch, cap):
        path = tmp_path / "huge.model"
        path.write_bytes(b"#" * 100000)
        monkeypatch.setattr(modelfile, "MAX_MODEL_BYTES", cap)
        sizes = []
        real_open = open

        class Spy:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def read(self, size=-1):
                sizes.append(size)
                return self.handle.read(size)

        monkeypatch.setattr(modelfile, "open", lambda *a: Spy(real_open(*a)), raising=False)
        with pytest.raises(ModelFileError, match=f"larger than {cap} bytes"):
            load_model_file(path)
        assert sum(sizes) == cap + 1

    def test_text_over_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(modelfile, "MAX_MODEL_BYTES", len(VALID) - 1)
        with pytest.raises(ModelFileError, match="over the limit of"):
            parse_model_text(VALID)

    def test_newlines_and_encoding_as_text_mode(self, tmp_path):
        path = tmp_path / "crlf.model"
        path.write_bytes(VALID.replace("\n", "\r\n").encode("utf-8"))
        assert load_model_file(path) == parse_model_text(VALID)
        path.write_bytes(b"[system]\nn_dof = 1\nhamiltonian = q1*p1 \xff\n")
        with pytest.raises(ModelFileError, match="is not UTF-8 text"):
            load_model_file(path)


def read(text: str) -> dict[str, dict[str, str]]:
    return modelfile._read_sections(text)


class TestLineRules:
    def test_value_starts_after_the_first_equals(self):
        assert read("[s]\nk = a = b\nj=\n") == {"s": {"k": "a = b", "j": ""}}

    def test_comments_start_a_line_or_follow_whitespace(self):
        text = "# head\n[s] # note\nk = a#b # c\n  # indented\nj = 1\t#2\n"
        assert read(text) == {"s": {"k": "a#b", "j": "1"}}

    def test_deeper_lines_continue_the_value(self):
        text = "[s]\nk = a\n  b\n\n\t c\n# skipped\n  d\n\n\nj = e\n"
        assert read(text) == {"s": {"k": "a\nb\n\nc\nd", "j": "e"}}

    def test_continuation_is_relative_to_the_key_line(self):
        text = "[s]\n  k = a\n  j = b\n   [c]\ni = d\n f = g\n"
        assert read(text) == {"s": {"k": "a", "j": "b\n[c]", "i": "d\nf = g"}}

    def test_names_keep_case_and_lose_surrounding_whitespace(self):
        text = "[s]\n  Key\t =  v  \nkey=w\n[ t ]\nx = 1\n"
        assert read(text) == {"s": {"Key": "v", "key": "w"}, " t ": {"x": "1"}}

    def test_lines_split_at_newlines_only(self):
        assert read("[s]\nk = a\rb\x0c\u2028\n") == {"s": {"k": "a\rb"}}

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("[s]\nk = 1\n[s]\n", 3, "section [s] appears twice"),
            ("[s]\nk = 1\n  more\nk = 2\n", 4, "key 'k' appears twice in [s]"),
            ("# head\nk = 1\n", 2, "entry before the first [section] header"),
            ("[s]\nno equals sign\n", 2, "expected a 'name = value' line"),
            ("[s]\n = v\n", 2, "expected a 'name = value' line"),
            ("[]\n", 1, "entry before the first [section] header"),
            ("[DEFAULT]\n[DEFAULT]\n", 2, "section [DEFAULT] appears twice"),
        ],
    )
    def test_syntax_errors_name_their_line(self, text, line, message):
        with pytest.raises(ModelFileError) as err:
            parse_model_text(text)
        assert str(err.value) == f"model file syntax error: line {line}: {message}"


class TestDeliberateDifferencesFromConfigparser:
    def test_default_is_an_unknown_section(self):
        # configparser copied DEFAULT keys into every section: this model ran
        # `chain` with a phantom primary constraint "n_dof = 1".
        with pytest.raises(ModelFileError, match=r"^unknown section \[DEFAULT\]$"):
            parse_model_text(
                "[DEFAULT]\nn_dof = 1\n[system]\nhamiltonian = q1*p1\n"
                "[primaries]\nP1 = p1\n"
            )

    def test_text_after_a_header_is_a_syntax_error(self):
        # configparser read this header as [system].
        with pytest.raises(ModelFileError) as err:
            parse_model_text("[system]\nn_dof = 1\nhamiltonian = p1\n[options] x\n")
        assert str(err.value) == (
            "model file syntax error: line 4: text after the ']' of a section header"
        )


def model_texts_in_tests() -> list[str]:
    """Every model text the tests hold: string literals with a section
    header, and the models of the extra-branch pins."""
    texts = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.search(r"^\[\w", node.value, re.MULTILINE):
                    texts.append(node.value)
    extra = json.loads((Path(__file__).parent / "data" / "cli_extra_branches.json").read_text())
    return texts + list(extra["models"].values())


SHIPPED = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "models").glob("*.model"))]
# A comment as configparser finds one: '#' at the start or after whitespace.
COMMENT = re.compile(r"(?:^|(?<=\s))#.*")


def configparser_sections(text: str) -> dict[str, dict[str, str]]:
    """The oracle: configparser with the settings the model reader replaced.
    Its DEFAULT section is renamed to a name no header can hold, so that
    ``[DEFAULT]`` is an ordinary section, as it is for the reader."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        strict=True,
        interpolation=None,
        default_section="\n",
    )
    parser.optionxform = str
    parser.read_string(text)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def compare_with_configparser(text: str) -> str:
    """Check the reader against the oracle on `text`; say which case held."""
    try:
        expected = configparser_sections(text)
    except configparser.Error:
        with pytest.raises(ModelFileError, match=r"^model file syntax error: line \d+: "):
            read(text)
        return "both refuse"
    try:
        sections = read(text)
    except ModelFileError as exc:
        # The one refusal configparser does not make: text after the ']' of
        # a header, which it ignored.
        match = re.fullmatch(
            r"model file syntax error: line (\d+): text after the '\]' of a section header",
            str(exc),
        )
        assert match, exc
        line = COMMENT.sub("", text.split("\n")[int(match[1]) - 1], count=1).strip()
        header = configparser.ConfigParser.SECTCRE.match(line)
        assert header and header.end() < len(line), line
        return "text after a header"
    assert [(name, list(entries.items())) for name, entries in sections.items()] == [
        (name, list(entries.items())) for name, entries in expected.items()
    ]
    return "same entries"


class TestAgainstConfigparser:
    def test_every_model_text_reads_as_configparser_read_it(self):
        texts = SHIPPED + model_texts_in_tests()
        assert len(texts) > 50
        outcomes = Counter(compare_with_configparser(text) for text in texts)
        assert outcomes["same entries"] >= len(SHIPPED)

    def test_mutated_models(self):
        rng = random.Random(20260)
        outcomes = Counter(
            compare_with_configparser(mutate_model_text(text, rng, rng.randint(1, 4)))
            for text in SHIPPED
            for _ in range(80)
        )
        # The corpus reaches every case, each many times.
        assert min(outcomes[case] for case in (
            "same entries", "both refuse", "text after a header")) >= 10, outcomes
