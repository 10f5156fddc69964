import pytest

from dirac_symmetry import (
    CoefficientMode,
    ModelFileError,
    parse_model_text,
)
from dirac_symmetry import modelfile
from dirac_symmetry.modelfile import load_model_file

from conftest import poly

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
