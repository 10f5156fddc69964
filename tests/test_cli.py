import json
from fractions import Fraction
from pathlib import Path

import pytest

from dirac_symmetry.cli import main
from dirac_symmetry.membership import MAX_UNKNOWNS

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
TLC = str(MODEL_DIR / "three_level_chain.model")
OSC = str(MODEL_DIR / "central_oscillator.model")
EM1 = str(MODEL_DIR / "em_modes_1.model")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChainCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "chain", TLC)
        assert code == 0
        assert "counts: N_p=1, N_s=1, N_t=1" in out
        assert "ordering N_p >= N_s >= N_t: ok" in out
        assert "{P1, H_d} on S1: -1" in out
        assert "{S1, H_d} on T1: -1" in out
        assert err == ""

    def test_structured_output_parses(self, capsys):
        code, out, _ = run(capsys, "chain", TLC, "--format=structured")
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {"primary": 1, "secondary": 1, "tertiary": 1}
        assert report["tables"]["primary_to_secondary"] == [["-1"]]
        assert Fraction(report["tables"]["secondary_to_tertiary"][0][0]) == Fraction(-1)
        assert report["ordering_ok"] is True

    def test_byte_determinism(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "chain", TLC, "--format=structured")
            outputs.add(out)
        assert len(outputs) == 1
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "chain", TLC)
            outputs.add(out)
        assert len(outputs) == 1


class TestSymmetryCommand:
    def test_good_set_passes(self, capsys):
        code, out, _ = run(capsys, "check-symmetry", TLC, "--set", "good")
        assert code == 0
        assert "overall: DynamicalSymmetry" in out

    def test_bad_set_finding(self, capsys):
        code, out, _ = run(capsys, "check-symmetry", TLC, "--set", "bad")
        assert code == 2
        assert "overall: MixesConstraints" in out
        assert "mixing: secondary S1 -> primary P1" in out

    def test_oscillator_strict(self, capsys):
        code, out, _ = run(capsys, "check-symmetry", OSC, "--set", "rotations")
        assert code == 0
        assert "overall: StrictSymmetry" in out

    def test_missing_set_flag(self, capsys):
        code, _, err = run(capsys, "check-symmetry", TLC)
        assert code == 3
        assert "--set" in err

    def test_unknown_set(self, capsys):
        code, _, err = run(capsys, "check-symmetry", TLC, "--set", "nope")
        assert code == 3
        assert "unknown generator set" in err

    def test_structured_rationals_reparse(self, capsys):
        code, out, _ = run(
            capsys, "check-symmetry", EM1, "--set", "gauge", "--format=structured"
        )
        assert code == 0
        report = json.loads(out)
        certificate = report["generators"][0]["commutation_certificate"]
        assert certificate["found"] is True
        assert Fraction(certificate["coefficients"]["S1"]) == Fraction(-1)


class TestFirstClassCommand:
    def test_all_first_class(self, capsys):
        code, out, _ = run(capsys, "first-class", TLC)
        assert code == 0
        assert "all pairs first class: yes" in out

    def test_second_class_finding(self, capsys, tmp_path):
        path = tmp_path / "second.model"
        path.write_text(
            "[system]\nn_dof = 2\nhamiltonian = 1/2*p2^2\n"
            "[primaries]\nC1 = q1\nC2 = p1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "first-class", str(path))
        assert code == 2
        assert "SECOND-CLASS" in out


class TestTotalHamiltonianCommand:
    def test_multipliers_rendered(self, capsys):
        code, out, _ = run(capsys, "total-hamiltonian", TLC)
        assert code == 0
        assert "H_tot: q1*p2 + q2*p3 + p1*v1 + p2*u1 + p3*w1" in out
        assert "weak equality H_tot = H_d modulo constraints" in out

    def test_structured_certificate(self, capsys):
        code, out, _ = run(capsys, "total-hamiltonian", TLC, "--format=structured")
        assert code == 0
        report = json.loads(out)
        assert report["multipliers"] == {
            "primary": ["v1"],
            "secondary": ["u1"],
            "tertiary": ["w1"],
        }
        coefficients = report["weak_equality_certificate"]["coefficients"]
        assert coefficients == {"P1": "v1", "S1": "u1", "T1": "w1"}


class TestStructureConstantsCommand:
    def test_so3(self, capsys):
        code, out, _ = run(capsys, "structure-constants", OSC, "--set", "rotations")
        assert code == 0
        assert "C[Lz][Lx][Ly] = 1" in out

    def test_not_closed_finding(self, capsys, tmp_path):
        path = tmp_path / "open.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = p1^2\n"
            "[generators.pair]\nQ = q1\nP = p1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "structure-constants", str(path), "--set", "pair")
        assert code == 2
        assert "closed: no" in out

    def test_abelian_gauge_algebra(self, capsys):
        code, out, _ = run(capsys, "structure-constants", EM1, "--set", "gauge")
        assert code == 0
        assert "abelian" in out
        assert "all structure constants zero" in out


class TestErrorExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chain", EM1, "--degree-bound", "abc"], "invalid int value: 'abc'"),
            (["chain", EM1, "--format=xml"], "invalid choice: 'xml'"),
            (["chain", EM1, "--on-shell-energy=maybe"], "invalid choice: 'maybe'"),
            (["chain", EM1, "--no-such-flag"], "unrecognized arguments"),
            (["frobnicate", EM1], "invalid choice: 'frobnicate'"),
            (["chain"], "required: file"),
            ([], "required: command"),
        ],
    )
    def test_usage_error_is_invalid_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid input: ")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["chain", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: dirac-symmetry" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "chain", "/nonexistent/nowhere.model")
        assert code == 3
        assert "invalid input" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = q1 +* p1\n", encoding="utf-8"
        )
        code, _, err = run(capsys, "chain", str(path))
        assert code == 3

    def test_deep_nesting_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "nested.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = " + "(" * 3000 + "q1" + ")" * 3000
            + "\n[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "chain", str(path))
        assert code == 3
        assert "nested deeper than" in err

    def test_oversized_membership_search_is_invalid_input(self, capsys, tmp_path):
        # {P1, H} = -1000000*q1^999999*p2: its default degree bound is a
        # million, and the search is refused once its unknowns, summed over
        # the degrees, pass the cap.
        path = tmp_path / "huge.model"
        path.write_text(
            "[system]\nn_dof = 2\nhamiltonian = q1^1000000*p2 + q2*p2\n"
            "[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "first-class", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid input: membership search up to coefficient degree")
        assert f"above the limit of {MAX_UNKNOWNS}" in err

    def test_dependent_primaries(self, capsys, tmp_path):
        path = tmp_path / "dep.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = p1^2\n"
            "[primaries]\nA = q1\nB = 2*q1\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "chain", str(path))
        assert code == 3
        assert "depend" in err

    def test_beyond_tertiary(self, capsys, tmp_path):
        path = tmp_path / "deep.model"
        path.write_text(
            "[system]\nn_dof = 4\nhamiltonian = q1*p2 + q2*p3 + q3*p4\n"
            "[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "chain", str(path))
        assert code == 4
        assert "past three levels" in err

    def test_inconsistent_system(self, capsys, tmp_path):
        path = tmp_path / "inconsistent.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = q1\n[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "chain", str(path))
        assert code == 6
        assert "inconsistent system" in err

    def test_reserved_multiplier_collision(self, capsys, tmp_path):
        path = tmp_path / "clash.model"
        path.write_text(
            "[system]\nn_dof = 1\nparameters = E, v1\nhamiltonian = v1*p1^2\n"
            "[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "total-hamiltonian", str(path))
        assert code == 3
        assert "collide" in err


class TestDeclaredLevelVerification:
    def test_matching_declaration(self, capsys, tmp_path):
        path = tmp_path / "declared.model"
        path.write_text(
            "[system]\nn_dof = 3\nhamiltonian = q1*p2 + q2*p3\n"
            "[primaries]\nP1 = p1\n"
            "[secondaries]\nS1 = 3*p2\n"
            "[tertiaries]\nT1 = p3\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "chain", str(path))
        assert code == 0
        assert "declared levels match generated chain: yes" in out

    def test_mismatch_is_finding(self, capsys, tmp_path):
        path = tmp_path / "mismatch.model"
        path.write_text(
            "[system]\nn_dof = 3\nhamiltonian = q1*p2 + q2*p3\n"
            "[primaries]\nP1 = p1\n"
            "[secondaries]\nS1 = p3\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "chain", str(path))
        assert code == 2
        assert "declared levels match generated chain: NO" in out
        assert "outside the generated span" in out

    def test_dependent_declaration_is_finding(self, capsys, tmp_path):
        path = tmp_path / "dependent.model"
        path.write_text(
            "[system]\nn_dof = 4\nhamiltonian = q1*p3 + q2*p4\n"
            "[primaries]\nP1 = p1\nP2 = p2\n"
            "[secondaries]\nS1 = p3\nS2 = 2*p3\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "chain", str(path))
        assert code == 2
        assert "secondary: declared constraints are dependent" in out
        assert "outside the generated span" not in out


class TestOptionsPlumbing:
    def test_cli_degree_bound_overrides_file(self, capsys, tmp_path):
        # {q1*p1^3 - 2*E*q1*p1, H_d} = 2*p1^2*(H_d - E) needs a degree-2
        # coefficient; a file bound of 0 fails, the CLI override succeeds.
        path = tmp_path / "bound.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = 1/2*p1^2\n"
            "[generators.g]\nA = q1*p1^3 - 2*E*q1*p1\n"
            "[options]\ndegree_bound = 0\n",
            encoding="utf-8",
        )
        code_low, out_low, _ = run(capsys, "check-symmetry", str(path), "--set", "g")
        assert code_low == 2
        assert "commutation: fails" in out_low
        code_high, out_high, _ = run(
            capsys, "check-symmetry", str(path), "--set", "g", "--degree-bound", "2"
        )
        assert code_high == 0
        assert "commutation: on-shell" in out_high

    def test_on_shell_energy_flag(self, capsys, tmp_path):
        path = tmp_path / "energy.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = 1/2*p1^2\n"
            "[generators.g]\nA = q1*p1^2 - 2*E*q1\n",
            encoding="utf-8",
        )
        code_on, out_on, _ = run(capsys, "check-symmetry", str(path), "--set", "g")
        assert code_on == 0
        code_off, out_off, _ = run(
            capsys, "check-symmetry", str(path), "--set", "g",
            "--on-shell-energy=false",
        )
        assert code_off == 2
        assert "commutation: fails" in out_off


class TestColorToggle:
    def test_color_disabled_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("DIRAC_SYMMETRY_COLOR", raising=False)
        _, out, _ = run(capsys, "chain", TLC)
        assert "\x1b[" not in out

    def test_color_enabled(self, capsys, monkeypatch):
        monkeypatch.setenv("DIRAC_SYMMETRY_COLOR", "1")
        _, out, _ = run(capsys, "chain", TLC)
        assert "\x1b[" in out

    def test_color_zero_means_off(self, capsys, monkeypatch):
        monkeypatch.setenv("DIRAC_SYMMETRY_COLOR", "0")
        _, out, _ = run(capsys, "chain", TLC)
        assert "\x1b[" not in out
