import io
import json
import runpy
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from dirac_symmetry import cli, phase
from dirac_symmetry.cli import main
from dirac_symmetry.errors import DiracSymmetryError
from dirac_symmetry.membership import MAX_UNKNOWNS

from oracles import sympy_bracket

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
TLC = str(MODEL_DIR / "three_level_chain.model")
OSC = str(MODEL_DIR / "central_oscillator.model")
EM1 = str(MODEL_DIR / "em_modes_1.model")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_calls() -> int:
    """How often ``main`` has asked for the argparse parser in this process."""
    info = cli._build_arg_parser.cache_info()
    return info.hits + info.misses


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


    def test_counts_below_full_rank(self, capsys, tmp_path):
        path = tmp_path / "rank.model"
        path.write_text(
            "[system]\nn_dof = 2\nhamiltonian = p1*p2\n"
            "[primaries]\nP1 = p1\nP2 = p2\n"
            "[generators.shift]\nA = q1*p2\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "check-symmetry", str(path), "--set", "shift")
        assert code == 0
        assert (
            "  counts: preserved (ranks: primary 1/2, secondary 0/0, tertiary 0/0)\n"
            "  class: DynamicalSymmetry\n"
        ) in out


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
        before = parser_calls()
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid input: ")
        assert message in err
        assert parser_calls() == before + 1  # argparse wrote the message

    @pytest.mark.parametrize("argv", [["--help"], ["chain", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        before = parser_calls()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: dirac-symmetry" in capsys.readouterr().out
        assert parser_calls() == before + 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "chain", "/nonexistent/nowhere.model")
        assert code == 3
        assert "invalid input" in err

    def test_path_with_a_lone_surrogate_is_invalid_input(self, capsys):
        # Only an in-process caller can pass one; no file name holds it.
        code, out, err = run(capsys, "chain", "\ud800.model")
        assert code == 3
        assert out == ""
        assert err == (
            "error: invalid input: model file name is not valid text: 'utf-8' codec "
            "can't encode character '\\ud800' in position 0: surrogates not allowed\n"
        )

    def test_path_with_a_nul_is_invalid_input(self, capsys):
        # Only an in-process caller can pass one; no argv holds it.
        code, out, err = run(capsys, "chain", "a\x00b")
        assert code == 3
        assert out == ""
        assert err == (
            "error: invalid input: model file name is not a valid path: embedded null byte\n"
        )

    def test_message_the_stderr_encoding_cannot_hold_is_escaped(self, monkeypatch):
        # A strict UTF-8 stderr cannot encode the surrogate that stands for
        # the name's byte 0xff; the message is still written, with escapes.
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["chain", "/nonexistent/m\udcff.model"]) == 3
        stderr.flush()
        err = stderr.buffer.getvalue().decode("ascii")
        assert err.startswith("error: invalid input: cannot read model file ")
        assert "/nonexistent/m\\udcff.model" in err

    def test_structured_report_on_an_ascii_stdout_stays_json(self, monkeypatch, tmp_path):
        # One name of each kind: Latin-1, and above U+FFFF (a surrogate pair).
        for name in ("é.model", "\U0001d510.model"):
            path = tmp_path / name
            path.write_bytes((MODEL_DIR / "em_modes_1.model").read_bytes())
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["chain", str(path), "--format=structured"]) == 0
            stdout.flush()
            assert json.loads(stdout.buffer.getvalue())["file"] == str(path)

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
        # {B, H} = 1000000*q1^999999*q2*p2 is a multiple of the primary A,
        # so its normal form is zero and the degree ladder must find the
        # certificate; its default degree bound is about a million, and the
        # search is refused once its unknowns, summed over the degrees, pass
        # the cap.
        path = tmp_path / "huge.model"
        path.write_text(
            "[system]\nn_dof = 2\nhamiltonian = p1\n"
            "[primaries]\nA = p2\nB = q1^1000000*q2*p2\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "first-class", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid input: membership search up to coefficient degree")
        assert f"above the limit of {MAX_UNKNOWNS}" in err

    def test_huge_non_member_is_answered_exactly(self, capsys, tmp_path):
        # {P1, S1} = -999999*q1^999998*p2 lies outside the on-shell module
        # (P1, S1, H_d - E): no generator term divides its monomial, so no
        # search is needed despite its default degree bound of two million.
        path = tmp_path / "huge.model"
        path.write_text(
            "[system]\nn_dof = 2\nhamiltonian = q1^1000000*p2 + q2*p2\n"
            "[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "first-class", str(path))
        assert code == 2
        assert err == ""
        assert (
            "  {P1, S1} = -999999*q1^999998*p2 ; SECOND-CLASS ; "
            "not representable within degree bound 2000000\n"
        ) in out
        assert "all pairs first class: NO" in out

    def test_huge_phase_space_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "wide.model"
        path.write_text(
            "[system]\nn_dof = 10000000\nhamiltonian = q1*p1\n[primaries]\nP1 = p2\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err == (
            "error: invalid input: [system]: n_dof must be at most "
            f"{phase.MAX_DOF}, got 10000000\n"
        )

    @pytest.mark.parametrize("literal", ["7" * 5001, "1/" + "7" * 4400])
    def test_over_long_literal_is_invalid_input(self, capsys, tmp_path, literal):
        path = tmp_path / "literal.model"
        path.write_text(
            f"[system]\nn_dof = 1\nhamiltonian = q1*p1 + {literal}*q1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid input: [system] hamiltonian: numeric literal of")
        assert "digits is too long" in err

    def test_oversized_power_is_invalid_input(self, capsys, tmp_path):
        # Squaring the 715-term fourth power would form 715^2 term pairs.
        path = tmp_path / "power.model"
        path.write_text(
            "[system]\nn_dof = 5\n"
            "hamiltonian = (q1+q2+q3+q4+q5+p1+p2+p3+p4+p5)^40\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid input: [system] hamiltonian: product of a 715-term")
        assert f"511225 term pairs, over the limit of {phase.MAX_TERM_PAIRS}" in err

    @pytest.mark.parametrize(
        "declarations, hamiltonian, most",
        [
            # 20001 identifiers; H = q1^1 + ... + q1^800.
            ("n_dof = 10000", " + ".join(f"q1^{i}" for i in range(1, 801)), 99),
            # 10002 identifiers; H = a0 + ... + a299.
            (
                "n_dof = 1\nparameters = E " + " ".join(f"a{i}" for i in range(9999)),
                " + ".join(f"a{i}" for i in range(300)),
                199,
            ),
        ],
        ids=["wide-space", "many-parameters"],
    )
    def test_sum_of_wide_terms_is_invalid_input(
        self, capsys, tmp_path, declarations, hamiltonian, most
    ):
        # Every term stores one exponent per identifier: these parsed to
        # 16 and 3 million entries before the sum was charged for them.
        path = tmp_path / "wide-terms.model"
        path.write_text(
            f"[system]\n{declarations}\nhamiltonian = {hamiltonian}\n"
            "[primaries]\nP1 = p1\n",
            encoding="utf-8",
        )
        start = time.process_time()
        code, out, err = run(capsys, "chain", str(path))
        assert time.process_time() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith(
            f"error: invalid input: [system] hamiltonian: sum of more than {most} terms"
        )
        assert f"than the limit of {phase.MAX_TERM_ENTRIES}\n" in err

    def test_many_wide_sums_are_invalid_input(self, capsys, tmp_path):
        # Each 99-term sum over 20001 identifiers stores just under the
        # entries limit; four of them loaded to about 80 MB of memory before
        # the model's sums were charged together.
        sums = (" + ".join(f"q{k}^{i}" for i in range(1, 100)) for k in range(1, 5))
        path = tmp_path / "wide-sums.model"
        path.write_text(
            "[system]\nn_dof = 10000\nhamiltonian = q1*p1\n[primaries]\nP1 = p2\n"
            "[generators.g]\n" + "".join(f"G{k} = {s}\n" for k, s in enumerate(sums, 1)),
            encoding="utf-8",
        )
        start = time.process_time()
        code, out, err = run(capsys, "chain", str(path))
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "error: invalid input: [generators.g] G1: sum of more than 97 terms over "
            "20001 identifiers would take the model's sums, 40002 exponent entries "
            "before it, over the limit of 2000000 for one model\n"
        )

    @pytest.mark.parametrize(
        "hamiltonian, bits",
        [("2^15000*q1*p1", 15000), ("(2*q1)^20000*p1", 20000), ("2^10000000000", 10**10)],
    )
    def test_coefficient_blow_up_is_invalid_input(self, capsys, tmp_path, hamiltonian, bits):
        # These exited 5 once the coefficient passed Python's 4300-digit
        # printing limit, or ran out of memory.  A power of 2 has one bit
        # per unit of its exponent.
        path = tmp_path / "power.model"
        path.write_text(f"[system]\nn_dof = 1\nhamiltonian = {hamiltonian}\n", encoding="utf-8")
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err == (
            f"error: invalid input: [system] hamiltonian: power {bits} of a 1-term "
            f"polynomial could build coefficients of {bits} bits, over the limit of "
            f"{phase.MAX_COEFFICIENT_BITS}\n"
        )

    def test_product_of_literal_powers_is_invalid_input(self, capsys, tmp_path):
        # Each power is within the limit, their product is not; it exited 5
        # when the report printed the coefficient.
        path = tmp_path / "product.model"
        path.write_text("[system]\nn_dof = 1\nhamiltonian = 2^8000*2^8000*q1*p1\n", encoding="utf-8")
        code, out, err = run(capsys, "chain", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "error: invalid input: [system] hamiltonian: product builds coefficients "
            f"of 16000 bits, over the limit of {phase.MAX_COEFFICIENT_BITS}\n"
        )

    @pytest.mark.parametrize(
        "model, argv",
        [
            # {P, H_d} = -2^16000*p2^2, a secondary constraint the chain prints.
            ("[system]\nn_dof = 2\nhamiltonian = 2^8000*q1*p2^2 + q2*p1\n"
             "[primaries]\nP = 2^8000*p1\n", ["chain"]),
            # {A, B} = 2^16000 = 2^16000*C, a structure constant.
            ("[system]\nn_dof = 2\nhamiltonian = q2*p2\n"
             "[generators.g]\nA = 2^8000*q1\nB = 2^8000*p1\nC = 1\n",
             ["structure-constants", "--set", "g"]),
        ],
    )
    def test_computed_coefficient_past_the_print_limit_is_invalid_input(
        self, capsys, tmp_path, model, argv
    ):
        path = tmp_path / "computed.model"
        path.write_text(model, encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert err == (
            "error: invalid input: a computed coefficient has more digits than "
            f"Python's limit of {sys.get_int_max_str_digits()} for printing an integer\n"
        )

    @pytest.mark.parametrize(
        "model, message",
        [
            ("[DEFAULT]\nn_dof = 1\n[system]\nhamiltonian = q1*p1\n[primaries]\nP1 = p1\n",
             "unknown section [DEFAULT]"),
            ("[system] trailing\nn_dof = 1\nhamiltonian = q1*p1\n",
             "model file syntax error: line 1: text after the ']' of a section header"),
        ],
    )
    def test_what_configparser_accepted_is_invalid_input(self, capsys, tmp_path, model, message):
        path = tmp_path / "loose.model"
        path.write_text(model, encoding="utf-8")
        code, out, err = run(capsys, "chain", str(path))
        assert (code, out, err) == (3, "", f"error: invalid input: {message}\n")

    def test_oversized_model_file_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "big.model"
        path.write_text("[system]\nn_dof = 1\nhamiltonian = q1*p1" + " + q1" * 300000 + "\n")
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: invalid input: model file {path} is larger than 1048576 bytes\n"

    def test_non_utf8_model_file_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "latin1.model"
        path.write_bytes(b"[system]\nn_dof = 1\nhamiltonian = q1*p1 \xff\n")
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: invalid input: model file {path} is not UTF-8 text:")

    def test_oversized_bracket_is_invalid_input(self, capsys, tmp_path, monkeypatch):
        # Parsing forms one-term products only; {P1, H} pairs 2 x 2 terms.
        monkeypatch.setattr(phase, "MAX_TERM_PAIRS", 3)
        path = tmp_path / "bracket.model"
        path.write_text(
            "[system]\nn_dof = 1\nhamiltonian = q1*p1 + q1^2\n"
            "[primaries]\nP1 = p1 + q1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "chain", str(path))
        assert code == 3
        assert out == ""
        assert err == (
            "error: invalid input: bracket of a 2-term and a 2-term polynomial "
            "would form 4 term pairs, over the limit of 3\n"
        )

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

    @pytest.mark.parametrize("command", ["chain", "first-class", "total-hamiltonian"])
    def test_beyond_tertiary_by_an_exact_negative(self, capsys, tmp_path, command):
        # Dirac's algorithm gives p4, p3, p2 and p1: a fourth level.  {p1, H_d}
        # is proven outside the on-shell module, at every degree.
        path = tmp_path / "four_levels.model"
        path.write_text(
            "[system]\nn_dof = 4\nhamiltonian = q2*p1 + q3*p2 + q4*p3\n"
            "[primaries]\nP1 = p4\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, command, str(path))
        assert code == 4
        assert out == ""
        assert err == (
            "error: bracket of tertiary constraint T1 with H_d is not weakly zero "
            "(not in the on-shell module): the hierarchy continues past three levels\n"
        )

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

    @pytest.mark.parametrize(
        "error, line",
        [
            # A library error that no handler above expects, and any other.
            (DiracSymmetryError("no such state"), "internal error: no such state\n"),
            (RuntimeError("no such state"), "internal error: RuntimeError: no such state\n"),
        ],
    )
    def test_unexpected_error_is_internal(self, capsys, monkeypatch, error, line):
        def command(*args):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "chain", command)
        assert run(capsys, "chain", EM1) == (5, "", line)

    def test_module_run_as_a_script(self, capsys, monkeypatch):
        # A fresh copy of the module runs as __main__; the imported one is
        # set aside, as ``python -m`` would never have imported it.
        monkeypatch.delitem(sys.modules, "dirac_symmetry.cli")
        monkeypatch.setattr(sys, "argv", ["dirac-symmetry", "chain", EM1])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("dirac_symmetry.cli", run_name="__main__")
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == run(capsys, "chain", EM1)[1] and captured.err == ""


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


# A consistent model whose commutation bracket {G, H_d} = q2 is a member of
# the on-shell module: sympy's basis holds q2 itself.  The certificate's P2
# cofactor inverts q1*p1 - 1 modulo q1^4 and has degree 6, past the default
# bound deg(q2) + 4 = 5.
MEMBER_PAST_THE_BOUND = """\
[system]
n_dof = 3
hamiltonian = p3
[primaries]
P1 = q1^4
P2 = q1*p1*q2 - q2
[generators.g]
G = q2*q3
"""

# Primaries whose ideal holds 1 (q1^3 * p1^3 = 1 on the surface, yet
# q1^3 = 0): the constraint surface is empty.
INCONSISTENT_PRIMARIES = """\
[system]
n_dof = 2
hamiltonian = p2
[primaries]
P1 = q1^3
P2 = q1*p1 - 1
"""


# P1 implies the chain's whole hierarchy: {P1, H_d} = -2*q1*P1 vanishes
# wherever P1 does, so Dirac's consistency step adds no level.  The chain
# de-duplicates residuals against the rational span of the known
# constraints, not their ideal, and reports S1 = q1*p1 and T1 = q1^2*p1.
IMPLIED_LEVELS = """\
[system]
n_dof = 2
hamiltonian = q1^2*p1 + p2^2
[primaries]
P1 = p1
"""

# Second-class primaries: {P1, P2} = -1, so the consistency step fixes the
# multipliers of the total Hamiltonian and finds no secondary.  The chain
# brackets with H_d alone and reports S1 = p2.
SECOND_CLASS_PRIMARIES = """\
[system]
n_dof = 2
hamiltonian = q1*p2 + p2^2
[primaries]
P1 = p1
P2 = q1
"""


class TestKnownWrongAnswers:
    """Four wrong answers the package still gives, each a strict xfail beside
    the independent answer that shows it is wrong."""

    def test_member_past_the_bound_per_sympy(self):
        q1, q2, q3, p1, p2, p3, E = sp.symbols("q1 q2 q3 p1 p2 p3 E")
        basis = sp.groebner(
            [q1**4, q1 * p1 * q2 - q2, p3 - E], q1, q2, q3, p1, p2, p3, E, order="grlex"
        )
        assert list(basis.exprs) == [q1**4, q2, -E + p3]

    def test_member_past_the_bound_found_at_bound_6(self, capsys, tmp_path):
        path = tmp_path / "member.model"
        path.write_text(MEMBER_PAST_THE_BOUND, encoding="utf-8")
        code, out, _ = run(
            capsys, "check-symmetry", str(path), "--set", "g", "--degree-bound", "6"
        )
        assert "commutation: on-shell" in out
        assert code == 0

    @pytest.mark.xfail(
        strict=True,
        reason="the search stops at the default degree bound although q2 has "
        "a zero normal form: reported as fails / NotSymmetry, exit 2",
    )
    def test_member_past_the_bound_at_the_default_bound(self, capsys, tmp_path):
        path = tmp_path / "member.model"
        path.write_text(MEMBER_PAST_THE_BOUND, encoding="utf-8")
        code, out, _ = run(capsys, "check-symmetry", str(path), "--set", "g")
        assert "commutation: on-shell" in out
        assert code == 0

    def test_inconsistent_primaries_per_sympy(self):
        q1, q2, p1, p2, E = sp.symbols("q1 q2 p1 p2 E")
        basis = sp.groebner([q1**3, q1 * p1 - 1, p2 - E], q1, q2, p1, p2, E, order="grlex")
        assert list(basis.exprs) == [1]

    @pytest.mark.xfail(
        strict=True,
        reason="a constraint ideal that holds 1 is not detected: chain exits 0",
    )
    def test_inconsistent_primaries_are_refused(self, capsys, tmp_path):
        path = tmp_path / "inconsistent.model"
        path.write_text(INCONSISTENT_PRIMARIES, encoding="utf-8")
        code, _, _ = run(capsys, "chain", str(path))
        assert code != 0

    def test_implied_levels_per_sympy(self):
        q1, q2, p1, p2 = sp.symbols("q1 q2 p1 p2")
        h_d = q1**2 * p1 + p2**2
        assert sympy_bracket(p1, h_d, (q1, q2), (p1, p2)) == -2 * q1 * p1

    @pytest.mark.xfail(
        strict=True,
        reason="a residual in the ideal of the earlier levels becomes a new "
        "level: chain reports N_s=1, N_t=1",
    )
    def test_implied_levels_are_not_new_constraints(self, capsys, tmp_path):
        path = tmp_path / "implied.model"
        path.write_text(IMPLIED_LEVELS, encoding="utf-8")
        code, out, _ = run(capsys, "chain", str(path))
        assert "counts: N_p=1, N_s=0, N_t=0" in out
        assert code == 0

    def test_second_class_primaries_per_sympy(self):
        q1, q2, p1, p2 = sp.symbols("q1 q2 p1 p2")
        assert sympy_bracket(p1, q1, (q1, q2), (p1, p2)) == -1

    @pytest.mark.xfail(
        strict=True,
        reason="the chain brackets with H_d alone, as if the primaries were "
        "first class: chain reports S1 = p2 and exits 0",
    )
    def test_second_class_primaries_add_no_secondary(self, capsys, tmp_path):
        # Either product decision mends it: a refusal with a nonzero exit,
        # or the Dirac-Bergmann step, which finds no secondary.
        path = tmp_path / "second_class.model"
        path.write_text(SECOND_CLASS_PRIMARIES, encoding="utf-8")
        code, out, _ = run(capsys, "chain", str(path))
        assert code != 0 or "N_s=0" in out


class TestPrimariesSpanningAConstant:
    """Primaries whose span holds a nonzero constant describe an empty
    constraint surface: every command that builds the chain exits 6 and
    names the primary that leaves the constant."""

    SYSTEM = "[system]\nn_dof = 1\nhamiltonian = p1\n"
    GENERATORS = "[generators.g]\nG = q1\n"
    MODELS = [
        ("P1 = q1 + 1\nP2 = q1\n", "P2", "-1"),
        ("P1 = 1\n", "P1", "1"),
        ("P1 = 2\n", "P1", "2"),
    ]

    @pytest.mark.parametrize("primaries, source, residual", MODELS)
    @pytest.mark.parametrize(
        "command", ["chain", "total-hamiltonian", "first-class", "check-symmetry"]
    )
    def test_chain_commands_exit_inconsistent(
        self, capsys, tmp_path, command, primaries, source, residual
    ):
        path = tmp_path / "constant.model"
        path.write_text(self.SYSTEM + "[primaries]\n" + primaries + self.GENERATORS)
        code, out, err = run(capsys, command, str(path), "--set", "g")
        assert (code, out) == (6, "")
        assert err == (
            f"finding: inconsistent system: primary {source} over the primaries before "
            f"it leaves the nonzero constant residual {residual}: the system has no "
            "solutions\n"
        )

    @pytest.mark.parametrize("primaries", [primaries for primaries, _, _ in MODELS])
    def test_structure_constants_builds_no_chain(self, capsys, tmp_path, primaries):
        path = tmp_path / "constant.model"
        path.write_text(self.SYSTEM + "[primaries]\n" + primaries + self.GENERATORS)
        code, out, err = run(capsys, "structure-constants", str(path), "--set", "g")
        assert (code, err) == (0, "")
        assert "closed: yes; antisymmetry ok, Jacobi ok; abelian\n" in out

    def test_without_the_primaries_the_generator_is_no_symmetry(self, capsys, tmp_path):
        path = tmp_path / "free.model"
        path.write_text(self.SYSTEM + self.GENERATORS)
        code, out, _ = run(capsys, "check-symmetry", str(path), "--set", "g")
        assert code == 2
        assert "overall: NotSymmetry" in out
