"""Command-line interface.

Exit codes (stable contract):

====  =====================================================
code  meaning
====  =====================================================
0     success / symmetry verdict passed
2     finding: failed symmetry, second-class pair, closure
      failure, or declared levels that do not match
3     invalid input (file, expression, flags, dependent
      primaries, reserved parameter names)
4     constraint hierarchy continues past the tertiary level
5     internal error
6     inconsistent system (nonzero constant residual)
====  =====================================================
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import report as rpt
from .chain import (
    ConstraintChain,
    assemble_total_hamiltonian,
    first_class_check,
    generate_chain,
)
from .errors import (
    ChainBeyondTertiaryError,
    DependentPrimariesError,
    DiracSymmetryError,
    InconsistentSystemError,
    ModelFileError,
    ParseError,
    ProductTooLargeError,
    ReservedParameterError,
    SearchTooLargeError,
)
from .linsolve import RationalSpan, rational_rank
from .membership import CoefficientMode
from .modelfile import ModelFile, load_model_file
from .symmetry import classify, closure_and_structure_constants

EXIT_OK = 0
EXIT_FINDING = 2
EXIT_INVALID_INPUT = 3
EXIT_BEYOND_TERTIARY = 4
EXIT_INTERNAL = 5
EXIT_INCONSISTENT = 6


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as invalid input; argparse would exit 2, the
    code for findings.  Subcommand parsers inherit the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# Built once per process, on the first call of ``main``, not at import.
@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dirac-symmetry",
        description=(
            "Exact constraint-chain generation and dynamical-symmetry "
            "verification for polynomial Hamiltonian systems."
        ),
        epilog=(
            "exit codes: 0 ok, 2 finding, 3 invalid input, "
            "4 chain beyond tertiary, 5 internal error, 6 inconsistent system"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.__doc__)
        cmd.add_argument("file", help="model file to analyse")
        cmd.add_argument("--set", dest="set_name", help="generator set name")
        cmd.add_argument(
            "--degree-bound",
            type=int,
            dest="degree_bound",
            help="cap on coefficient-polynomial degree in membership searches",
        )
        cmd.add_argument(
            "--on-shell-energy",
            choices=("true", "false"),
            dest="on_shell_energy",
            help="include the on-shell generator H_d - E in the ideal",
        )
        cmd.add_argument(
            "--coefficients",
            choices=("constant", "polynomial"),
            dest="coefficients",
            help="coefficient class for level-preservation decompositions",
        )
        cmd.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            dest="format",
            help="output format (structured = JSON with exact rationals)",
        )
    return parser


def _resolve_options(args, model: ModelFile):
    degree_bound = args.degree_bound
    if degree_bound is None:
        degree_bound = model.options.degree_bound
    if degree_bound is not None and degree_bound < 0:
        raise ModelFileError("--degree-bound must be >= 0")
    if args.on_shell_energy is not None:
        include_energy = args.on_shell_energy == "true"
    elif model.options.on_shell_energy is not None:
        include_energy = model.options.on_shell_energy
    else:
        include_energy = True
    if args.coefficients is not None:
        mode = CoefficientMode(args.coefficients)
    elif model.options.coefficient_mode is not None:
        mode = model.options.coefficient_mode
    else:
        mode = CoefficientMode.POLYNOMIAL
    return degree_bound, include_energy, mode


def _compare_declared_levels(chain: ConstraintChain, model: ModelFile) -> dict | None:
    declared_by_level = {
        "secondary": model.declared_secondaries,
        "tertiary": model.declared_tertiaries,
    }
    if all(value is None for value in declared_by_level.values()):
        return None
    match = True
    details: list[str] = []
    for level, declared in declared_by_level.items():
        if declared is None:
            continue
        generated = chain.level_polys(level)
        problems = []
        if len(declared) != len(generated):
            problems.append(
                f"{level}: declared {len(declared)} constraints, "
                f"generated {len(generated)}"
            )
        else:
            span = RationalSpan()
            for poly in generated:
                span.add(poly.terms)
            problems += [
                f"{level}: declared {name} is outside the generated span"
                for name, poly in declared
                if span.reduce(poly.terms)
            ]
            if rational_rank(poly.terms for _, poly in declared) != len(generated):
                problems.append(f"{level}: declared constraints are dependent")
        details += problems or [f"{level}: spans agree ({len(generated)} constraints)"]
        match = match and not problems
    return {"match": match, "details": details}


def _require_set(model: ModelFile, set_name: str | None):
    if set_name is None:
        raise ModelFileError("--set NAME is required for this command")
    if set_name not in model.generator_sets:
        known = ", ".join(sorted(model.generator_sets)) or "(none)"
        raise ModelFileError(
            f"unknown generator set {set_name!r}; file declares: {known}"
        )
    return model.generator_sets[set_name]


# Each command returns (report, text view, exit code); it looks the report
# functions up on ``rpt`` when it runs.
def _chain(args, model: ModelFile, degree_bound, include_energy, mode):
    """generate the primary/secondary/tertiary constraint hierarchy"""
    chain = generate_chain(model.system, degree_bound)
    declared = _compare_declared_levels(chain, model)
    report = rpt.chain_report(chain, args.file, declared)
    code = EXIT_FINDING if declared is not None and not declared["match"] else EXIT_OK
    return report, rpt.chain_text(report), code


def _total_hamiltonian(args, model: ModelFile, degree_bound, include_energy, mode):
    """assemble H_tot with multiplier parameters"""
    chain = generate_chain(model.system, degree_bound)
    total = assemble_total_hamiltonian(model.system, chain)
    report = rpt.total_hamiltonian_report(chain, total, args.file)
    return report, rpt.total_hamiltonian_text(report), EXIT_OK


def _first_class(args, model: ModelFile, degree_bound, include_energy, mode):
    """test every constraint pair against the on-shell module"""
    chain = generate_chain(model.system, degree_bound)
    result = first_class_check(chain, degree_bound, include_energy)
    report = rpt.first_class_report(chain, result, args.file)
    module_names, _ = chain.on_shell_generators(include_energy)
    code = EXIT_OK if report["all_first_class"] else EXIT_FINDING
    return report, rpt.first_class_text(report, module_names), code


def _check_symmetry(args, model: ModelFile, degree_bound, include_energy, mode):
    """classify a generator set against the symmetry rules"""
    gen_set = _require_set(model, args.set_name)
    chain = generate_chain(model.system, degree_bound)
    verdict = classify(
        gen_set, model.system, chain, degree_bound, include_energy, mode
    )
    report = rpt.symmetry_report(chain, verdict, args.set_name, args.file)
    code = EXIT_OK if report["overall"] in rpt.PASSING_VERDICTS else EXIT_FINDING
    return report, rpt.symmetry_text(report), code


def _structure_constants(args, model: ModelFile, degree_bound, include_energy, mode):
    """extract Lie structure constants of a generator set"""
    gen_set = _require_set(model, args.set_name)
    closure = closure_and_structure_constants(gen_set, degree_bound)
    report = rpt.structure_constants_report(closure, args.set_name, args.file)
    code = EXIT_OK if report["closure"]["closed"] else EXIT_FINDING
    return report, rpt.structure_constants_text(report), code


COMMANDS = {
    "chain": _chain,
    "total-hamiltonian": _total_hamiltonian,
    "first-class": _first_class,
    "check-symmetry": _check_symmetry,
    "structure-constants": _structure_constants,
}


def _run(args) -> int:
    model = load_model_file(args.file)
    options = _resolve_options(args, model)
    report, text, code = COMMANDS[args.command](args, model, *options)
    sys.stdout.write(rpt.render(report, text, args.format))
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(_build_arg_parser().parse_args(argv))
    except (argparse.ArgumentError, ModelFileError, ParseError,
            DependentPrimariesError, ReservedParameterError,
            SearchTooLargeError, ProductTooLargeError) as exc:
        sys.stderr.write(f"error: invalid input: {exc}\n")
        return EXIT_INVALID_INPUT
    except InconsistentSystemError as exc:
        sys.stderr.write(f"finding: inconsistent system: {exc}\n")
        return EXIT_INCONSISTENT
    except ChainBeyondTertiaryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BEYOND_TERTIARY
    except DiracSymmetryError as exc:  # remaining library errors are unexpected
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort exit-code mapping
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
