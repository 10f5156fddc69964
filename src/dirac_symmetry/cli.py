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

import codecs
import functools
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import report as rpt
from .chain import (
    LEVELS,
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
    UsageError,
)
from .linsolve import RationalSpan, rational_rank
from .modelfile import SETTINGS, ModelFile, load_model_file
from .symmetry import classify, closure_and_structure_constants

EXIT_OK = 0
EXIT_FINDING = 2
EXIT_INVALID_INPUT = 3
EXIT_BEYOND_TERTIARY = 4
EXIT_INTERNAL = 5
EXIT_INCONSISTENT = 6


# The flags every command takes: (flag, dest, int or its choices or None,
# help), the run settings' from ``modelfile.SETTINGS``.  The table builds the
# argparse parser and drives ``_plain_parse``.
_FLAGS = (
    ("--set", "set_name", None, "generator set name"),
    *((setting.flag, setting.key,
       int if setting.values is None else tuple(setting.values), setting.help)
      for setting in SETTINGS),
    ("--format", "format", ("text", "structured"),
     "output format (structured = JSON with exact rationals)"),
)
_DEFAULTS = {dest: None for _, dest, _, _ in _FLAGS} | {"format": "text"}
_KINDS = {flag: (dest, kind) for flag, dest, kind, _ in _FLAGS}


def _plain_parse(argv) -> SimpleNamespace | None:
    """argparse's namespace for ``<command> <file>`` followed by exact flags,
    each as ``--flag value`` or ``--flag=value``; None for any other argv,
    which argparse then parses, so that it alone prints help and usage
    errors.  A value or file that starts with '-' is declined."""
    if len(argv) < 2 or argv[0] not in COMMANDS or argv[1][:1] == "-":
        return None
    parsed = dict(_DEFAULTS, command=argv[0], file=argv[1])
    i = 2
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if flag not in _KINDS:
            return None
        if not eq:
            i += 1
            if i == len(argv):
                return None
            value = argv[i]
        dest, kind = _KINDS[flag]
        if value[:1] == "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not None and value not in kind:
            return None
        parsed[dest] = value
        i += 1
    return SimpleNamespace(**parsed)


# Built once per process, on the first argv that ``_plain_parse`` declines;
# argparse is imported only then.
@functools.cache
def _build_arg_parser():
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Raises usage errors as invalid input; argparse would exit 2, the
        code for findings.  Subcommand parsers inherit the class."""

        def error(self, message):
            raise UsageError(message)

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
        for flag, dest, kind, text in _FLAGS:
            typed = {"type": kind} if kind is int else {"choices": kind}
            cmd.add_argument(
                flag, dest=dest, default=_DEFAULTS[dest], help=text, **typed
            )
    return parser


def _resolve_options(args, model: ModelFile) -> list:
    """Each run setting's value: its flag's, else the model's ``[options]``,
    else its built-in default."""
    resolved = []
    for setting in SETTINGS:
        value = getattr(args, setting.key)
        if value is None:
            value = getattr(model.options, setting.key)
            if value is None:
                value = setting.default
        elif setting.values is not None:
            value = setting.values[value]
        elif value < 0:
            raise ModelFileError(f"{setting.flag} must be >= 0")
        resolved.append(value)
    return resolved


def _compare_declared_levels(chain: ConstraintChain, model: ModelFile) -> dict | None:
    declared_levels = (model.declared_secondaries, model.declared_tertiaries)
    if all(declared is None for declared in declared_levels):
        return None
    match = True
    details: list[str] = []
    for level, declared, generated in zip(LEVELS[1:], declared_levels, chain.levels[1:]):
        if declared is None:
            continue
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


# Each command returns (report, text view, exit code), the view a function of
# no arguments that ``rpt.render`` calls only for --format=text; it looks the
# report functions up on ``rpt`` when it runs.
def _chain(args, model: ModelFile, degree_bound, include_energy, mode):
    """generate the primary/secondary/tertiary constraint hierarchy"""
    chain = generate_chain(model.system, degree_bound)
    declared = _compare_declared_levels(chain, model)
    report = rpt.chain_report(chain, args.file, declared)
    code = EXIT_FINDING if declared is not None and not declared["match"] else EXIT_OK
    return report, lambda: rpt.chain_text(report), code


def _total_hamiltonian(args, model: ModelFile, degree_bound, include_energy, mode):
    """assemble H_tot with multiplier parameters"""
    chain = generate_chain(model.system, degree_bound)
    total = assemble_total_hamiltonian(model.system, chain)
    report = rpt.total_hamiltonian_report(chain, total, args.file)
    return report, lambda: rpt.total_hamiltonian_text(report), EXIT_OK


def _first_class(args, model: ModelFile, degree_bound, include_energy, mode):
    """test every constraint pair against the on-shell module"""
    chain = generate_chain(model.system, degree_bound)
    result = first_class_check(chain, degree_bound, include_energy)
    report = rpt.first_class_report(chain, result, args.file)
    module_names, _ = chain.on_shell_generators(include_energy)
    code = EXIT_OK if report["all_first_class"] else EXIT_FINDING
    return report, lambda: rpt.first_class_text(report, module_names), code


def _check_symmetry(args, model: ModelFile, degree_bound, include_energy, mode):
    """classify a generator set against the symmetry rules"""
    gen_set = _require_set(model, args.set_name)
    chain = generate_chain(model.system, degree_bound)
    verdict = classify(
        gen_set, model.system, chain, degree_bound, include_energy, mode
    )
    report = rpt.symmetry_report(chain, verdict, args.set_name, args.file)
    code = EXIT_OK if report["overall"] in rpt.PASSING_VERDICTS else EXIT_FINDING
    return report, lambda: rpt.symmetry_text(report), code


def _structure_constants(args, model: ModelFile, degree_bound, include_energy, mode):
    """extract Lie structure constants of a generator set"""
    gen_set = _require_set(model, args.set_name)
    closure = closure_and_structure_constants(gen_set, degree_bound)
    report = rpt.structure_constants_report(closure, args.set_name, args.file)
    code = EXIT_OK if report["closure"]["closed"] else EXIT_FINDING
    return report, lambda: rpt.structure_constants_text(report), code


COMMANDS = {
    "chain": _chain,
    "total-hamiltonian": _total_hamiltonian,
    "first-class": _first_class,
    "check-symmetry": _check_symmetry,
    "structure-constants": _structure_constants,
}


def _json_escape(error: UnicodeEncodeError) -> tuple[str, int]:
    """Unencodable characters as JSON escapes (é as \\u00e9, a surrogate pair
    above U+FFFF); JSON has non-ASCII only in strings, so it stays JSON."""
    return encode_basestring_ascii(error.object[error.start:error.end])[1:-1], error.end


codecs.register_error("dirac_symmetry.json", _json_escape)


def _write(stream, text: str, structured: bool = False) -> None:
    """Write `text` to `stream`, each character that the stream's encoding
    cannot hold as an escape: a JSON one in a `structured` report, else a
    backslash escape (é as \\xe9).  A write that fails to encode leaves
    nothing behind, so the text is then written whole again."""
    try:
        stream.write(text)
    except UnicodeEncodeError:
        encoding = stream.encoding
        errors = "dirac_symmetry.json" if structured else "backslashreplace"
        stream.write(text.encode(encoding, errors).decode(encoding))


def _run(args) -> int:
    model = load_model_file(args.file)
    # The reports name the file as given.  Bytes of the name that are not
    # UTF-8 arrive as lone surrogates, which stdout cannot encode; they are
    # written as \xNN.
    args.file = args.file.encode("utf-8", "surrogateescape").decode(
        "utf-8", "backslashreplace"
    )
    options = _resolve_options(args, model)
    report, text_view, code = COMMANDS[args.command](args, model, *options)
    _write(sys.stdout, rpt.render(report, text_view, args.format), args.format == "structured")
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _run(_plain_parse(argv) or _build_arg_parser().parse_args(argv))
    except (UsageError, ModelFileError, ParseError,
            DependentPrimariesError, ReservedParameterError,
            SearchTooLargeError, ProductTooLargeError) as exc:
        _write(sys.stderr, f"error: invalid input: {exc}\n")
        return EXIT_INVALID_INPUT
    except InconsistentSystemError as exc:
        _write(sys.stderr, f"finding: inconsistent system: {exc}\n")
        return EXIT_INCONSISTENT
    except ChainBeyondTertiaryError as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return EXIT_BEYOND_TERTIARY
    except DiracSymmetryError as exc:  # remaining library errors are unexpected
        _write(sys.stderr, f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort exit-code mapping
        _write(sys.stderr, f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
