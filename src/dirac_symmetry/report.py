"""Report building and rendering for the command-line pipeline.

Every command produces one JSON-compatible dictionary (exact rationals and
polynomials rendered as re-parsable strings) and a plain-text view derived
from it.  The ``*_report`` builders are the only readers of the domain
objects; each ``*_text`` view is a function of its report dictionary alone, so
the two formats cannot disagree.  The one exception is ``first_class_text``:
the first-class report does not carry the names of the on-shell module
generators that the text prints, so they are passed in beside it.  Both
renderings are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Callable, Sequence

from .chain import LEVELS, ConstraintChain, FirstClassReport, TotalHamiltonian
from .errors import ProductTooLargeError
from .membership import IdealDecomposition, NotFound
from .phase import PhasePolynomial, PhaseSpace
from .symmetry import NotClosed, StructureConstants, SymmetryVerdict, VerdictClass

# Overall classes for which ``check-symmetry`` passes.
PASSING_VERDICTS = (
    VerdictClass.STRICT_SYMMETRY.value,
    VerdictClass.DYNAMICAL_SYMMETRY.value,
)


def color_enabled() -> bool:
    return os.environ.get("DIRAC_SYMMETRY_COLOR") == "1"


def _paint(text: str, code: str) -> str:
    if color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _bold(text: str) -> str:
    return _paint(text, "1")


def _good(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def _verdict_mark(ok: bool, good: str = "ok", bad: str = "FAIL") -> str:
    return _good(good) if ok else _bad(bad)


def _text(value: PhasePolynomial | Fraction) -> str:
    """The printed form of a polynomial or rational: the one place reports
    turn coefficients into text."""
    try:
        return str(value)
    except ValueError:  # Python refuses to print an int this long
        raise ProductTooLargeError(
            f"a computed coefficient has more digits than Python's limit of "
            f"{sys.get_int_max_str_digits()} for printing an integer"
        ) from None


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
def certificate_dict(
    outcome: IdealDecomposition | NotFound, generator_names: Sequence[str]
) -> dict:
    if isinstance(outcome, NotFound):
        return {
            "found": False,
            "degree_bound": outcome.degree_bound,
            "mode": outcome.mode.value,
            "message": outcome.message,
        }
    coefficients = {
        name: _text(coeff)
        for name, coeff in zip(generator_names, outcome.coefficients)
        if not coeff.is_zero()
    }
    return {
        "found": True,
        "degree_bound": outcome.degree_bound,
        "coefficients": coefficients,
    }


def certificate_text(certificate: dict) -> str:
    if not certificate["found"]:
        return certificate["message"]
    parts = [f"{name}: {coeff}" for name, coeff in certificate["coefficients"].items()]
    return "; ".join(parts) or "zero certificate"


def _space_dict(space: PhaseSpace) -> dict:
    return {"n_dof": space.n_dof, "parameters": list(space.parameters)}


def _levels_dict(chain: ConstraintChain) -> dict:
    return {
        level: [
            {"name": name, "constraint": _text(poly)}
            for name, poly in zip(names, polys)
        ]
        for level, names, polys in zip(LEVELS, chain.names, chain.levels)
    }


def _table_dict(rows: Sequence[Sequence[PhasePolynomial]]) -> list[list[str]]:
    return [[_text(entry) for entry in row] for row in rows]


# ----------------------------------------------------------------------
# chain
# ----------------------------------------------------------------------
def chain_report(
    chain: ConstraintChain,
    file_label: str,
    declared_comparison: dict | None = None,
) -> dict:
    ideal_names, _ = chain.on_shell_generators(include_energy=True)
    report = {
        "command": "chain",
        "file": file_label,
        "space": _space_dict(chain.space),
        "h_d": _text(chain.system.h_d),
        "degree_bound": chain.degree_bound,
        "reduction_policy": (
            "new residuals are de-duplicated immediately against the rational "
            "span of all known constraints"
        ),
        "levels": _levels_dict(chain),
        "counts": dict(zip(LEVELS, chain.counts)),
        "ordering_ok": chain.ordering_ok,
        "strict_level_form": chain.strict_level_form,
        "tables": {
            key: _table_dict(chain.table(*blocks))
            for _, key, *blocks in _TABLES + _OFF_LEVEL_TABLES
        },
        "tertiary_closure": [
            {
                "name": name,
                "bracket": _text(bracket),
                "certificate": certificate_dict(cert, ideal_names),
            }
            for name, bracket, cert in zip(
                chain.names[2], chain.brackets[2], chain.tertiary_closure
            )
        ],
    }
    if declared_comparison is not None:
        report["declared_levels"] = declared_comparison
    return report


def _table_lines(
    title: str,
    rows: Sequence[Sequence[str]],
    row_names: Sequence[str],
    col_names: Sequence[str],
) -> list[str]:
    entries = [
        f"  {{{row_name}, H_d}} on {col_name}: {entry}"
        for row, row_name in zip(rows, row_names)
        for entry, col_name in zip(row, col_names)
        if entry != "0"
    ]
    if not entries:
        return [f"{title}: all zero"]
    return [f"{title}:", *entries]


# (title, table key, row level, first and stop column levels) of the chain's
# bracket tables, as ``ConstraintChain.table`` takes the levels, in the key
# order of the report's "tables"; the off-level ones are printed only when
# the strict level form fails.
_TABLES = (
    ("primary->secondary coefficients", "primary_to_secondary", 0, 1, 2),
    ("primary->tertiary coefficients", "primary_to_tertiary", 0, 2, 3),
    ("secondary->tertiary coefficients", "secondary_to_tertiary", 1, 2, 3),
)
_OFF_LEVEL_TABLES = (
    ("off-level components of primary brackets", "primary_spill", 0, 0, 1),
    ("off-level components of secondary brackets", "secondary_spill", 1, 0, 2),
)


def chain_text(report: dict) -> str:
    space = report["space"]
    levels = report["levels"]
    counts = report["counts"]
    names = [[c["name"] for c in levels[level]] for level in LEVELS]
    lines = [
        _bold(f"constraint chain for {report['file']}"),
        f"phase space: n_dof={space['n_dof']}, "
        f"parameters: {', '.join(space['parameters'])}",
        f"H_d: {report['h_d']}",
    ]
    for level in LEVELS:
        lines.append(f"{level} constraints ({len(levels[level])}):")
        lines += [f"  {c['name']} = {c['constraint']}" for c in levels[level]]
    lines += [
        "counts: " + ", ".join(f"N_{level[0]}={counts[level]}" for level in LEVELS),
        "ordering N_p >= N_s >= N_t: "
        + _verdict_mark(report["ordering_ok"], bad="VIOLATED"),
        "strict level form: "
        + _verdict_mark(report["strict_level_form"], bad="has off-level components"),
        f"reduction policy: {report['reduction_policy']}",
    ]
    tables = _TABLES if report["strict_level_form"] else _TABLES + _OFF_LEVEL_TABLES
    for title, key, row, first, stop in tables:
        col_names = [name for level in names[first:stop] for name in level]
        lines += _table_lines(title, report["tables"][key], names[row], col_names)
    if report["tertiary_closure"]:
        lines.append("tertiary closure:")
        lines += [
            f"  {{{t['name']}, H_d}} = {t['bracket']} ; "
            + certificate_text(t["certificate"])
            for t in report["tertiary_closure"]
        ]
    else:
        lines.append("tertiary closure: vacuous (no tertiary constraints)")
    declared = report.get("declared_levels")
    if declared is not None:
        lines.append(
            "declared levels match generated chain: "
            + _verdict_mark(declared["match"], good="yes", bad="NO")
        )
        for detail in declared["details"]:
            lines.append(f"  {detail}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# total hamiltonian
# ----------------------------------------------------------------------
def total_hamiltonian_report(
    chain: ConstraintChain, total: TotalHamiltonian, file_label: str
) -> dict:
    constraint_names = chain.all_names()
    return {
        "command": "total-hamiltonian",
        "file": file_label,
        "space": _space_dict(total.space),
        "h_d": _text(chain.system.h_d),
        "h_tot": _text(total.h_tot),
        "multipliers": {
            level: list(names) for level, names in zip(LEVELS, total.multiplier_names)
        },
        "weak_equality_certificate": certificate_dict(
            total.certificate, constraint_names
        ),
    }


def total_hamiltonian_text(report: dict) -> str:
    multipliers = report["multipliers"]
    lines = [
        _bold(f"total Hamiltonian for {report['file']}"),
        f"H_d: {report['h_d']}",
        f"H_tot: {report['h_tot']}",
        "multipliers: "
        + ", ".join(f"{level} [{', '.join(multipliers[level])}]" for level in LEVELS),
        "weak equality H_tot = H_d modulo constraints: "
        + certificate_text(report["weak_equality_certificate"]),
    ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# first class
# ----------------------------------------------------------------------
def first_class_report(
    chain: ConstraintChain, result: FirstClassReport, file_label: str
) -> dict:
    ideal_names, _ = chain.on_shell_generators(result.include_energy)
    return {
        "command": "first-class",
        "file": file_label,
        "include_energy": result.include_energy,
        "degree_bound": result.degree_bound,
        "pairs": [
            {
                "a": pair.name_a,
                "b": pair.name_b,
                "bracket": _text(pair.bracket),
                "first_class": pair.first_class,
                "certificate": certificate_dict(pair.certificate, ideal_names),
            }
            for pair in result.pairs
        ],
        "all_first_class": result.all_first_class,
    }


def first_class_text(report: dict, module_names: Sequence[str]) -> str:
    """Text view; ``module_names`` are the on-shell module generators, which
    the report does not carry."""
    lines = [
        _bold(f"first-class check for {report['file']}"),
        "on-shell module generators: " + (", ".join(module_names) or "(none)"),
    ]
    if not report["pairs"]:
        lines.append("no constraint pairs: vacuous pass")
    for pair in report["pairs"]:
        mark = _verdict_mark(pair["first_class"], good="pass", bad="SECOND-CLASS")
        lines.append(
            f"  {{{pair['a']}, {pair['b']}}} = {pair['bracket']} ; {mark} ; "
            + certificate_text(pair["certificate"])
        )
    lines.append(
        "all pairs first class: "
        + _verdict_mark(report["all_first_class"], good="yes", bad="NO")
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# symmetry verdict
# ----------------------------------------------------------------------
def _closure_dict(closure: StructureConstants | NotClosed) -> dict:
    if isinstance(closure, NotClosed):
        return {
            "closed": False,
            "failing_pair": list(closure.pair),
            "bracket": _text(closure.bracket),
            "field_dependent_close": closure.field_dependent_close,
        }
    return {
        "closed": True,
        "generators": list(closure.names),
        "antisymmetry_ok": closure.antisymmetric,
        "jacobi_ok": closure.jacobi,
        "abelian": closure.is_abelian(),
        "nonzero_entries": [
            {
                "k": closure.names[k],
                "i": closure.names[i],
                "j": closure.names[j],
                "value": _text(value),
            }
            for k, i, j, value in closure.nonzero
        ],
    }


def symmetry_report(
    chain: ConstraintChain,
    verdict: SymmetryVerdict,
    set_name: str,
    file_label: str,
) -> dict:
    ideal_names, _ = chain.on_shell_generators(verdict.include_energy)
    level_names = dict(zip(LEVELS, chain.names))
    all_names = chain.all_names()
    # One dict per answer object and names: the zero images of a level share
    # one answer.  The verdict keeps every answer alive, so no id is reused.
    certificates: dict[tuple[int, int], dict] = {}

    def certificate(outcome, names):
        key = (id(outcome), id(names))
        entry = certificates.get(key)
        if entry is None:
            entry = certificates[key] = certificate_dict(outcome, names)
        return entry

    generators = []
    for gv in verdict.generator_verdicts:
        level_entries = []
        for image in gv.level_report.images:
            entry = {
                "level": image.level,
                "constraint": image.name,
                "image": _text(image.image),
                "within_level": certificate(image.within_level, level_names[image.level]),
            }
            if image.across_levels is not None:
                entry["across_levels"] = certificate(image.across_levels, all_names)
            level_entries.append(entry)
        generators.append(
            {
                "name": gv.name,
                "generator": _text(gv.generator),
                "commutation": gv.commutation_class.value,
                "bracket_with_h_d": _text(gv.bracket_with_h_d),
                "commutation_certificate": certificate_dict(
                    gv.commutation_certificate, ideal_names
                ),
                "level_preserving": gv.level_report.level_preserving,
                "mixing": [
                    {
                        "source_level": m.source_level,
                        "source": m.source_name,
                        "target_level": m.target_level,
                        "target": m.target_name,
                        "coefficient": _text(m.coefficient),
                    }
                    for m in gv.level_report.mixing
                ],
                "escapes_constraint_module": [
                    {"level": level, "constraint": name}
                    for level, name in gv.level_report.escapes
                ],
                "level_action": level_entries,
                "counts": {
                    "applicable": gv.counts_report.applicable,
                    "ranks": {
                        level: gv.counts_report.ranks[level] for level in LEVELS
                    },
                    "preserved": gv.counts_report.counts_preserved,
                },
                "class": gv.verdict.value,
            }
        )
    return {
        "command": "check-symmetry",
        "file": file_label,
        "set": set_name,
        "include_energy": verdict.include_energy,
        "degree_bound": verdict.degree_bound,
        "generators": generators,
        "closure": _closure_dict(verdict.closure),
        "overall": verdict.overall.value,
    }


def _closure_lines(closure: dict, headline: str) -> list[str]:
    """The closure part of a symmetry or structure-constants view: the
    headline (in the failure colour when the set does not close), then the
    nonzero structure constants or the field-dependence note."""
    if not closure["closed"]:
        lines = [_bad(headline)]
        if closure["field_dependent_close"]:
            lines.append("  a field-dependent decomposition exists: constancy violated")
        return lines
    entries = [
        f"  C[{e['k']}][{e['i']}][{e['j']}] = {e['value']}"
        for e in closure["nonzero_entries"]
    ]
    return [headline, *(entries or ["  all structure constants zero"])]


def _lie_laws(closure: dict) -> str:
    return (
        "antisymmetry "
        + _verdict_mark(closure["antisymmetry_ok"])
        + ", Jacobi "
        + _verdict_mark(closure["jacobi_ok"])
    )


def _failure(closure: dict) -> str:
    a, b = closure["failing_pair"]
    return f"({a}, {b}), bracket {closure['bracket']}"


def symmetry_text(report: dict) -> str:
    lines = [
        _bold(f"symmetry check for {report['file']} (set {report['set']})"),
        "on-shell energy generator included: "
        + ("yes" if report["include_energy"] else "no"),
    ]
    for g in report["generators"]:
        lines += [
            f"generator {g['name']} = {g['generator']}",
            f"  {{A, H_d}} = {g['bracket_with_h_d']} ; commutation: "
            f"{g['commutation']} ; " + certificate_text(g["commutation_certificate"]),
        ]
        if g["level_preserving"]:
            lines.append("  level action: preserving")
        lines += [
            _bad(
                f"  mixing: {m['source_level']} {m['source']} -> "
                f"{m['target_level']} {m['target']} (coefficient {m['coefficient']})"
            )
            for m in g["mixing"]
        ]
        lines += [
            _bad(f"  escapes constraint module: {e['level']} {e['constraint']}")
            for e in g["escapes_constraint_module"]
        ]
        counts = g["counts"]
        if counts["applicable"]:
            # level_action holds one entry per constraint of each level
            ranks = ", ".join(
                f"{level} {counts['ranks'][level]}/"
                f"{sum(e['level'] == level for e in g['level_action'])}"
                for level in LEVELS
            )
            lines.append(f"  counts: preserved (ranks: {ranks})")
        else:
            lines.append("  counts: not applicable (level preservation failed)")
        lines.append(f"  class: {g['class']}")
    closure = report["closure"]
    if closure["closed"]:
        abelian = " (abelian)" if closure["abelian"] else ""
        headline = f"closure: closed{abelian}; {_lie_laws(closure)}"
    else:
        headline = f"closure: NOT closed at pair {_failure(closure)}"
    lines += _closure_lines(closure, headline)
    overall = report["overall"]
    lines.append(
        "overall: " + (_good(overall) if overall in PASSING_VERDICTS else _bad(overall))
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# structure constants
# ----------------------------------------------------------------------
def structure_constants_report(
    closure: StructureConstants | NotClosed, set_name: str, file_label: str
) -> dict:
    return {
        "command": "structure-constants",
        "file": file_label,
        "set": set_name,
        "closure": _closure_dict(closure),
    }


def structure_constants_text(report: dict) -> str:
    closure = report["closure"]
    if closure["closed"]:
        abelian = "; abelian" if closure["abelian"] else ""
        headline = f"closed: yes; {_lie_laws(closure)}{abelian}"
    else:
        headline = f"closed: no; failing pair {_failure(closure)}"
    lines = [
        _bold(f"structure constants for {report['file']} (set {report['set']})"),
        *_closure_lines(closure, headline),
    ]
    return "\n".join(lines) + "\n"


def render(report: dict, text_view: Callable[[], str], fmt: str) -> str:
    """The output in ``fmt``: the report as JSON, or its text view, which is
    built only then."""
    if fmt == "structured":
        return _json(report, "\n") + "\n"
    return text_view()


def _json(value, newline: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` for the six types a
    report holds (str, int, bool, None, list and dict with str keys), each
    item on a line that starts with `newline`.  ``indent`` turns off json's C
    encoder; this writer is shorter and faster than its Python one.  Any
    other type raises TypeError, as json.dumps does."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            f"{encode_basestring(key)}: {_json(item, inner)}"
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
