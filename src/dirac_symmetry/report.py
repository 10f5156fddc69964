"""Report building and rendering for the command-line pipeline.

Every command produces one JSON-compatible dictionary (exact rationals and
polynomials rendered as re-parsable strings) and a plain-text view derived
from it.  Both renderings are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

from .chain import ConstraintChain, FirstClassReport, TotalHamiltonian
from .membership import IdealDecomposition, NotFound
from .phase import PhasePolynomial
from .symmetry import NotClosed, StructureConstants, SymmetryVerdict


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
        name: str(coeff)
        for name, coeff in zip(generator_names, outcome.coefficients)
        if not coeff.is_zero()
    }
    return {
        "found": True,
        "degree_bound": outcome.degree_bound,
        "coefficients": coefficients,
    }


def certificate_text(
    outcome: IdealDecomposition | NotFound, generator_names: Sequence[str]
) -> str:
    if isinstance(outcome, NotFound):
        return outcome.message
    parts = [
        f"{name}: {coeff}"
        for name, coeff in zip(generator_names, outcome.coefficients)
        if not coeff.is_zero()
    ]
    return "zero certificate" if not parts else "; ".join(parts)


def _space_dict(chain: ConstraintChain) -> dict:
    return {
        "n_dof": chain.space.n_dof,
        "parameters": list(chain.space.parameters),
    }


def _levels_dict(chain: ConstraintChain) -> dict:
    return {
        level: [
            {"name": name, "constraint": str(poly)}
            for name, poly in zip(chain.level_names(level), chain.level_polys(level))
        ]
        for level in ("primary", "secondary", "tertiary")
    }


def _table_dict(rows: Sequence[Sequence[PhasePolynomial]]) -> list[list[str]]:
    return [[str(entry) for entry in row] for row in rows]


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
        "space": _space_dict(chain),
        "h_d": str(chain.system.h_d),
        "degree_bound": chain.degree_bound,
        "reduction_policy": (
            "new residuals are de-duplicated immediately against the rational "
            "span of all known constraints"
        ),
        "levels": _levels_dict(chain),
        "counts": {
            "primary": chain.counts[0],
            "secondary": chain.counts[1],
            "tertiary": chain.counts[2],
        },
        "ordering_ok": chain.ordering_ok,
        "strict_level_form": chain.strict_level_form,
        "tables": {
            "primary_to_secondary": _table_dict(chain.primary_to_secondary),
            "primary_to_tertiary": _table_dict(chain.primary_to_tertiary),
            "secondary_to_tertiary": _table_dict(chain.secondary_to_tertiary),
            "primary_spill": _table_dict(chain.primary_spill),
            "secondary_spill": _table_dict(chain.secondary_spill),
        },
        "tertiary_closure": [
            {
                "name": name,
                "bracket": str(bracket),
                "certificate": certificate_dict(cert, ideal_names),
            }
            for name, bracket, cert in zip(
                chain.tertiary_names, chain.tertiary_brackets, chain.tertiary_closure
            )
        ],
    }
    if declared_comparison is not None:
        report["declared_levels"] = declared_comparison
    return report


def _table_lines(
    title: str,
    rows: Sequence[Sequence[PhasePolynomial]],
    row_names: Sequence[str],
    col_names: Sequence[str],
) -> list[str]:
    lines = []
    entries = []
    for row, row_name in zip(rows, row_names):
        for entry, col_name in zip(row, col_names):
            if not entry.is_zero():
                entries.append(f"  {{{row_name}, H_d}} on {col_name}: {entry}")
    if entries:
        lines.append(f"{title}:")
        lines.extend(entries)
    else:
        lines.append(f"{title}: all zero")
    return lines


def chain_text(chain: ConstraintChain, report: dict) -> str:
    lines = [_bold(f"constraint chain for {report['file']}")]
    lines.append(
        f"phase space: n_dof={chain.space.n_dof}, "
        f"parameters: {', '.join(chain.space.parameters)}"
    )
    lines.append(f"H_d: {chain.system.h_d}")
    for level in ("primary", "secondary", "tertiary"):
        names = chain.level_names(level)
        polys = chain.level_polys(level)
        lines.append(f"{level} constraints ({len(names)}):")
        for name, poly in zip(names, polys):
            lines.append(f"  {name} = {poly}")
    n_p, n_s, n_t = chain.counts
    lines.append(f"counts: N_p={n_p}, N_s={n_s}, N_t={n_t}")
    lines.append(
        "ordering N_p >= N_s >= N_t: " + _verdict_mark(chain.ordering_ok, bad="VIOLATED")
    )
    lines.append(
        "strict level form: "
        + _verdict_mark(chain.strict_level_form, bad="has off-level components")
    )
    lines.append(f"reduction policy: {report['reduction_policy']}")
    lines.extend(
        _table_lines(
            "primary->secondary coefficients",
            chain.primary_to_secondary,
            chain.primary_names,
            chain.secondary_names,
        )
    )
    lines.extend(
        _table_lines(
            "primary->tertiary coefficients",
            chain.primary_to_tertiary,
            chain.primary_names,
            chain.tertiary_names,
        )
    )
    lines.extend(
        _table_lines(
            "secondary->tertiary coefficients",
            chain.secondary_to_tertiary,
            chain.secondary_names,
            chain.tertiary_names,
        )
    )
    if not chain.strict_level_form:
        lines.extend(
            _table_lines(
                "off-level components of primary brackets",
                chain.primary_spill,
                chain.primary_names,
                chain.primary_names,
            )
        )
        lines.extend(
            _table_lines(
                "off-level components of secondary brackets",
                chain.secondary_spill,
                chain.secondary_names,
                chain.primary_names + chain.secondary_names,
            )
        )
    ideal_names, _ = chain.on_shell_generators(include_energy=True)
    if chain.tertiary_names:
        lines.append("tertiary closure:")
        for name, bracket, cert in zip(
            chain.tertiary_names, chain.tertiary_brackets, chain.tertiary_closure
        ):
            lines.append(
                f"  {{{name}, H_d}} = {bracket} ; {certificate_text(cert, ideal_names)}"
            )
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
    v_names, u_names, w_names = total.multiplier_names
    constraint_names = chain.all_names()
    return {
        "command": "total-hamiltonian",
        "file": file_label,
        "space": {
            "n_dof": total.space.n_dof,
            "parameters": list(total.space.parameters),
        },
        "h_d": str(chain.system.h_d),
        "h_tot": str(total.h_tot),
        "multipliers": {
            "primary": list(v_names),
            "secondary": list(u_names),
            "tertiary": list(w_names),
        },
        "weak_equality_certificate": certificate_dict(
            total.certificate, constraint_names
        ),
    }


def total_hamiltonian_text(
    chain: ConstraintChain, total: TotalHamiltonian, report: dict
) -> str:
    lines = [_bold(f"total Hamiltonian for {report['file']}")]
    lines.append(f"H_d: {chain.system.h_d}")
    lines.append(f"H_tot: {total.h_tot}")
    v_names, u_names, w_names = total.multiplier_names
    lines.append(
        "multipliers: primary ["
        + ", ".join(v_names)
        + "], secondary ["
        + ", ".join(u_names)
        + "], tertiary ["
        + ", ".join(w_names)
        + "]"
    )
    lines.append(
        "weak equality H_tot = H_d modulo constraints: "
        + certificate_text(total.certificate, chain.all_names())
    )
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
                "bracket": str(pair.bracket),
                "first_class": pair.first_class,
                "certificate": certificate_dict(pair.certificate, ideal_names),
            }
            for pair in result.pairs
        ],
        "all_first_class": result.all_first_class,
    }


def first_class_text(
    chain: ConstraintChain, result: FirstClassReport, report: dict
) -> str:
    lines = [_bold(f"first-class check for {report['file']}")]
    ideal_names, _ = chain.on_shell_generators(result.include_energy)
    lines.append(
        "on-shell module generators: " + (", ".join(ideal_names) or "(none)")
    )
    if not result.pairs:
        lines.append("no constraint pairs: vacuous pass")
    for pair in result.pairs:
        mark = _verdict_mark(pair.first_class, good="pass", bad="SECOND-CLASS")
        lines.append(
            f"  {{{pair.name_a}, {pair.name_b}}} = {pair.bracket} ; {mark} ; "
            + certificate_text(pair.certificate, ideal_names)
        )
    lines.append(
        "all pairs first class: "
        + _verdict_mark(result.all_first_class, good="yes", bad="NO")
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
            "bracket": str(closure.bracket),
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
                "value": str(closure.tensor[k][i][j]),
            }
            for k in range(len(closure.names))
            for i in range(len(closure.names))
            for j in range(len(closure.names))
            if closure.tensor[k][i][j]
        ],
    }


def symmetry_report(
    chain: ConstraintChain,
    verdict: SymmetryVerdict,
    set_name: str,
    file_label: str,
) -> dict:
    ideal_names, _ = chain.on_shell_generators(verdict.include_energy)
    generators = []
    for gv in verdict.generator_verdicts:
        level_entries = []
        for image in gv.level_report.images:
            entry = {
                "level": image.level,
                "constraint": image.name,
                "image": str(image.image),
                "within_level": certificate_dict(
                    image.within_level, chain.level_names(image.level)
                ),
            }
            if image.across_levels is not None:
                entry["across_levels"] = certificate_dict(
                    image.across_levels, chain.all_names()
                )
            level_entries.append(entry)
        generators.append(
            {
                "name": gv.name,
                "generator": str(gv.generator),
                "commutation": gv.commutation_class.value,
                "bracket_with_h_d": str(gv.bracket_with_h_d),
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
                        "coefficient": str(m.coefficient),
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
                        level: gv.counts_report.ranks[level]
                        for level in ("primary", "secondary", "tertiary")
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


def symmetry_text(
    chain: ConstraintChain, verdict: SymmetryVerdict, report: dict
) -> str:
    lines = [
        _bold(f"symmetry check for {report['file']} (set {report['set']})")
    ]
    lines.append(
        f"on-shell energy generator included: "
        f"{'yes' if verdict.include_energy else 'no'}"
    )
    ideal_names, _ = chain.on_shell_generators(verdict.include_energy)
    for gv in verdict.generator_verdicts:
        lines.append(f"generator {gv.name} = {gv.generator}")
        lines.append(
            f"  {{A, H_d}} = {gv.bracket_with_h_d} ; commutation: "
            f"{gv.commutation_class.value} ; "
            + certificate_text(gv.commutation_certificate, ideal_names)
        )
        if gv.level_report.level_preserving:
            lines.append("  level action: preserving")
        for m in gv.level_report.mixing:
            lines.append(
                _bad(
                    f"  mixing: {m.source_level} {m.source_name} -> "
                    f"{m.target_level} {m.target_name} (coefficient {m.coefficient})"
                )
            )
        for level, name in gv.level_report.escapes:
            lines.append(
                _bad(f"  escapes constraint module: {level} {name}")
            )
        counts = gv.counts_report
        if counts.applicable:
            ranks = ", ".join(
                f"{level} {counts.ranks[level]}/{len(chain.level_names(level))}"
                for level in ("primary", "secondary", "tertiary")
            )
            lines.append(f"  counts: preserved (ranks: {ranks})")
        else:
            lines.append("  counts: not applicable (level preservation failed)")
        lines.append(f"  class: {gv.verdict.value}")
    closure = report["closure"]
    if closure["closed"]:
        flavor = " (abelian)" if closure["abelian"] else ""
        lines.append(
            f"closure: closed{flavor}; antisymmetry "
            + _verdict_mark(closure["antisymmetry_ok"])
            + ", Jacobi "
            + _verdict_mark(closure["jacobi_ok"])
        )
        for entry in closure["nonzero_entries"]:
            lines.append(
                f"  C[{entry['k']}][{entry['i']}][{entry['j']}] = {entry['value']}"
            )
        if not closure["nonzero_entries"]:
            lines.append("  all structure constants zero")
    else:
        lines.append(
            _bad(
                f"closure: NOT closed at pair ({closure['failing_pair'][0]}, "
                f"{closure['failing_pair'][1]}), bracket {closure['bracket']}"
            )
        )
        if closure["field_dependent_close"]:
            lines.append(
                "  a field-dependent decomposition exists: constancy violated"
            )
    overall_ok = report["overall"] in ("StrictSymmetry", "DynamicalSymmetry")
    lines.append(
        "overall: " + (_good(report["overall"]) if overall_ok else _bad(report["overall"]))
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
    lines = [
        _bold(
            f"structure constants for {report['file']} (set {report['set']})"
        )
    ]
    closure = report["closure"]
    if closure["closed"]:
        lines.append(
            "closed: yes; antisymmetry "
            + _verdict_mark(closure["antisymmetry_ok"])
            + ", Jacobi "
            + _verdict_mark(closure["jacobi_ok"])
            + ("; abelian" if closure["abelian"] else "")
        )
        for entry in closure["nonzero_entries"]:
            lines.append(
                f"  C[{entry['k']}][{entry['i']}][{entry['j']}] = {entry['value']}"
            )
        if not closure["nonzero_entries"]:
            lines.append("  all structure constants zero")
    else:
        lines.append(
            _bad(
                f"closed: no; failing pair ({closure['failing_pair'][0]}, "
                f"{closure['failing_pair'][1]}), bracket {closure['bracket']}"
            )
        )
        if closure["field_dependent_close"]:
            lines.append(
                "  a field-dependent decomposition exists: constancy violated"
            )
    return "\n".join(lines) + "\n"


def render(report: dict, text: str, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    return text
