"""Sectioned plain-text model files: parsing and validation.

Format (``#`` starts a comment, blank lines ignored)::

    [system]
    n_dof = 3
    parameters = E          # optional; must include E when present
    hamiltonian = q1*p2 + q2*p3

    [primaries]             # ordered name = expression entries
    P1 = p1

    [secondaries]           # optional: declared levels for verification
    [tertiaries]

    [generators.good]       # one section per named generator set
    D1 = q1*p1

    [options]               # optional
    degree_bound = 4
    on_shell_energy = true
    coefficient_mode = polynomial

Unknown sections or keys are rejected.  A model file may hold at most
``MAX_MODEL_BYTES`` bytes, and model text at most that many characters.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .chain import ConstrainedSystem
from .errors import DiracSymmetryError, ModelFileError
from .expressions import parse_polynomial
from .membership import CoefficientMode
from .phase import PhasePolynomial, PhaseSpace
from .symmetry import GeneratorSet

_SYSTEM_KEYS = {"n_dof", "parameters", "hamiltonian"}
_OPTION_KEYS = {"degree_bound", "on_shell_energy", "coefficient_mode"}

# Largest model file accepted: 1 MiB.  A file just under it, a Hamiltonian
# of 70394 terms, loads in 1.1 s of CPU (Python 3.11 on a 2-vCPU Xeon VM);
# the shipped models hold at most 1.2 KB.
MAX_MODEL_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelOptions:
    """Per-file defaults; None means "not set" (CLI flags or built-ins apply)."""

    degree_bound: int | None = None
    on_shell_energy: bool | None = None
    coefficient_mode: CoefficientMode | None = None


@dataclass(frozen=True)
class ModelFile:
    system: ConstrainedSystem
    generator_sets: dict[str, GeneratorSet]
    declared_secondaries: tuple[tuple[str, PhasePolynomial], ...] | None
    declared_tertiaries: tuple[tuple[str, PhasePolynomial], ...] | None
    options: ModelOptions


def _parse_named_expressions(
    parser: configparser.ConfigParser, section: str, space: PhaseSpace
) -> tuple[tuple[str, PhasePolynomial], ...]:
    entries = []
    for name, text in parser.items(section):
        try:
            entries.append((name, parse_polynomial(text, space)))
        except DiracSymmetryError as exc:
            raise ModelFileError(f"[{section}] {name}: {exc}") from exc
    return tuple(entries)


def parse_model_text(text: str) -> ModelFile:
    if len(text) > MAX_MODEL_BYTES:
        raise ModelFileError(
            f"model text of {len(text)} characters is over the limit of "
            f"{MAX_MODEL_BYTES}"
        )
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        strict=True,
        interpolation=None,
    )
    parser.optionxform = str  # constraint and generator names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ModelFileError(f"model file syntax error: {exc}") from exc

    known = {"system", "primaries", "secondaries", "tertiaries", "options"}
    for section in parser.sections():
        if section not in known and not section.startswith("generators."):
            raise ModelFileError(f"unknown section [{section}]")
    if not parser.has_section("system"):
        raise ModelFileError("missing [system] section")

    system_keys = set(parser.options("system"))
    unknown = system_keys - _SYSTEM_KEYS
    if unknown:
        raise ModelFileError(f"unknown [system] keys: {sorted(unknown)}")
    for required in ("n_dof", "hamiltonian"):
        if required not in system_keys:
            raise ModelFileError(f"[system] is missing the {required} key")

    try:
        n_dof = int(parser.get("system", "n_dof"))
    except ValueError as exc:
        raise ModelFileError(f"[system] n_dof must be an integer: {exc}") from exc
    if parser.has_option("system", "parameters"):
        raw = parser.get("system", "parameters").replace(",", " ").split()
        if "E" not in raw:
            raise ModelFileError("[system] parameters must include the energy symbol E")
        parameters = tuple(raw)
    else:
        parameters = ("E",)
    try:
        space = PhaseSpace(n_dof, parameters)
    except ValueError as exc:
        raise ModelFileError(f"[system]: {exc}") from exc

    try:
        h_d = parse_polynomial(parser.get("system", "hamiltonian"), space)
    except DiracSymmetryError as exc:
        raise ModelFileError(f"[system] hamiltonian: {exc}") from exc

    primaries: tuple[tuple[str, PhasePolynomial], ...] = ()
    if parser.has_section("primaries"):
        primaries = _parse_named_expressions(parser, "primaries", space)
    try:
        system = ConstrainedSystem(
            space,
            h_d,
            tuple(poly for _, poly in primaries),
            tuple(name for name, _ in primaries),
        )
    except ValueError as exc:
        raise ModelFileError(f"[primaries]: {exc}") from exc

    declared_secondaries, declared_tertiaries = (
        _parse_named_expressions(parser, section, space)
        if parser.has_section(section)
        else None
        for section in ("secondaries", "tertiaries")
    )

    generator_sets: dict[str, GeneratorSet] = {}
    for section in parser.sections():
        if not section.startswith("generators."):
            continue
        set_name = section[len("generators.") :]
        if not set_name:
            raise ModelFileError("generator set name must be nonempty")
        entries = _parse_named_expressions(parser, section, space)
        if not entries:
            raise ModelFileError(f"[{section}] declares no generators")
        try:
            generator_sets[set_name] = GeneratorSet(
                tuple(name for name, _ in entries),
                tuple(poly for _, poly in entries),
            )
        except ValueError as exc:
            raise ModelFileError(f"[{section}]: {exc}") from exc

    options = ModelOptions()
    if parser.has_section("options"):
        keys = set(parser.options("options"))
        unknown = keys - _OPTION_KEYS
        if unknown:
            raise ModelFileError(f"unknown [options] keys: {sorted(unknown)}")
        degree_bound = None
        if "degree_bound" in keys:
            try:
                degree_bound = int(parser.get("options", "degree_bound"))
            except ValueError as exc:
                raise ModelFileError(
                    f"[options] degree_bound must be an integer: {exc}"
                ) from exc
            if degree_bound < 0:
                raise ModelFileError("[options] degree_bound must be >= 0")
        on_shell_energy = None
        if "on_shell_energy" in keys:
            raw = parser.get("options", "on_shell_energy")
            if raw not in ("true", "false"):
                raise ModelFileError(
                    f"[options] on_shell_energy must be true or false, got {raw!r}"
                )
            on_shell_energy = raw == "true"
        coefficient_mode = None
        if "coefficient_mode" in keys:
            raw = parser.get("options", "coefficient_mode")
            try:
                coefficient_mode = CoefficientMode(raw)
            except ValueError as exc:
                raise ModelFileError(
                    f"[options] coefficient_mode must be constant or polynomial, "
                    f"got {raw!r}"
                ) from exc
        options = ModelOptions(degree_bound, on_shell_energy, coefficient_mode)

    return ModelFile(
        system=system,
        generator_sets=generator_sets,
        declared_secondaries=declared_secondaries,
        declared_tertiaries=declared_tertiaries,
        options=options,
    )


def load_model_file(path: str | Path) -> ModelFile:
    # Read at most one byte past the cap, so an oversized file is never read
    # whole.  A first read of 64 KiB serves every ordinary model without
    # allocating a buffer the size of the cap.
    limit = MAX_MODEL_BYTES + 1
    try:
        with open(path, "rb") as handle:
            data = handle.read(min(limit, 1 << 16))
            if len(data) == 1 << 16:
                data += handle.read(limit - len(data))
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if len(data) > MAX_MODEL_BYTES:
        raise ModelFileError(
            f"model file {path} is larger than {MAX_MODEL_BYTES} bytes"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"model file {path} is not UTF-8 text: {exc}") from exc
    # Universal newlines, as text-mode reading would give.
    return parse_model_text(text.replace("\r\n", "\n").replace("\r", "\n"))
