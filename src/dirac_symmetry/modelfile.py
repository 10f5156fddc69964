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
Every sum a model stores (the Hamiltonian, the primaries, the declared
levels and the generators) is charged its terms times the space's
identifiers, one exponent entry each, against one budget for the whole
model, ``phase.MAX_TERM_ENTRIES``.  The parser is handed what the earlier
sums left and holds a sum to it as it reads it, counting every distinct
monomial read, cancelled ones included, so the sum that passes the budget
is refused before it is built whole.

Lines are read in one pass, split at ``\n`` only:

- ``#`` starts a comment at the start of a line, or after whitespace
  (``a#b`` is not a comment); a comment runs to the end of the line.
- A line holding only ``[name]`` opens a section.  The name is the text
  between the first ``[`` and the last ``]``, kept as written, and must not
  be empty.
- Any other line is ``name = value``: the name is the text before the first
  ``=`` and the value the text after it, both stripped of surrounding
  whitespace.  Names are case-sensitive.
- A line indented deeper than the line of its key continues the value; the
  lines are joined with ``\n``.  Blank lines inside a value are kept, lines
  holding only a comment are skipped, and trailing blank lines are dropped.
- A repeated section, a repeated name within a section, a line outside
  every section, a line with no ``=`` or with an empty name is a syntax
  error naming its line number.

These are the rules ``configparser`` followed with ``=`` as the only
delimiter and ``#`` as comment prefix, with two differences kept on purpose:
``[DEFAULT]`` is an ordinary (and so unknown) section whose keys do not leak
into every other section, and a header with text after its ``]``, such as
``[system] trailing``, is a syntax error rather than read as ``[system]``.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from . import phase
from .chain import ConstrainedSystem
from .errors import DiracSymmetryError, ModelFileError
from .expressions import parse_polynomial
from .membership import CoefficientMode
from .phase import PhasePolynomial, PhaseSpace
from .symmetry import GeneratorSet

_SYSTEM_KEYS = {"n_dof", "parameters", "hamiltonian"}

# Largest model file accepted: 1 MiB.  A file just under it, a Hamiltonian
# of 75689 terms, loads in about 0.5 s of CPU (Python 3.11 on a 2-vCPU Xeon
# VM); the shipped models hold at most 1.2 KB.
MAX_MODEL_BYTES = 1 << 20


class ModelOptions(NamedTuple):
    """Per-file defaults; None means "not set" (CLI flags or built-ins apply)."""

    degree_bound: int | None = None
    on_shell_energy: bool | None = None
    coefficient_mode: CoefficientMode | None = None


class Setting(NamedTuple):
    """A run setting: its ``[options]`` key (a ``ModelOptions`` field, and
    the flag's argparse dest), its flag, the value of each text it accepts
    in their documented order (None: an integer >= 0), its built-in default
    and its flag's help."""

    key: str
    flag: str
    values: dict[str, object] | None
    default: object
    help: str

    def read(self, raw: str):
        """The value of the ``[options]`` entry `raw`."""
        if self.values is None:
            try:
                value = int(raw)
            except ValueError as exc:
                raise ModelFileError(f"[options] {self.key} must be an integer: {exc}") from exc
            if value < 0:
                raise ModelFileError(f"[options] {self.key} must be >= 0")
            return value
        if raw in self.values:
            return self.values[raw]
        choices = " or ".join(self.values)
        raise ModelFileError(f"[options] {self.key} must be {choices}, got {raw!r}")


# The run settings, in the order the commands take their values.  A run takes
# each from its flag, else from the model's ``[options]``, else its default; a
# None degree bound lets every search take ``membership.default_degree_bound``.
SETTINGS = (
    Setting("degree_bound", "--degree-bound", None, None,
            "cap on coefficient-polynomial degree in membership searches"),
    Setting("on_shell_energy", "--on-shell-energy", {"true": True, "false": False}, True,
            "include the on-shell generator H_d - E in the ideal"),
    Setting("coefficient_mode", "--coefficients",
            {mode.value: mode for mode in CoefficientMode}, CoefficientMode.POLYNOMIAL,
            "coefficient class for level-preservation decompositions"),
)


class ModelFile(NamedTuple):
    system: ConstrainedSystem
    generator_sets: dict[str, GeneratorSet]
    declared_secondaries: tuple[tuple[str, PhasePolynomial], ...] | None
    declared_tertiaries: tuple[tuple[str, PhasePolynomial], ...] | None
    options: ModelOptions


def _syntax_error(lineno: int, message: str) -> ModelFileError:
    return ModelFileError(f"model file syntax error: line {lineno}: {message}")


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """Each section's ``name = value`` entries, both in file order."""
    sections: dict[str, dict[str, list[str]]] = {}
    entries = None  # the open section's entries
    value = None  # the lines of the section's last value
    key_indent = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        comment = line.find("#")
        while comment > 0 and not line[comment - 1].isspace():
            comment = line.find("#", comment + 1)
        content = (line if comment < 0 else line[:comment]).strip()
        if not content:
            if comment < 0 and value is not None:
                value.append("")
            continue
        indent = len(line) - len(line.lstrip())
        if value is not None and indent > key_indent:
            value.append(content)
            continue
        key_indent = indent
        if content[0] == "[" and (close := content.rfind("]")) > 1:
            if close != len(content) - 1:
                raise _syntax_error(lineno, "text after the ']' of a section header")
            name = content[1:close]
            if name in sections:
                raise _syntax_error(lineno, f"section [{name}] appears twice")
            entries = sections[name] = {}
            value = None
            continue
        if entries is None:
            raise _syntax_error(lineno, "entry before the first [section] header")
        key, equals, rest = content.partition("=")
        key = key.rstrip()
        if not equals or not key:
            raise _syntax_error(lineno, "expected a 'name = value' line")
        if key in entries:
            raise _syntax_error(lineno, f"key {key!r} appears twice in [{name}]")
        value = entries[key] = [rest.lstrip()]
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in entries.items()}
        for name, entries in sections.items()
    }


def parse_model_text(text: str) -> ModelFile:
    if len(text) > MAX_MODEL_BYTES:
        raise ModelFileError(
            f"model text of {len(text)} characters is over the limit of "
            f"{MAX_MODEL_BYTES}"
        )
    sections = _read_sections(text)

    known = {"system", "primaries", "secondaries", "tertiaries", "options"}
    for section in sections:
        if section not in known and not section.startswith("generators."):
            raise ModelFileError(f"unknown section [{section}]")
    if "system" not in sections:
        raise ModelFileError("missing [system] section")

    settings = sections["system"]
    unknown = settings.keys() - _SYSTEM_KEYS
    if unknown:
        raise ModelFileError(f"unknown [system] keys: {sorted(unknown)}")
    for required in ("n_dof", "hamiltonian"):
        if required not in settings:
            raise ModelFileError(f"[system] is missing the {required} key")

    try:
        n_dof = int(settings["n_dof"])
    except ValueError as exc:
        raise ModelFileError(f"[system] n_dof must be an integer: {exc}") from exc
    if "parameters" in settings:
        raw = settings["parameters"].replace(",", " ").split()
        if "E" not in raw:
            raise ModelFileError("[system] parameters must include the energy symbol E")
        parameters = tuple(raw)
    else:
        parameters = ("E",)
    try:
        space = PhaseSpace(n_dof, parameters)
    except ValueError as exc:
        raise ModelFileError(f"[system]: {exc}") from exc

    left = phase.MAX_TERM_ENTRIES  # exponent entries the sums to come may store

    def parse(section: str, name: str, text: str) -> PhasePolynomial:
        nonlocal left
        try:
            poly = parse_polynomial(text, space, left)
        except DiracSymmetryError as exc:
            raise ModelFileError(f"[{section}] {name}: {exc}") from exc
        left -= len(poly.terms) * space.n_identifiers
        return poly

    def named(section: str) -> tuple[tuple[str, PhasePolynomial], ...]:
        return tuple(
            (name, parse(section, name, text)) for name, text in sections[section].items()
        )

    h_d = parse("system", "hamiltonian", settings["hamiltonian"])
    primaries = named("primaries") if "primaries" in sections else ()
    system = ConstrainedSystem(
        space,
        h_d,
        tuple(poly for _, poly in primaries),
        tuple(name for name, _ in primaries),
    )

    declared_secondaries, declared_tertiaries = (
        named(section) if section in sections else None
        for section in ("secondaries", "tertiaries")
    )

    generator_sets: dict[str, GeneratorSet] = {}
    for section in sections:
        if not section.startswith("generators."):
            continue
        set_name = section[len("generators.") :]
        if not set_name:
            raise ModelFileError("generator set name must be nonempty")
        generators = named(section)
        if not generators:
            raise ModelFileError(f"[{section}] declares no generators")
        try:
            generator_sets[set_name] = GeneratorSet(
                tuple(name for name, _ in generators),
                tuple(poly for _, poly in generators),
            )
        except ValueError as exc:
            raise ModelFileError(f"[{section}]: {exc}") from exc

    options = ModelOptions()
    if "options" in sections:
        settings = sections["options"]
        unknown = settings.keys() - {setting.key for setting in SETTINGS}
        if unknown:
            raise ModelFileError(f"unknown [options] keys: {sorted(unknown)}")
        options = ModelOptions(**{
            setting.key: setting.read(settings[setting.key])
            for setting in SETTINGS
            if setting.key in settings
        })

    return ModelFile(
        system=system,
        generator_sets=generator_sets,
        declared_secondaries=declared_secondaries,
        declared_tertiaries=declared_tertiaries,
        options=options,
    )


def load_model_file(path: str | os.PathLike[str]) -> ModelFile:
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
    except UnicodeEncodeError as exc:  # a lone surrogate, which no file name holds
        # The message escapes the character, so any stderr can print it.
        raise ModelFileError(f"model file name is not valid text: {exc}") from exc
    except ValueError as exc:  # a NUL character, which no path holds
        raise ModelFileError(f"model file name is not a valid path: {exc}") from exc
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
