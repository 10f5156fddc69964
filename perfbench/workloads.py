"""Seeded operation lists of the four workloads.

An operation is one call into a public function of ``dirac_symmetry``.  It
looks the function up on its module at call time, so that the traced run's
wrappers see it.  Every operation carries the check that judges its output;
checks run after the timed batch, against ``oracles.Oracle``.

- ``cli_models``: ``cli.main`` on every command x shipped model x format x
  declared generator set (64 invocations); the seed shuffles their order.
- ``gauge_sweep``: the library calls ``classify`` is built from, on
  ``em_modes(n)`` for n = 2..4, with seeded rescaling and ordering of the
  primaries and of the gauge generators; closure runs on three orderings.
- ``membership_negative``: ``decompose`` on seeded targets outside the
  on-shell ideal of ``em_modes(n)``, at explicit degree bounds.
- ``membership_positive``: ``decompose`` on seeded targets sum_k f_k g_k over
  the same ideals, with deg f_k <= d, searched with bound d.

Each call of a builder returns one batch; a run builds every batch it times
from one seeded generator, so batches after the first get fresh inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


class WrongAnswer(Exception):
    """An operation returned an output that disagrees with the oracle."""


@dataclass(frozen=True)
class Operation:
    label: str
    call: Callable[[], Any]
    # check(output, outputs of the same round by label, oracle); raises WrongAnswer
    check: Callable[[Any, dict, Any], None]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ----------------------------------------------------------------------
# cli_models
# ----------------------------------------------------------------------
COMMANDS = ("chain", "total-hamiltonian", "first-class")
SET_COMMANDS = ("check-symmetry", "structure-constants")
FORMATS = ("text", "structured")

# Analytic answers of the shipped models: chain counts, and for each declared
# generator set the verdict and the Lie algebra it closes into.
CLI_MODELS = {
    "three_level_chain": (
        (1, 1, 1),
        {"good": ("DynamicalSymmetry", "abelian"), "bad": ("MixesConstraints", "abelian")},
    ),
    "central_oscillator": ((0, 0, 0), {"rotations": ("StrictSymmetry", "so3")}),
    **{
        f"em_modes_{n}": ((n, n, 0), {"gauge": ("DynamicalSymmetry", "abelian")})
        for n in (1, 2, 3, 5)
    },
}
PASSING_VERDICTS = ("StrictSymmetry", "DynamicalSymmetry")


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str


def _cli_call(ds, argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ds.cli.main(argv)
        return CliResult(code, out.getvalue())

    return call


def _text_facts(command: str, text: str) -> dict:
    """The verdict-bearing lines of a text report."""
    if command == "chain":
        m = re.search(r"^counts: N_p=(\d+), N_s=(\d+), N_t=(\d+)$", text, re.M)
        return {"counts": tuple(int(g) for g in m.groups()) if m else None}
    if command == "total-hamiltonian":
        m = re.search(r"^H_tot: (.*)$", text, re.M)
        return {"h_tot": m.group(1) if m else None}
    if command == "first-class":
        m = re.search(r"^all pairs first class: (yes|no)$", text, re.M)
        return {"all_first_class": m.group(1) == "yes" if m else None}
    entries = sorted(
        (k, i, j, Fraction(v))
        for k, i, j, v in re.findall(r"^  C\[(\w+)\]\[(\w+)\]\[(\w+)\] = (\S+)$", text, re.M)
    )
    if command == "structure-constants":
        m = re.search(r"^closed: (yes|no)", text, re.M)
        return {"closed": m.group(1) == "yes" if m else None, "entries": entries}
    overall = re.search(r"^overall: (\S+)$", text, re.M)
    return {
        "overall": overall.group(1) if overall else None,
        "classes": re.findall(r"^  class: (\S+)$", text, re.M),
        "entries": entries,
    }


def _json_facts(command: str, report: dict) -> dict:
    if command == "chain":
        c = report["counts"]
        return {"counts": (c["primary"], c["secondary"], c["tertiary"])}
    if command == "total-hamiltonian":
        return {"h_tot": report["h_tot"]}
    if command == "first-class":
        return {"all_first_class": report["all_first_class"]}
    closure = report["closure"]
    entries = sorted(
        (e["k"], e["i"], e["j"], Fraction(e["value"]))
        for e in closure.get("nonzero_entries", ())
    )
    if command == "structure-constants":
        return {"closed": closure["closed"], "entries": entries}
    return {
        "overall": report["overall"],
        "classes": [g["class"] for g in report["generators"]],
        "entries": entries,
    }


def _check_closure(closure: dict, algebra: str, model: str, oracle) -> None:
    expect(closure["closed"], f"{model}: generator set reported not closed")
    expect(closure["antisymmetry_ok"] and closure["jacobi_ok"], f"{model}: Lie laws reported broken")
    entries = {
        (e["k"], e["i"], e["j"]): Fraction(e["value"]) for e in closure["nonzero_entries"]
    }
    if algebra == "abelian":
        expect(closure["abelian"] and not entries, f"{model}: expected an abelian algebra")
    else:
        expect(entries == oracle.so3_constants(), f"{model}: wrong so(3) structure constants")


def _cli_check(command: str, model: str, fmt: str, set_name: str | None):
    counts, sets = CLI_MODELS[model]

    def check(result: CliResult, round_outputs: dict, oracle) -> None:
        if command == "check-symmetry":
            verdict = sets[set_name][0]
            code = 0 if verdict in PASSING_VERDICTS else 2
        else:
            code = 0
        expect(result.exit_code == code, f"exit code {result.exit_code}, expected {code}")
        label = _cli_label(command, model, "structured", set_name)
        structured = round_outputs.get(label)
        expect(structured is not None, "structured twin produced no output")
        report = json.loads(structured.stdout)
        expect(report["command"] == command, "structured report names another command")
        if fmt == "text":
            expect(
                _text_facts(command, result.stdout) == _json_facts(command, report),
                "text and structured outputs disagree",
            )
            return
        if command == "chain":
            expect(_json_facts(command, report)["counts"] == counts, "wrong chain counts")
        elif command == "total-hamiltonian":
            m = report["multipliers"]
            expect(
                (len(m["primary"]), len(m["secondary"]), len(m["tertiary"])) == counts,
                "wrong multiplier counts",
            )
            cert = report["weak_equality_certificate"]
            expect(
                cert["found"] and sorted(cert["coefficients"].values())
                == sorted(m["primary"] + m["secondary"] + m["tertiary"]),
                "weak-equality certificate is not the multipliers",
            )
        elif command == "first-class":
            n = sum(counts)
            expect(len(report["pairs"]) == n * (n - 1) // 2, "wrong number of constraint pairs")
            expect(
                report["all_first_class"] and all(p["first_class"] for p in report["pairs"]),
                "a first-class pair was reported second class",
            )
        elif command == "check-symmetry":
            verdict, algebra = sets[set_name]
            expect(report["overall"] == verdict, f"verdict {report['overall']}, expected {verdict}")
            _check_closure(report["closure"], algebra, model, oracle)
        else:
            _check_closure(report["closure"], sets[set_name][1], model, oracle)

    return check


def _cli_label(command: str, model: str, fmt: str, set_name: str | None) -> str:
    suffix = f" --set {set_name}" if set_name else ""
    return f"{command} {model}{suffix} --format={fmt}"


def build_cli_models(ds, rng: random.Random) -> list[Operation]:
    ops = []
    for model, (_, sets) in CLI_MODELS.items():
        path = str(ROOT / "models" / f"{model}.model")
        variants = [(c, None) for c in COMMANDS]
        variants += [(c, s) for c in SET_COMMANDS for s in sets]
        for command, set_name in variants:
            for fmt in FORMATS:
                argv = [command, path, f"--format={fmt}"]
                if set_name:
                    argv += ["--set", set_name]
                ops.append(
                    Operation(
                        _cli_label(command, model, fmt, set_name),
                        _cli_call(ds, argv),
                        _cli_check(command, model, fmt, set_name),
                    )
                )
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# em_modes(n) helpers
# ----------------------------------------------------------------------
def _slots(n: int) -> list[dict[str, int]]:
    """1-based q/p slot of each field of each mode, as laid out by em_modes."""
    return [
        {"a0": 4 * k + 1, "aL": 4 * k + 2, "aT1": 4 * k + 3, "aT2": 4 * k + 4}
        for k in range(n)
    ]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 3))


def _random_poly(ds, space, rng: random.Random, names: list[str], degrees: range, n_terms: int):
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(n_terms):
        exps = [0] * space.n_identifiers
        for _ in range(rng.choice(degrees)):
            exps[space.index(rng.choice(names))] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + _rational(rng)
    return ds.PhasePolynomial(space, terms)


@dataclass(frozen=True)
class OnShellIdeal:
    n: int
    space: Any
    generators: tuple  # primaries pi0_k, Gauss modes piL_k, H_d - E
    ideal_names: list[str]  # identifiers the generators use
    free_names: list[str]  # identifiers a nonzero non-member is built from


def on_shell_ideal(ds, n: int) -> OnShellIdeal:
    system = ds.em_modes(n).system
    space = system.space
    slots = _slots(n)
    gauss = tuple(ds.PhasePolynomial.variable(space, f"p{s['aL']}") for s in slots)
    energy = ds.PhasePolynomial.variable(space, "E")
    generators = tuple(system.primaries) + gauss + (system.h_d - energy,)
    # Modulo pi0_k and piL_k, H_d - E fixes E as a polynomial in the other
    # identifiers, so the quotient ring is the free polynomial ring on
    # a0_k, aT_k, piT_k: a nonzero polynomial in those alone is never a member.
    free = [f"{side}{s[f]}" for s in slots for f, side in
            (("a0", "q"), ("aT1", "q"), ("aT2", "q"), ("aT1", "p"), ("aT2", "p"))]
    ideal_names = free + [f"p{s['a0']}" for s in slots] + [f"p{s['aL']}" for s in slots] + ["E"]
    return OnShellIdeal(n, space, generators, ideal_names, free)


# ----------------------------------------------------------------------
# membership_negative / membership_positive
# ----------------------------------------------------------------------
# (n, degree bound) of each operation, cycled through the batch.  The
# identifiers a target uses are those of the generators, so an operation's
# cost is set by (n, bound) and does not depend on the seed.  Three classes
# of equal size, in rising cost, put the median inside the middle class and
# the tail inside the top one, rather than on a boundary between classes.
NEGATIVE_SCHEDULE = ((1, 4), (3, 2), (2, 3))
POSITIVE_SCHEDULE = ((1, 3), (3, 2), (2, 3))
MEMBERSHIP_OPS = 48


def build_membership_negative(ds, rng: random.Random) -> list[Operation]:
    ideals = {n: on_shell_ideal(ds, n) for n, _ in NEGATIVE_SCHEDULE}
    ops = []
    for i in range(MEMBERSHIP_OPS):
        n, bound = NEGATIVE_SCHEDULE[i % len(NEGATIVE_SCHEDULE)]
        ideal = ideals[n]
        target = _random_poly(ds, ideal.space, rng, ideal.free_names, range(1, 3), rng.randint(1, 3))
        while target.is_zero():
            target = _random_poly(ds, ideal.space, rng, ideal.free_names, range(1, 3), 2)
        for _ in range(rng.randint(1, 2)):
            multiplier = _random_poly(ds, ideal.space, rng, ideal.ideal_names, range(0, 2), 1)
            target = target + multiplier * rng.choice(ideal.generators)
        ops.append(
            Operation(
                f"decompose negative n={n} bound={bound} #{i}",
                (lambda t=target, g=ideal.generators, b=bound: ds.decompose(t, g, b)),
                _negative_check(ds, ideal, target, bound),
            )
        )
    return ops


def _negative_check(ds, ideal: OnShellIdeal, target, bound: int):
    def check(outcome, round_outputs: dict, oracle) -> None:
        expect(isinstance(outcome, ds.NotFound), "a target outside the ideal was decomposed")
        expect(outcome.degree_bound == bound, f"NotFound at bound {outcome.degree_bound}, asked {bound}")
        expect(oracle.outside_ideal(target, ideal), "oracle: target is inside the ideal")

    return check


def build_membership_positive(ds, rng: random.Random) -> list[Operation]:
    ideals = {n: on_shell_ideal(ds, n) for n, _ in POSITIVE_SCHEDULE}
    ops = []
    for i in range(MEMBERSHIP_OPS):
        n, degree = POSITIVE_SCHEDULE[i % len(POSITIVE_SCHEDULE)]
        ideal = ideals[n]
        target = ds.PhasePolynomial.zero(ideal.space)
        while target.is_zero():
            picks = rng.sample(range(len(ideal.generators)), rng.randint(1, 3))
            for j, k in enumerate(picks):
                top = range(degree, degree + 1) if j == 0 else range(0, degree + 1)
                f = _random_poly(ds, ideal.space, rng, ideal.ideal_names, top, rng.randint(1, 2))
                target = target + f * ideal.generators[k]
        ops.append(
            Operation(
                f"decompose positive n={n} degree={degree} #{i}",
                (lambda t=target, g=ideal.generators, d=degree: ds.decompose(t, g, d)),
                _positive_check(ds, target, degree),
            )
        )
    return ops


def _positive_check(ds, target, degree: int):
    def check(outcome, round_outputs: dict, oracle) -> None:
        expect(isinstance(outcome, ds.IdealDecomposition), "a member of the ideal was not decomposed")
        expect(outcome.target == target, "certificate is for another target")
        expect(oracle.reexpands(outcome.coefficients, outcome.generators, target),
               "oracle: certificate does not re-expand to the target")
        expect(oracle.max_degree(outcome.coefficients) <= degree,
               f"certificate degree exceeds the built degree {degree}")

    return check


# ----------------------------------------------------------------------
# gauge_sweep
# ----------------------------------------------------------------------
GAUGE_SWEEP_N = (2, 3, 4)
# Integer rescalings keep every bracket's coefficients integral, so the
# seed moves no operation's cost; the verdicts are invariant under them.
GAUGE_SCALES = (-2, -1, 1, 2)
# Closure runs on this many seeded orderings of each gauge set.  The closures
# are the heaviest calls; several of equal cost per n keep the batch sum and
# the tail from resting on a single sample each.
GAUGE_CLOSURES = 3


def build_gauge_sweep(ds, rng: random.Random) -> list[Operation]:
    ops: list[Operation] = []
    for n in GAUGE_SWEEP_N:
        model = ds.em_modes(n)
        base = model.system
        primaries = tuple(rng.choice(GAUGE_SCALES) * p for p in base.primaries)
        system = ds.ConstrainedSystem(base.space, base.h_d, primaries, base.primary_names)
        gauge = model.generator_sets["gauge"]
        gen_sets = []
        for _ in range(GAUGE_CLOSURES):
            order = list(range(len(gauge)))
            rng.shuffle(order)
            gen_sets.append(ds.GeneratorSet(
                tuple(gauge.names[k] for k in order),
                tuple(rng.choice(GAUGE_SCALES) * gauge.generators[k] for k in order),
            ))
        ops.extend(_gauge_ops(ds, n, system, gen_sets))
    return ops


def _gauge_ops(ds, n: int, system, gen_sets: list) -> list[Operation]:
    """Chain, first-class and per-generator calls on gen_sets[0]; closure on each set."""
    state: dict = {}
    names = gen_sets[0].names

    def run_chain():
        state["chain"] = ds.generate_chain(system)
        return state["chain"]

    def check_chain(chain, round_outputs, oracle):
        expect(chain.counts == (n, n, 0), f"chain counts {chain.counts}, expected {(n, n, 0)}")

    def check_first_class(report, round_outputs, oracle):
        pairs = 2 * n * (2 * n - 1) // 2
        expect(len(report.pairs) == pairs, "wrong number of constraint pairs")
        expect(report.all_first_class and all(p.first_class for p in report.pairs),
               "a gauge constraint pair was reported second class")

    ops = [
        Operation(f"generate_chain n={n}", run_chain, check_chain),
        Operation(f"first_class_check n={n}", lambda: ds.first_class_check(state["chain"]),
                  check_first_class),
    ]
    for name, generator in zip(names, gen_sets[0].generators):
        ops.extend(_generator_ops(ds, n, system, state, name, generator))

    def check_closure(closure, round_outputs, oracle):
        expect(isinstance(closure, ds.StructureConstants), "gauge set reported not closed")
        expect(all(not c for plane in closure.tensor for row in plane for c in row),
               "gauge structure constants are not all zero")
        classes = [round_outputs[f"{_gen_label(n, g)} commutation"][0] for g in names]
        levels = [round_outputs[f"{_gen_label(n, g)} level"] for g in names]
        # The classification rule: weakest per-generator class, where a
        # level-preserving on-shell generator is a dynamical symmetry.
        strength = {"strict": 1, "on-shell": 0}
        expect(all(r.level_preserving for r in levels), "a gauge generator mixes levels")
        overall = min(strength.get(c.value, -1) for c in classes)
        expect(overall == 0, "overall verdict is not DynamicalSymmetry")

    for k, gen_set in enumerate(gen_sets):
        ops.append(Operation(f"closure n={n} #{k}",
                             lambda g=gen_set: ds.closure_and_structure_constants(g),
                             check_closure))
    return ops


def _gen_label(n: int, name: str) -> str:
    return f"n={n} {name}"


def _generator_ops(ds, n: int, system, state: dict, name: str, generator) -> list[Operation]:
    label = _gen_label(n, name)

    def commutation():
        return ds.check_dynamical_symmetry(generator, system, state["chain"])

    def check_commutation(result, round_outputs, oracle):
        klass, bracket, certificate = result
        expected_bracket = oracle.bracket(generator, system.h_d)
        expect(oracle.same(bracket, expected_bracket), "{A, H_d} differs from the oracle's")
        expected = "strict" if expected_bracket == 0 else "on-shell"
        expect(klass.value == expected, f"commutation {klass.value}, expected {expected}")
        expect(isinstance(certificate, ds.IdealDecomposition), "no on-shell certificate")
        expect(oracle.reexpands(certificate.coefficients, certificate.generators, expected_bracket),
               "oracle: on-shell certificate does not re-expand to {A, H_d}")

    def level():
        report = ds.check_level_preservation(generator, state["chain"])
        state[name] = report
        return report

    def check_level(report, round_outputs, oracle):
        expect(report.level_preserving and not report.mixing and not report.escapes,
               "a gauge generator does not preserve the constraint levels")

    def counts():
        return ds.check_counts(state["chain"], state[name])

    def check_counts(report, round_outputs, oracle):
        expect(report.applicable and report.counts_preserved, "counts reported not preserved")

    return [
        Operation(f"{label} commutation", commutation, check_commutation),
        Operation(f"{label} level", level, check_level),
        Operation(f"{label} counts", counts, check_counts),
    ]


WORKLOADS = {
    "cli_models": build_cli_models,
    "gauge_sweep": build_gauge_sweep,
    "membership_negative": build_membership_negative,
    "membership_positive": build_membership_positive,
}
