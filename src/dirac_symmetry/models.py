"""Ready-made constrained systems exercising every checker.

Each model ships with an ``expected`` block (chain shape and verdicts) that
the test suite verifies by running the full pipeline, and can be exported to
the CLI's model-file format so the command line can re-ingest its own
library.
"""

from __future__ import annotations

import io
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .chain import ConstrainedSystem
from .phase import PhasePolynomial, PhaseSpace
from .symmetry import GeneratorSet, VerdictClass


class ExpectedBehavior(NamedTuple):
    """Pinned pipeline outcomes used by the self-test suite."""

    counts: tuple[int, int, int]
    ordering_ok: bool
    first_class: bool
    verdicts: Mapping[str, VerdictClass]
    abelian_sets: tuple[str, ...] = ()


class ModelDescriptor(NamedTuple):
    name: str
    system: ConstrainedSystem
    generator_sets: Mapping[str, GeneratorSet]
    expected: ExpectedBehavior
    # one shared empty default, which no one can write to
    variable_legend: Mapping[str, str] = MappingProxyType({})


def _q(space: PhaseSpace, i: int) -> PhasePolynomial:
    return PhasePolynomial.variable(space, f"q{i}")


def _p(space: PhaseSpace, i: int) -> PhasePolynomial:
    return PhasePolynomial.variable(space, f"p{i}")


def three_level_chain() -> ModelDescriptor:
    """Minimal system whose hierarchy fills all three levels.

    H_d = q1*p2 + q2*p3 with primary p1 cascades p1 -> p2 -> p3; the bracket
    of p3 with H_d vanishes identically, closing the chain.  The "good"
    generator q1*p1 acts inside each level, the "bad" generator q2*p1 sends
    the secondary into the primary span.
    """
    space = PhaseSpace(3)
    h_d = _q(space, 1) * _p(space, 2) + _q(space, 2) * _p(space, 3)
    system = ConstrainedSystem(space, h_d, (_p(space, 1),), ("P1",))
    gen_sets = {
        "good": GeneratorSet(("D1",), (_q(space, 1) * _p(space, 1),)),
        "bad": GeneratorSet(("B1",), (_q(space, 2) * _p(space, 1),)),
    }
    expected = ExpectedBehavior(
        counts=(1, 1, 1),
        ordering_ok=True,
        first_class=True,
        verdicts={
            "good": VerdictClass.DYNAMICAL_SYMMETRY,
            "bad": VerdictClass.MIXES_CONSTRAINTS,
        },
        abelian_sets=("good",),
    )
    return ModelDescriptor("three_level_chain", system, gen_sets, expected)


def central_oscillator() -> ModelDescriptor:
    """Isotropic three-dimensional oscillator with the angular-momentum triple.

    No constraints; every rotation generator commutes with H_d identically,
    and the set closes with the alternating so(3) pattern.
    """
    space = PhaseSpace(3)
    half = Fraction(1, 2)
    h_d = PhasePolynomial.zero(space)
    for i in range(1, 4):
        h_d = h_d + half * (_p(space, i) ** 2) + half * (_q(space, i) ** 2)
    l_x = _q(space, 2) * _p(space, 3) - _q(space, 3) * _p(space, 2)
    l_y = _q(space, 3) * _p(space, 1) - _q(space, 1) * _p(space, 3)
    l_z = _q(space, 1) * _p(space, 2) - _q(space, 2) * _p(space, 1)
    system = ConstrainedSystem(space, h_d, (), ())
    gen_sets = {"rotations": GeneratorSet(("Lx", "Ly", "Lz"), (l_x, l_y, l_z))}
    expected = ExpectedBehavior(
        counts=(0, 0, 0),
        ordering_ok=True,
        first_class=True,
        verdicts={"rotations": VerdictClass.STRICT_SYMMETRY},
    )
    return ModelDescriptor("central_oscillator", system, gen_sets, expected)


def em_modes(n: int) -> ModelDescriptor:
    """Mode-truncated free electromagnetic field with n integer wave numbers.

    Mode k occupies four canonical pairs: the scalar-potential pair
    (a0_k, pi0_k), the longitudinal pair (aL_k, piL_k) and two transverse
    pairs (aT1_k, piT1_k), (aT2_k, piT2_k), laid out consecutively on the
    q/p slots.  The Hamiltonian

        H_d = sum_k [ (piL_k^2 + piT1_k^2 + piT2_k^2)/2
                      + k^2 (aT1_k^2 + aT2_k^2)/2 + k a0_k piL_k ]

    has the pi0_k as primaries; their brackets produce the Gauss modes
    {pi0_k, H_d} = -k piL_k and nothing further, so the chain stops at n
    secondaries.  The gauge set (all pi0_k and Gauss modes) is abelian and
    commutes with H_d on shell.
    """
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    space = PhaseSpace(4 * n)
    legend: dict[str, str] = {}
    h_d = PhasePolynomial.zero(space)
    half = Fraction(1, 2)
    primaries = []
    primary_names = []
    gauss = []
    gauss_names = []
    for k in range(1, n + 1):
        base = 4 * (k - 1)
        slot = {
            "a0": base + 1,
            "aL": base + 2,
            "aT1": base + 3,
            "aT2": base + 4,
        }
        for label, idx in slot.items():
            legend[f"q{idx}"] = f"{label}_{k}"
            legend[f"p{idx}"] = f"pi{label[1:]}_{k}"
        pi_l = _p(space, slot["aL"])
        h_d = (
            h_d
            + half * (pi_l ** 2)
            + half * (_p(space, slot["aT1"]) ** 2)
            + half * (_p(space, slot["aT2"]) ** 2)
            + Fraction(k * k, 2) * (_q(space, slot["aT1"]) ** 2)
            + Fraction(k * k, 2) * (_q(space, slot["aT2"]) ** 2)
            + k * _q(space, slot["a0"]) * pi_l
        )
        primaries.append(_p(space, slot["a0"]))
        primary_names.append(f"Pi0_{k}")
        gauss.append(pi_l)
        gauss_names.append(f"G_{k}")
    system = ConstrainedSystem(space, h_d, tuple(primaries), tuple(primary_names))
    gen_sets = {
        "gauge": GeneratorSet(
            tuple(primary_names) + tuple(gauss_names),
            tuple(primaries) + tuple(gauss),
        )
    }
    expected = ExpectedBehavior(
        counts=(n, n, 0),
        ordering_ok=True,
        first_class=True,
        verdicts={"gauge": VerdictClass.DYNAMICAL_SYMMETRY},
        abelian_sets=("gauge",),
    )
    return ModelDescriptor(f"em_modes_{n}", system, gen_sets, expected, legend)


SHIPPED_MODELS: dict[str, Callable[[], ModelDescriptor]] = {
    "three_level_chain": three_level_chain,
    "central_oscillator": central_oscillator,
    "em_modes_1": lambda: em_modes(1),
    "em_modes_2": lambda: em_modes(2),
    "em_modes_3": lambda: em_modes(3),
    "em_modes_5": lambda: em_modes(5),
}


def export_model_file(model: ModelDescriptor) -> str:
    """Render a model as CLI input text; byte-deterministic."""
    out = io.StringIO()
    out.write(f"# model: {model.name}\n")
    for ident in sorted(model.variable_legend, key=lambda s: (s[0], int(s[1:]))):
        out.write(f"# {ident} = {model.variable_legend[ident]}\n")
    space = model.system.space
    out.write("\n[system]\n")
    out.write(f"n_dof = {space.n_dof}\n")
    out.write(f"parameters = {', '.join(space.parameters)}\n")
    out.write(f"hamiltonian = {model.system.h_d}\n")
    out.write("\n[primaries]\n")
    for name, poly in zip(model.system.primary_names, model.system.primaries):
        out.write(f"{name} = {poly}\n")
    for set_name in model.generator_sets:
        gen_set = model.generator_sets[set_name]
        out.write(f"\n[generators.{set_name}]\n")
        for name, poly in zip(gen_set.names, gen_set.generators):
            out.write(f"{name} = {poly}\n")
    return out.getvalue()
