"""Acceptance gate: one test per criterion, each printing a pass line.

Everything here is exact rational arithmetic; "tolerance" always means
exact equality, and runtime limits are asserted where stated.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from dirac_symmetry import (
    CommutationClass,
    GeneratorSet,
    PhasePolynomial,
    PhaseSpace,
    StructureConstants,
    VerdictClass,
    SHIPPED_MODELS,
    central_oscillator,
    check_dynamical_symmetry,
    check_level_preservation,
    classify,
    decompose,
    em_modes,
    export_model_file,
    first_class_check,
    generate_chain,
    parse_model_text,
    parse_polynomial,
    poisson,
    recombine_level,
    three_level_chain,
)
from dirac_symmetry.chain import LEVELS
from dirac_symmetry.cli import main as cli_main
from dirac_symmetry.membership import IdealDecomposition

from conftest import poly, random_polynomial

F = Fraction
MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


def report_pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def test_criterion_01_bracket_laws_randomized():
    rng = random.Random(0xD1AC)
    start = time.perf_counter()
    triples = 0
    while triples < 1000:
        space = PhaseSpace(rng.randint(1, 3))
        f = random_polynomial(rng, space, max_terms=3, max_degree=4)
        g = random_polynomial(rng, space, max_terms=3, max_degree=4)
        h = random_polynomial(rng, space, max_terms=3, max_degree=4)
        r = F(rng.randint(-9, 9))
        fg = poisson(f, g)
        fh = poisson(f, h)
        gh = poisson(g, h)
        assert fg == -poisson(g, f)
        assert poisson(f + g, h) == fh + gh
        assert poisson(f.scale(r), h) == fh.scale(r)
        assert poisson(f, g * h) == g * fh + fg * h
        jacobi = (
            poisson(f, gh) + poisson(g, poisson(h, f)) + poisson(h, fg)
        )
        assert jacobi.is_zero()
        triples += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"bracket laws took {elapsed:.1f}s"
    report_pass(
        1,
        f"antisymmetry, bilinearity, Leibniz, Jacobi exact on {triples} "
        f"random triples in {elapsed:.1f}s",
    )


def test_criterion_02_canonical_relations():
    space = PhaseSpace(4)
    for i in range(1, 5):
        for j in range(1, 5):
            qi = parse_polynomial(f"q{i}", space)
            qj = parse_polynomial(f"q{j}", space)
            pi = parse_polynomial(f"p{i}", space)
            pj = parse_polynomial(f"p{j}", space)
            delta = PhasePolynomial.constant(space, 1 if i == j else 0)
            assert poisson(qi, pj) == delta
            assert poisson(qi, qj).is_zero()
            assert poisson(pi, pj).is_zero()
    report_pass(2, "canonical relations {q_i, p_j} = delta_ij exact for i, j <= 4")


def test_criterion_03_membership_roundtrip_randomized():
    rng = random.Random(0x5EED)
    instances = 0
    while instances < 500:
        space = PhaseSpace(rng.randint(1, 2))
        generators = [
            random_polynomial(rng, space, max_terms=2, max_degree=2)
            for _ in range(rng.randint(1, 3))
        ]
        generators = [g for g in generators if not g.is_zero()]
        if not generators:
            continue
        target = PhasePolynomial.zero(space)
        for g in generators:
            coefficient = random_polynomial(
                rng, space, max_terms=2, max_degree=3, allow_parameters=True
            )
            target = target + coefficient * g
        outcome = decompose(target, generators, degree_bound=3)
        assert isinstance(outcome, IdealDecomposition)
        assert outcome.expand() == target
        assert all(c.total_degree() <= 3 for c in outcome.coefficients)
        instances += 1
    report_pass(
        3,
        f"{instances} constructed memberships recovered with exactly "
        f"re-expanding certificates",
    )


def test_criterion_04_three_level_chain_values():
    start = time.perf_counter()
    model = three_level_chain()
    chain = generate_chain(model.system)
    elapsed = time.perf_counter() - start
    assert chain.counts == (1, 1, 1)
    assert chain.table(0, 1, 2)[0][0].constant_value() == F(-1)
    assert chain.table(1, 2, 3)[0][0].constant_value() == F(-1)
    assert chain.brackets[2][0].is_zero()
    assert chain.ordering_ok
    assert elapsed < 1.0, f"chain generation took {elapsed:.3f}s"
    report_pass(
        4,
        f"cascade chain has counts (1, 1, 1), both coefficients -1 and an "
        f"identically zero tertiary bracket in {elapsed * 1000:.0f}ms",
    )


def test_criterion_05_em_modes_scaling():
    timings = {}
    for n in range(1, 6):
        start = time.perf_counter()
        model = em_modes(n)
        chain = generate_chain(model.system)
        assert chain.counts == (n, n, 0)
        fc = first_class_check(chain, include_energy=True)
        assert fc.all_first_class
        verdict = classify(model.generator_sets["gauge"], model.system, chain)
        assert verdict.overall is VerdictClass.DYNAMICAL_SYMMETRY
        assert isinstance(verdict.closure, StructureConstants)
        assert verdict.closure.is_abelian()
        timings[n] = time.perf_counter() - start
    assert timings[5] < 10.0, f"n=5 pipeline took {timings[5]:.1f}s"
    report_pass(
        5,
        f"mode truncations 1..5 give n secondaries, zero tertiaries, first-class "
        f"constraints and an abelian dynamical gauge symmetry (n=5 in "
        f"{timings[5]:.2f}s)",
    )


def test_criterion_06_so3_recovery():
    model = central_oscillator()
    chain = generate_chain(model.system)
    verdict = classify(model.generator_sets["rotations"], model.system, chain)
    assert verdict.overall is VerdictClass.STRICT_SYMMETRY
    constants = verdict.closure
    assert isinstance(constants, StructureConstants)
    assert constants.antisymmetry_ok()
    assert constants.jacobi_ok()
    plus = {(1, 2, 0), (2, 0, 1), (0, 1, 2)}  # cyclic (i, j, k)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                expected = (
                    F(1) if (i, j, k) in plus
                    else F(-1) if (j, i, k) in plus
                    else F(0)
                )
                assert constants.tensor[k][i][j] == expected
    report_pass(
        6,
        "angular-momentum triple is a strict symmetry with the alternating "
        "structure-constant pattern",
    )


def test_criterion_07_on_shell_but_not_strict():
    model = em_modes(1)
    chain = generate_chain(model.system)
    constraint = chain.levels[0][0]
    generator = constraint * poly("q3", chain.space)  # constraint * polynomial
    commutation, bracket, certificate = check_dynamical_symmetry(
        generator, model.system, chain
    )
    assert commutation is CommutationClass.ON_SHELL
    assert not bracket.is_zero()
    assert isinstance(certificate, IdealDecomposition)
    assert certificate.expand() == bracket
    report_pass(
        7,
        "constraint-times-polynomial generator commutes on shell but not "
        "identically, separating the two symmetry definitions",
    )


def test_criterion_08_mixing_detection():
    model = three_level_chain()
    chain = generate_chain(model.system)
    verdict = classify(model.generator_sets["bad"], model.system, chain)
    assert verdict.overall is VerdictClass.MIXES_CONSTRAINTS
    findings = verdict.generator_verdicts[0].level_report.mixing
    assert any(
        finding.source_level == "secondary" and finding.target_level == "primary"
        for finding in findings
    )
    named = findings[0]
    assert (named.source_name, named.target_name) == ("S1", "P1")
    good = check_level_preservation(poly("q1*p1", chain.space), chain)
    assert good.level_preserving
    report_pass(
        8,
        "q2*p1 rejected as MixesConstraints with the secondary->primary pair "
        "named; q1*p1 passes level preservation",
    )


def test_criterion_09_verdict_invariances():
    matrix_cache = {
        1: [[F(5, 3)]],
        2: [[F(1), F(1)], [F(0), F(1)]],
        3: [[F(1), F(1), F(0)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]],
        5: [
            [F(1) if c == r else (F(2) if c == r + 1 else F(0)) for c in range(5)]
            for r in range(5)
        ],
    }
    for name in sorted(SHIPPED_MODELS):
        model = SHIPPED_MODELS[name]()
        chain = generate_chain(model.system)
        base = {
            set_name: classify(gen_set, model.system, chain)
            for set_name, gen_set in model.generator_sets.items()
        }
        for set_name, gen_set in model.generator_sets.items():
            for idx in range(len(gen_set)):
                scaled = GeneratorSet(
                    gen_set.names,
                    tuple(
                        g.scale(F(-7, 2)) if pos == idx else g
                        for pos, g in enumerate(gen_set.generators)
                    ),
                )
                verdict = classify(scaled, model.system, chain)
                assert verdict.overall is base[set_name].overall, (name, set_name)
        for level, polys in zip(LEVELS, chain.levels):
            size = len(polys)
            if size == 0:
                continue
            recombined = recombine_level(chain, level, matrix_cache[size])
            for set_name, gen_set in model.generator_sets.items():
                verdict = classify(gen_set, model.system, recombined)
                assert verdict.overall is base[set_name].overall, (
                    name,
                    set_name,
                    level,
                )
    report_pass(
        9,
        "generator rescaling and invertible level recombination leave every "
        "shipped verdict unchanged",
    )


def test_criterion_10_determinism_and_roundtrip(capsys):
    # Byte-determinism of every CLI command, both formats, on every shipped
    # model file (set-based commands use the model's first generator set).
    for name in sorted(SHIPPED_MODELS):
        path = str(MODEL_DIR / f"{name}.model")
        set_name = sorted(SHIPPED_MODELS[name]().generator_sets)[0]
        invocations = [
            ["chain", path],
            ["total-hamiltonian", path],
            ["first-class", path],
            ["check-symmetry", path, "--set", set_name],
            ["structure-constants", path, "--set", set_name],
        ]
        for argv in invocations:
            for fmt in ("text", "structured"):
                outputs = set()
                codes = set()
                for _ in range(2):
                    codes.add(cli_main(argv + [f"--format={fmt}"]))
                    outputs.add(capsys.readouterr().out)
                assert len(outputs) == 1, (name, argv, fmt)
                assert len(codes) == 1

    # Exported models re-ingest to identical pipelines.
    for name in sorted(SHIPPED_MODELS):
        model = SHIPPED_MODELS[name]()
        reparsed = parse_model_text(export_model_file(model))
        chain_a = generate_chain(model.system)
        chain_b = generate_chain(reparsed.system)
        assert chain_a.counts == chain_b.counts
        assert chain_a.levels[1] == chain_b.levels[1]
        assert chain_a.table(0, 1, 2) == chain_b.table(0, 1, 2)
        for set_name, gen_set in model.generator_sets.items():
            v_a = classify(gen_set, model.system, chain_a)
            v_b = classify(
                reparsed.generator_sets[set_name], reparsed.system, chain_b
            )
            assert v_a.overall is v_b.overall

    # Structured report values re-parse to the exact rationals printed.
    path = str(MODEL_DIR / "three_level_chain.model")
    assert cli_main(["chain", path, "--format=structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    model = three_level_chain()
    chain = generate_chain(model.system)
    for level, polys in zip(LEVELS, chain.levels):
        for entry, expected in zip(report["levels"][level], polys):
            assert parse_polynomial(entry["constraint"], chain.space) == expected
    assert F(report["tables"]["primary_to_secondary"][0][0]) == F(-1)
    assert F(report["tables"]["secondary_to_tertiary"][0][0]) == F(-1)
    report_pass(
        10,
        "CLI output is byte-deterministic, exports re-ingest to identical "
        "pipelines, and structured rationals re-parse exactly",
    )
