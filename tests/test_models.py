from pathlib import Path

import pytest

from dirac_symmetry import (
    SHIPPED_MODELS,
    StructureConstants,
    classify,
    em_modes,
    export_model_file,
    first_class_check,
    generate_chain,
    parse_model_text,
)

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
def test_expected_block_self_test(name):
    model = SHIPPED_MODELS[name]()
    chain = generate_chain(model.system)
    assert chain.counts == model.expected.counts
    assert chain.ordering_ok == model.expected.ordering_ok
    report = first_class_check(chain)
    assert report.all_first_class == model.expected.first_class
    for set_name, expected_verdict in model.expected.verdicts.items():
        verdict = classify(model.generator_sets[set_name], model.system, chain)
        assert verdict.overall is expected_verdict, (name, set_name)
        if set_name in model.expected.abelian_sets:
            assert isinstance(verdict.closure, StructureConstants)
            assert verdict.closure.is_abelian()


def test_em_modes_counts_scale_linearly():
    for n in range(1, 6):
        chain = generate_chain(em_modes(n).system)
        assert chain.counts == (n, n, 0)
        assert chain.ordering_ok


def test_em_modes_rejects_nonpositive():
    with pytest.raises(ValueError):
        em_modes(0)
    with pytest.raises(ValueError):
        em_modes(-2)


def test_em_modes_legend_covers_all_variables():
    model = em_modes(2)
    space = model.system.space
    assert len(model.variable_legend) == 2 * space.n_dof
    for i in range(1, space.n_dof + 1):
        assert f"q{i}" in model.variable_legend
        assert f"p{i}" in model.variable_legend
    assert model.variable_legend["p1"] == "pi0_1"
    assert model.variable_legend["p2"] == "piL_1"


def test_em_modes_gauss_relation_carries_mode_weight():
    for n in (1, 3):
        chain = generate_chain(em_modes(n).system)
        for k in range(n):
            # {pi0_k, H_d} = -k * G_k after normalization of the Gauss mode.
            row = chain.table(0, 1, 2)[k]
            assert row[k].constant_value() == -(k + 1)


@pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
def test_export_reingests_to_identical_pipeline(name):
    model = SHIPPED_MODELS[name]()
    text = export_model_file(model)
    parsed = parse_model_text(text)
    assert parsed.system.h_d == model.system.h_d
    assert parsed.system.primaries == model.system.primaries
    assert parsed.system.primary_names == model.system.primary_names
    assert set(parsed.generator_sets) == set(model.generator_sets)
    chain_a = generate_chain(model.system)
    chain_b = generate_chain(parsed.system)
    assert chain_a.levels[1] == chain_b.levels[1]
    assert chain_a.levels[2] == chain_b.levels[2]
    assert chain_a.table(0, 1, 2) == chain_b.table(0, 1, 2)
    for set_name in model.generator_sets:
        verdict_a = classify(model.generator_sets[set_name], model.system, chain_a)
        verdict_b = classify(parsed.generator_sets[set_name], parsed.system, chain_b)
        assert verdict_a.overall is verdict_b.overall


def test_export_is_deterministic():
    model = em_modes(2)
    assert export_model_file(model) == export_model_file(em_modes(2))


@pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
def test_committed_model_files_match_exports(name):
    committed = (MODEL_DIR / f"{name}.model").read_text(encoding="utf-8")
    assert committed == export_model_file(SHIPPED_MODELS[name]())
