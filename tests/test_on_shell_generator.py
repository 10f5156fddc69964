"""The on-shell generator H_d - E is built once per constrained system.

Every on-shell module of a system ends in that one polynomial object: the
modules ``on_shell_generators(True)`` returns, the generators of the chain's
tertiary-closure certificates and of the commutation certificates.  Checking
and reporting build no energy variable of their own.
"""

import pytest

import dirac_symmetry as ds
from dirac_symmetry import IdealDecomposition, PhasePolynomial, report

MODELS = ("em_modes_3", "three_level_chain")


def _model(name):
    return ds.em_modes(3) if name == "em_modes_3" else ds.three_level_chain()


@pytest.mark.parametrize("name", MODELS)
def test_every_on_shell_module_ends_in_one_object(name):
    model = _model(name)
    system = model.system
    chains = [ds.generate_chain(system), ds.generate_chain(system, 3)]
    energy = chains[0].on_shell_generators(True)[1][-1]
    assert energy == system.h_d - PhasePolynomial.variable(system.space, "E")
    for chain in chains:
        for _ in range(2):
            names, module = chain.on_shell_generators(True)
            assert names[-1] == "H_d-E"
            assert module[-1] is energy
            assert module[:-1] == chain.all_constraints()
        assert chain.on_shell_generators(False)[1] == chain.all_constraints()
        for certificate in chain.tertiary_closure:
            assert certificate.generators[-1] is energy
    assert chains[0].tertiary_closure or name == "em_modes_3"
    for gen_set in model.generator_sets.values():
        verdict = ds.classify(gen_set, system, chains[0])
        for generator in verdict.generator_verdicts:
            certificate = generator.commutation_certificate
            if isinstance(certificate, IdealDecomposition):
                assert certificate.generators[-1] is energy


@pytest.mark.parametrize("name", MODELS)
def test_checks_and_reports_build_no_energy_variable(name, monkeypatch):
    model = _model(name)
    system = model.system
    built = []
    variable = PhasePolynomial.variable.__func__

    def spy(cls, space, ident):
        built.append(ident)
        return variable(cls, space, ident)

    monkeypatch.setattr(PhasePolynomial, "variable", classmethod(spy))
    chain = ds.generate_chain(system)
    report.chain_report(chain, name)
    first_class = ds.first_class_check(chain)
    report.first_class_report(chain, first_class, name)
    for set_name, gen_set in model.generator_sets.items():
        verdict = ds.classify(gen_set, system, chain)
        report.symmetry_report(chain, verdict, set_name, name)
    assert "E" not in built


def test_a_recombined_system_carries_an_equal_generator():
    model = ds.three_level_chain()
    chain = ds.generate_chain(model.system)
    recombined = ds.recombine_level(chain, "primary", [[2]])
    assert recombined.system != chain.system
    energy = recombined.on_shell_generators(True)[1][-1]
    assert energy == chain.on_shell_generators(True)[1][-1]
    for certificate in recombined.tertiary_closure:
        assert certificate.generators[-1] is energy
