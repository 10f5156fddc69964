from fractions import Fraction

import pytest

import dirac_symmetry.chain as chain_module
from dirac_symmetry import (
    SHIPPED_MODELS,
    ChainBeyondTertiaryError,
    ConstrainedSystem,
    DependentPrimariesError,
    InconsistentSystemError,
    PhaseSpace,
    ReservedParameterError,
    assemble_total_hamiltonian,
    em_modes,
    first_class_check,
    generate_chain,
    poisson,
    recombine_level,
    three_level_chain,
    weak_equals,
)

from conftest import poly

F = Fraction


def cascade_system():
    space = PhaseSpace(3)
    h_d = poly("q1*p2 + q2*p3", space)
    return ConstrainedSystem(space, h_d, (poly("p1", space),), ("P1",))


def assert_relations_reexpand(chain):
    """Recompute every bracket {constraint, H_d} and re-expand its recorded
    relation: each table row, spill included, and each tertiary certificate."""
    h_d = chain.system.h_d

    def expand(row, polys):
        assert len(row) == len(polys)
        total = poly("0", chain.space)
        for coeff, phi in zip(row, polys):
            total = total + coeff * phi
        return total

    for i, primary in enumerate(chain.primaries):
        expected = poisson(primary, h_d)
        assert chain.primary_brackets[i] == expected
        assert expected == (
            expand(chain.primary_spill[i], chain.primaries)
            + expand(chain.primary_to_secondary[i], chain.secondaries)
            + expand(chain.primary_to_tertiary[i], chain.tertiaries)
        )
    for j, secondary in enumerate(chain.secondaries):
        expected = poisson(secondary, h_d)
        assert chain.secondary_brackets[j] == expected
        assert expected == (
            expand(chain.secondary_spill[j], chain.primaries + chain.secondaries)
            + expand(chain.secondary_to_tertiary[j], chain.tertiaries)
        )
    assert len(chain.tertiary_closure) == len(chain.tertiaries)
    for k, tertiary in enumerate(chain.tertiaries):
        expected = poisson(tertiary, h_d)
        assert chain.tertiary_brackets[k] == expected
        certificate = chain.tertiary_closure[k]
        assert certificate.target == expected
        assert certificate.expand() == expected


class TestGenerateChain:
    def test_three_level_cascade(self):
        chain = generate_chain(cascade_system())
        assert chain.counts == (1, 1, 1)
        assert chain.secondaries == (poly("p2", chain.space),)
        assert chain.tertiaries == (poly("p3", chain.space),)
        assert chain.primary_to_secondary[0][0] == poly("-1", chain.space)
        assert chain.secondary_to_tertiary[0][0] == poly("-1", chain.space)
        assert chain.tertiary_brackets[0].is_zero()
        assert chain.ordering_ok
        assert chain.strict_level_form

    def test_relations_reexpand_exactly(self):
        assert_relations_reexpand(generate_chain(cascade_system()))

    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_shipped_relations_reexpand_exactly(self, name):
        assert_relations_reexpand(generate_chain(SHIPPED_MODELS[name]().system))

    @pytest.mark.parametrize(
        "model, calls",
        [(three_level_chain, 3), (lambda: em_modes(5), 10)],
        ids=["three_level_chain", "em_modes_5"],
    )
    def test_each_bracket_and_relation_computed_once(self, monkeypatch, model, calls):
        counts = {"poisson": 0, "decompose": 0}

        def counting(name):
            original = getattr(chain_module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(chain_module, name, counting(name))
        generate_chain(model().system)
        assert counts == {"poisson": calls, "decompose": calls}

    def test_cyclic_coordinate_stops_immediately(self):
        space = PhaseSpace(2)
        system = ConstrainedSystem(
            space, poly("1/2*p1^2", space), (poly("p2", space),), ("P1",)
        )
        chain = generate_chain(system)
        assert chain.counts == (1, 0, 0)
        assert chain.ordering_ok

    def test_dependent_primaries_rejected(self):
        space = PhaseSpace(2)
        with pytest.raises(DependentPrimariesError):
            ConstrainedSystem(
                space,
                poly("p1^2", space),
                (poly("q1", space), poly("2*q1", space)),
                ("A", "B"),
            )

    def test_zero_primary_rejected(self):
        space = PhaseSpace(1)
        with pytest.raises(DependentPrimariesError):
            ConstrainedSystem(space, poly("p1", space), (poly("0", space),), ("Z",))

    def test_idempotence_on_full_constraint_set(self):
        chain = generate_chain(cascade_system())
        system = ConstrainedSystem(
            chain.space,
            chain.system.h_d,
            chain.all_constraints(),
            chain.all_names(),
        )
        again = generate_chain(system)
        assert again.counts == (3, 0, 0)

    def test_inconsistent_system_detected(self):
        space = PhaseSpace(1)
        system = ConstrainedSystem(
            space, poly("q1", space), (poly("p1", space),), ("P1",)
        )
        with pytest.raises(InconsistentSystemError) as err:
            generate_chain(system)
        assert err.value.residual == poly("1", space)

    def test_chain_beyond_tertiary(self):
        space = PhaseSpace(4)
        system = ConstrainedSystem(
            space,
            poly("q1*p2 + q2*p3 + q3*p4", space),
            (poly("p1", space),),
            ("P1",),
        )
        with pytest.raises(ChainBeyondTertiaryError) as err:
            generate_chain(system)
        assert err.value.source == "T1"

    def test_determinism(self):
        first = generate_chain(cascade_system())
        second = generate_chain(cascade_system())
        assert first.secondaries == second.secondaries
        assert first.tertiaries == second.tertiaries
        assert first.primary_to_secondary == second.primary_to_secondary

    def test_count_sanity(self):
        for n in (1, 2, 3):
            chain = generate_chain(em_modes(n).system)
            n_p, n_s, n_t = chain.counts
            assert n_s <= n_p
            assert n_t <= n_s


class TestRecombineLevel:
    @pytest.mark.parametrize(
        "system, matrix",
        [
            (cascade_system, [[F(-7, 3)]]),
            (lambda: em_modes(2).system, [[F(2), F(-1)], [F(1, 3), F(5)]]),
        ],
        ids=["cascade", "em_modes_2"],
    )
    def test_recombined_tables_still_reexpand(self, system, matrix):
        chain = generate_chain(system())
        for level in ("primary", "secondary", "tertiary"):
            size = len(chain.level_polys(level))
            square = [row[:size] for row in matrix[:size]]
            recombined = recombine_level(chain, level, square)
            assert recombined.counts == chain.counts
            assert recombined.ordering_ok == chain.ordering_ok
            assert_relations_reexpand(recombined)

    def test_singular_matrix_rejected(self):
        chain = generate_chain(em_modes(2).system)
        with pytest.raises(ValueError):
            recombine_level(chain, "secondary", [[F(1), F(2)], [F(2), F(4)]])

    def test_wrong_shape_rejected(self):
        chain = generate_chain(cascade_system())
        with pytest.raises(ValueError):
            recombine_level(chain, "primary", [[F(1), F(0)]])


class TestTotalHamiltonian:
    def test_cascade_assembly(self):
        system = cascade_system()
        chain = generate_chain(system)
        total = assemble_total_hamiltonian(system, chain)
        expected = poly("q1*p2 + q2*p3 + v1*p1 + u1*p2 + w1*p3", total.space)
        assert total.h_tot == expected
        assert total.multiplier_names == (("v1",), ("u1",), ("w1",))
        assert total.certificate.verify()

    def test_weak_equality_with_h_d(self):
        system = cascade_system()
        chain = generate_chain(system)
        total = assemble_total_hamiltonian(system, chain)
        lifted = [c.in_space(total.space) for c in chain.all_constraints()]
        ok, _ = weak_equals(
            total.h_tot, system.h_d.in_space(total.space), lifted, degree_bound=2
        )
        assert ok

    def test_empty_constraints(self):
        space = PhaseSpace(1)
        system = ConstrainedSystem(space, poly("p1^2", space), (), ())
        chain = generate_chain(system)
        total = assemble_total_hamiltonian(system, chain)
        assert total.h_tot == system.h_d.in_space(total.space)
        assert total.multiplier_names == ((), (), ())

    def test_em_single_mode_assembly(self):
        model = em_modes(1)
        chain = generate_chain(model.system)
        total = assemble_total_hamiltonian(model.system, chain)
        expected = (
            model.system.h_d.in_space(total.space)
            + poly("v1", total.space) * chain.primaries[0].in_space(total.space)
            + poly("u1", total.space) * chain.secondaries[0].in_space(total.space)
        )
        assert total.h_tot == expected

    def test_multiplier_collision_rejected(self):
        space = PhaseSpace(1, ("E", "v1"))
        system = ConstrainedSystem(space, poly("p1^2", space), (poly("p1", space),), ("P1",))
        chain = generate_chain(system)
        with pytest.raises(ReservedParameterError):
            assemble_total_hamiltonian(system, chain)


class TestFirstClass:
    def test_momenta_commute(self):
        chain = generate_chain(cascade_system())
        report = first_class_check(chain)
        assert report.all_first_class
        assert len(report.pairs) == 3
        assert all(p.bracket.is_zero() for p in report.pairs)

    def test_canonical_pair_flagged(self):
        space = PhaseSpace(2)
        system = ConstrainedSystem(
            space,
            poly("1/2*p2^2", space),
            (poly("q1", space), poly("p1", space)),
            ("C1", "C2"),
        )
        chain = generate_chain(system)
        report = first_class_check(chain)
        assert not report.all_first_class
        flagged = [p for p in report.pairs if not p.first_class]
        assert len(flagged) == 1
        assert (flagged[0].name_a, flagged[0].name_b) == ("C1", "C2")
        assert flagged[0].bracket == poly("1", space)

    def test_em_modes_first_class(self):
        chain = generate_chain(em_modes(2).system)
        report = first_class_check(chain)
        assert report.all_first_class
        assert len(report.pairs) == 6

    def test_empty_constraints_vacuous(self):
        space = PhaseSpace(1)
        chain = generate_chain(ConstrainedSystem(space, poly("p1^2", space), (), ()))
        report = first_class_check(chain)
        assert report.all_first_class
        assert report.pairs == ()
