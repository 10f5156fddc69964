import random
from fractions import Fraction

import pytest

import dirac_symmetry.chain as chain_module
from dirac_symmetry import (
    SHIPPED_MODELS,
    ChainBeyondTertiaryError,
    CoefficientMode,
    ConstrainedSystem,
    DependentPrimariesError,
    IdealDecomposition,
    InconsistentSystemError,
    PhasePolynomial,
    PhaseSpace,
    RationalSpan,
    ReservedParameterError,
    assemble_total_hamiltonian,
    decompose,
    em_modes,
    first_class_check,
    generate_chain,
    poisson,
    recombine_level,
    three_level_chain,
    weak_equals,
)
from dirac_symmetry.phase import _grlex_key

from conftest import poly

F = Fraction


def cascade_system():
    space = PhaseSpace(3)
    h_d = poly("q1*p2 + q2*p3", space)
    return ConstrainedSystem(space, h_d, (poly("p1", space),), ("P1",))


def assert_tables_tile_rows(chain):
    """The five ``table`` blocks, laid side by side in level order, are the
    rows: each primary row is its spill and its secondary and tertiary
    coordinates, each secondary row its spill and its tertiary ones."""
    primary = zip(chain.table(0, 0, 1), chain.table(0, 1, 2), chain.table(0, 2, 3))
    secondary = zip(chain.table(1, 0, 2), chain.table(1, 2, 3))
    tiled = [spill + to_s + to_t for spill, to_s, to_t in primary]
    tiled += [spill + to_t for spill, to_t in secondary]
    assert tuple(tiled) == chain.rows
    assert chain.strict_level_form == all(
        c.is_zero() for spill in chain.table(0, 0, 1) + chain.table(1, 0, 2) for c in spill
    )


def assert_relations_reexpand(chain):
    """Recompute every bracket {constraint, H_d} and re-expand its recorded
    relation: each row over all constraints, and each tertiary certificate."""
    h_d = chain.system.h_d
    constraints = chain.all_constraints()
    for level, brackets in zip(chain.levels, chain.brackets):
        assert brackets == tuple(poisson(phi, h_d) for phi in level)
    brackets = chain.brackets[0] + chain.brackets[1]
    assert len(chain.rows) == len(brackets)
    for row, bracket in zip(chain.rows, brackets):
        assert len(row) == len(constraints)
        total = poly("0", chain.space)
        for coeff, phi in zip(row, constraints):
            total = total + coeff * phi
        assert total == bracket
    assert_tables_tile_rows(chain)
    assert len(chain.tertiary_closure) == len(chain.levels[2])
    for bracket, certificate in zip(chain.brackets[2], chain.tertiary_closure):
        assert certificate.target == bracket
        assert certificate.expand() == bracket


class TestGenerateChain:
    def test_three_level_cascade(self):
        chain = generate_chain(cascade_system())
        assert chain.counts == (1, 1, 1)
        assert chain.levels[1] == (poly("p2", chain.space),)
        assert chain.levels[2] == (poly("p3", chain.space),)
        assert chain.table(0, 1, 2)[0][0] == poly("-1", chain.space)
        assert chain.table(1, 2, 3)[0][0] == poly("-1", chain.space)
        assert chain.brackets[2][0].is_zero()
        assert chain.ordering_ok
        assert chain.strict_level_form

    def test_relations_reexpand_exactly(self):
        assert_relations_reexpand(generate_chain(cascade_system()))

    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_shipped_relations_reexpand_exactly(self, name):
        assert_relations_reexpand(generate_chain(SHIPPED_MODELS[name]().system))

    @pytest.mark.parametrize(
        "model, brackets, closures",
        [(three_level_chain, 3, 1), (lambda: em_modes(5), 10, 0)],
        ids=["three_level_chain", "em_modes_5"],
    )
    def test_each_bracket_computed_and_split_once(
        self, monkeypatch, model, brackets, closures
    ):
        # decompose runs only for the weak closure of each tertiary.
        counts = {"poisson": 0, "decompose": 0, "split": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(chain_module, "poisson")
        counting(chain_module, "decompose")
        counting(RationalSpan, "split")
        generate_chain(model().system)
        assert counts == {"poisson": brackets, "decompose": closures, "split": brackets}

    def test_em_modes_chain_builds_no_certificate(self, monkeypatch):
        # The table rows are re-expanded without an IdealDecomposition, and
        # em_modes has no tertiary to close.
        built = []
        real = IdealDecomposition.__init__
        monkeypatch.setattr(
            IdealDecomposition, "__init__",
            lambda self, *args, **kwargs: built.append(args) or real(self, *args, **kwargs),
        )
        chain = generate_chain(em_modes(5).system)
        assert chain.counts == (5, 5, 0) and built == []
        decompose(chain.brackets[0][0], chain.all_constraints())
        assert len(built) == 1  # the spy sees a certificate when one is built

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

    def test_inconsistency_names_its_source(self):
        space = PhaseSpace(2)
        system = ConstrainedSystem(
            space, poly("q2", space), (poly("p2", space), poly("p1", space)), ("A", "B")
        )
        with pytest.raises(InconsistentSystemError) as err:
            generate_chain(system)
        assert err.value.source == "A"
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
        assert first.levels[1] == second.levels[1]
        assert first.levels[2] == second.levels[2]
        assert first.table(0, 1, 2) == second.table(0, 1, 2)

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
        for level, polys in zip(chain_module.LEVELS, chain.levels):
            size = len(polys)
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

    def test_unknown_level_names_the_levels(self):
        chain = generate_chain(cascade_system())
        with pytest.raises(ValueError) as info:
            recombine_level(chain, "quaternary", [[F(1)]])
        assert "'quaternary'" in str(info.value)
        assert str(chain_module.LEVELS) in str(info.value)


def random_cascade(rng):
    """H_d bilinear in q and p plus some p_i^2, and primaries linear in the
    momenta, so every bracket is linear in the momenta; the levels, their
    off-level spill and the depth vary with the seed."""
    n = rng.randint(2, 4)
    space = PhaseSpace(n)
    terms = [
        f"({rng.choice(['-2', '-1', '1', '2', '1/2'])})*q{i}*p{j}"
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < 0.35
    ]
    terms += [f"1/2*p{i}^2" for i in range(1, n + 1) if rng.random() < 0.3]
    h_d = poly(" + ".join(terms) or "0", space)
    primaries = [
        poly(" + ".join(f"({rng.randint(-2, 2)})*p{k}" for k in range(1, n + 1)), space)
        for _ in range(rng.randint(1, 2))
    ]
    primaries = [p for p in primaries if p]
    names = tuple(f"P{i}" for i in range(1, len(primaries) + 1))
    return ConstrainedSystem(space, h_d, tuple(primaries), names)


def random_cascade_chains(seed, count):
    rng = random.Random(seed)
    chains = []
    while len(chains) < count:
        try:
            chains.append(generate_chain(random_cascade(rng)))
        except (DependentPrimariesError, ChainBeyondTertiaryError):
            continue
    return chains


def random_recombinations(chain, rng):
    """The chain with each nonempty level recombined by a random invertible
    rational matrix."""
    for level, polys in zip(chain_module.LEVELS, chain.levels):
        size = len(polys)
        while size:
            matrix = [
                [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            try:
                yield recombine_level(chain, level, matrix)
                break
            except ValueError:  # singular; draw again
                continue


def assert_tables_match_constant_decompose(chain):
    """Every row, spill included, equals the constant-mode certificate of its
    bracket over all constraints, the unique one since the constraints are
    rationally independent."""
    constraints = chain.all_constraints()
    brackets = chain.brackets[0] + chain.brackets[1]
    assert len(chain.rows) == len(brackets)
    for row, bracket in zip(chain.rows, brackets):
        oracle = decompose(bracket, constraints, mode=CoefficientMode.CONSTANT)
        assert row == oracle.coefficients
    assert_tables_tile_rows(chain)


class TestTablesAgainstDecompose:
    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_shipped_models(self, name):
        chain = generate_chain(SHIPPED_MODELS[name]().system)
        assert_tables_match_constant_decompose(chain)
        for recombined in random_recombinations(chain, random.Random(name)):
            assert_tables_match_constant_decompose(recombined)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_em_modes(self, n):
        chain = generate_chain(em_modes(n).system)
        assert_tables_match_constant_decompose(chain)
        for recombined in random_recombinations(chain, random.Random(n)):
            assert_tables_match_constant_decompose(recombined)

    def test_random_cascades(self):
        rng = random.Random(7)
        chains = random_cascade_chains(2024, 100)
        for chain in chains:
            assert chain.ordering_ok
            assert_tables_match_constant_decompose(chain)
            # Generated constraints are normalized: leading coefficient +1.
            for constraint in chain.levels[1] + chain.levels[2]:
                assert constraint.terms[max(constraint.terms, key=_grlex_key)] == 1
            for recombined in random_recombinations(chain, rng):
                assert_tables_match_constant_decompose(recombined)
        # The seeds cover off-level spill and all three levels.
        assert sum(not chain.strict_level_form for chain in chains) >= 50
        assert sum(bool(chain.levels[2]) for chain in chains) >= 10


class TestReexpansionGuard:
    @staticmethod
    def tamper(monkeypatch):
        original = RationalSpan.split

        def wrong(self, terms):
            residual, coordinates = original(self, terms)
            return residual, {**coordinates, (0, 0): F(1)}

        monkeypatch.setattr(RationalSpan, "split", wrong)

    def test_wrong_coordinates_raise_an_internal_error(self, monkeypatch):
        system = cascade_system()
        self.tamper(monkeypatch)
        with pytest.raises(RuntimeError, match="internal error: table row of P1"):
            generate_chain(system)

    def test_recombination_is_guarded_too(self, monkeypatch):
        chain = generate_chain(em_modes(2).system)
        self.tamper(monkeypatch)
        with pytest.raises(RuntimeError, match="internal error"):
            recombine_level(chain, "secondary", [[F(1), F(1)], [F(0), F(1)]])

    def test_a_tampered_published_row_raises(self, monkeypatch):
        # The split is right; the constants the row publishes are doubled.
        system = cascade_system()
        constant = PhasePolynomial.constant
        monkeypatch.setattr(
            PhasePolynomial, "constant",
            classmethod(lambda cls, space, value: constant(space, 2 * value)),
        )
        with pytest.raises(RuntimeError, match="internal error: table row of P1"):
            generate_chain(system)


def summed_total_hamiltonian(system, chain):
    """H_tot and its certificate built by polynomial sums, as the one-pass
    assembly replaced: H_d plus each v_j * phi_j in turn, and the target
    H_tot - H_d."""
    fresh = [
        f"{letter}{i}"
        for letter, level in zip("vuw", chain.levels)
        for i in range(1, len(level) + 1)
    ]
    ext = system.space.extend(fresh)
    h_tot = system.h_d.in_space(ext)
    lifted, coefficients = [], []
    for name, constraint in zip(fresh, chain.all_constraints()):
        coefficients.append(PhasePolynomial.variable(ext, name))
        lifted.append(constraint.in_space(ext))
        h_tot = h_tot + coefficients[-1] * lifted[-1]
    certificate = IdealDecomposition(
        h_tot - system.h_d.in_space(ext), tuple(lifted), tuple(coefficients), 1
    )
    return h_tot, certificate


class TestTotalHamiltonian:
    @staticmethod
    def assert_matches_the_summed_assembly(system, chain):
        total = assemble_total_hamiltonian(system, chain)
        h_tot, certificate = summed_total_hamiltonian(system, chain)
        assert total.h_tot == h_tot and total.h_tot.space == total.space
        assert total.certificate == certificate
        assert total.certificate.verify()

    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_shipped_models_match_the_summed_assembly(self, name):
        system = SHIPPED_MODELS[name]().system
        self.assert_matches_the_summed_assembly(system, generate_chain(system))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_em_modes_match_the_summed_assembly(self, n):
        system = em_modes(n).system
        self.assert_matches_the_summed_assembly(system, generate_chain(system))

    def test_cascades_match_the_summed_assembly(self):
        chains = random_cascade_chains(35, 100)
        for chain in chains:
            self.assert_matches_the_summed_assembly(chain.system, chain)
        assert sum(bool(chain.levels[2]) for chain in chains) >= 10

    def test_a_chain_on_a_smaller_space_matches_the_summed_assembly(self):
        # The system declares one parameter more than the chain's space.
        chain = generate_chain(cascade_system())
        space = chain.space.extend(("m",))
        system = ConstrainedSystem(
            space, chain.system.h_d.in_space(space),
            tuple(p.in_space(space) for p in chain.levels[0]), chain.names[0],
        )
        self.assert_matches_the_summed_assembly(system, chain)

    def test_assembly_forms_no_polynomial_sum_or_product(self, monkeypatch):
        system = em_modes(5).system
        chain = generate_chain(system)
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            real = getattr(PhasePolynomial, name)
            monkeypatch.setattr(
                PhasePolynomial, name,
                lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args),
            )
        assemble_total_hamiltonian(system, chain)
        assert calls == []
        summed_total_hamiltonian(system, chain)
        assert {"__add__", "__mul__"} <= set(calls)  # the spy sees a sum when one is formed

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
            + poly("v1", total.space) * chain.levels[0][0].in_space(total.space)
            + poly("u1", total.space) * chain.levels[1][0].in_space(total.space)
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


class TestPrimariesSpanningAConstant:
    @pytest.mark.parametrize(
        "primaries, source, residual",
        [(("q1 + 1", "q1"), "P2", "-1"), (("1",), "P1", "1"), (("q1", "2*E"), "P2", "2*E")],
    )
    def test_refused_naming_the_primary(self, primaries, source, residual):
        space = PhaseSpace(1)
        system = ConstrainedSystem(
            space, poly("p1", space), tuple(poly(text, space) for text in primaries)
        )
        with pytest.raises(InconsistentSystemError) as err:
            generate_chain(system)
        assert err.value.source == source
        assert err.value.residual == poly(residual, space)
