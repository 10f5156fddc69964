import random
from fractions import Fraction

import pytest

from dirac_symmetry import (
    CoefficientMode,
    CommutationClass,
    ConstrainedSystem,
    GeneratorSet,
    NotClosed,
    PhaseSpace,
    StructureConstants,
    VerdictClass,
    central_oscillator,
    check_counts,
    check_dynamical_symmetry,
    check_level_preservation,
    classify,
    closure_and_structure_constants,
    em_modes,
    generate_chain,
    recombine_level,
    three_level_chain,
)

from dirac_symmetry import symmetry
from conftest import poly

F = Fraction


def empty_chain(space, h_d):
    return generate_chain(ConstrainedSystem(space, h_d, (), ()))


def cascade():
    model = three_level_chain()
    return model.system, generate_chain(model.system)


class TestCommutation:
    def test_angular_momentum_is_strict(self):
        space = PhaseSpace(3)
        h_d = poly(
            "1/2*p1^2 + 1/2*p2^2 + 1/2*p3^2 + 1/2*q1^2 + 1/2*q2^2 + 1/2*q3^2", space
        )
        chain = empty_chain(space, h_d)
        system = chain.system
        cls, bracket, certificate = check_dynamical_symmetry(
            poly("q1*p2 - q2*p1", space), system, chain
        )
        assert cls is CommutationClass.STRICT
        assert bracket.is_zero()
        assert certificate.is_zero_certificate()

    def test_dilation_on_free_particle_fails(self):
        # {q1*p1, p1^2/2} = p1^2, which has no certificate over (H_d - E):
        # substituting p1^2 -> 2E sends it to 2E, not 0.  Strict membership
        # rejects it at every bound.
        space = PhaseSpace(1)
        h_d = poly("1/2*p1^2", space)
        chain = empty_chain(space, h_d)
        cls, bracket, certificate = check_dynamical_symmetry(
            poly("q1*p1", space), chain.system, chain, degree_bound=6
        )
        assert bracket == poly("p1^2", space)
        assert cls is CommutationClass.FAILS
        assert certificate.degree_bound == 6

    def test_position_on_free_particle_fails(self):
        space = PhaseSpace(1)
        h_d = poly("1/2*p1^2", space)
        chain = empty_chain(space, h_d)
        cls, bracket, _ = check_dynamical_symmetry(
            poly("q1", space), chain.system, chain, degree_bound=4
        )
        assert bracket == poly("p1", space)
        assert cls is CommutationClass.FAILS

    def test_on_shell_energy_switch_distinguishes(self):
        # A = q1*p1^2 - 2*E*q1 has {A, H_d} = 2*p1*(H_d - E) on the free
        # particle: on-shell with the energy generator, unreachable without.
        space = PhaseSpace(1)
        h_d = poly("1/2*p1^2", space)
        chain = empty_chain(space, h_d)
        generator = poly("q1*p1^2 - 2*E*q1", space)
        with_energy, _, certificate = check_dynamical_symmetry(
            generator, chain.system, chain, include_energy=True
        )
        assert with_energy is CommutationClass.ON_SHELL
        assert certificate.coefficients[-1] == poly("2*p1", space)
        without_energy, _, _ = check_dynamical_symmetry(
            generator, chain.system, chain, include_energy=False
        )
        assert without_energy is CommutationClass.FAILS

    def test_gauge_generators_on_shell(self):
        model = em_modes(1)
        chain = generate_chain(model.system)
        pi0 = chain.primaries[0]
        cls, bracket, certificate = check_dynamical_symmetry(
            pi0, model.system, chain
        )
        assert cls is CommutationClass.ON_SHELL
        assert bracket == -1 * chain.secondaries[0]
        gauss = chain.secondaries[0]
        cls_g, bracket_g, _ = check_dynamical_symmetry(gauss, model.system, chain)
        assert cls_g is CommutationClass.STRICT
        assert bracket_g.is_zero()


class TestLevelPreservation:
    def test_dilation_preserves_momentum_levels(self):
        _, chain = cascade()
        report = check_level_preservation(poly("q1*p1", chain.space), chain)
        assert report.level_preserving
        assert not report.mixing
        assert report.images[0].within_level.coefficients == (poly("1", chain.space),)

    def test_secondary_to_primary_mixing(self):
        _, chain = cascade()
        report = check_level_preservation(poly("q2*p1", chain.space), chain)
        assert not report.level_preserving
        assert report.mixing
        finding = report.mixing[0]
        assert (finding.source_level, finding.source_name) == ("secondary", "S1")
        assert (finding.target_level, finding.target_name) == ("primary", "P1")
        assert finding.coefficient == poly("1", chain.space)

    def test_constant_generator_is_central(self):
        _, chain = cascade()
        report = check_level_preservation(poly("5", chain.space), chain)
        assert report.level_preserving
        assert all(image.image.is_zero() for image in report.images)

    def test_escape_from_constraint_module(self):
        _, chain = cascade()
        report = check_level_preservation(poly("q1^2", chain.space), chain)
        assert not report.level_preserving
        assert ("primary", "P1") in report.escapes

    def test_constant_coefficient_mode(self):
        _, chain = cascade()
        report = check_level_preservation(
            poly("q1*p1", chain.space), chain, mode=CoefficientMode.CONSTANT
        )
        assert report.level_preserving


class TestCounts:
    def test_preserving_generator(self):
        _, chain = cascade()
        report = check_level_preservation(poly("q1*p1", chain.space), chain)
        counts = check_counts(chain, report)
        assert counts.applicable
        assert counts.counts_preserved
        assert counts.ranks == {"primary": 1, "secondary": 0, "tertiary": 0}

    def test_not_applicable_under_mixing(self):
        _, chain = cascade()
        report = check_level_preservation(poly("q2*p1", chain.space), chain)
        counts = check_counts(chain, report)
        assert not counts.applicable
        assert counts.ranks == {"primary": None, "secondary": None, "tertiary": None}

    def test_empty_chain_vacuous(self):
        space = PhaseSpace(1)
        chain = empty_chain(space, poly("p1^2", space))
        report = check_level_preservation(poly("q1", space), chain)
        counts = check_counts(chain, report)
        assert counts.applicable
        assert counts.counts_preserved


    def test_rank_below_count(self):
        # {A, P1} = p2 lies on the primary level; {A, P2} = 0 is a zero row
        space = PhaseSpace(2)
        system = ConstrainedSystem(
            space, poly("p1*p2", space), (poly("p1", space), poly("p2", space)),
            ("P1", "P2"),
        )
        chain = generate_chain(system)
        report = check_level_preservation(poly("q1*p2", space), chain)
        assert report.level_preserving
        assert [image.within_level.coefficients for image in report.images] == [
            (poly("0", space), poly("1", space)),
            (poly("0", space), poly("0", space)),
        ]
        counts = check_counts(chain, report)
        assert counts.applicable
        assert counts.ranks == {"primary": 1, "secondary": 0, "tertiary": 0}


class TestClosure:
    def test_so3_structure_constants(self):
        space = PhaseSpace(3)
        gens = GeneratorSet(
            ("Lx", "Ly", "Lz"),
            (
                poly("q2*p3 - q3*p2", space),
                poly("q3*p1 - q1*p3", space),
                poly("q1*p2 - q2*p1", space),
            ),
        )
        constants = closure_and_structure_constants(gens)
        assert isinstance(constants, StructureConstants)
        assert constants.antisymmetry_ok()
        assert constants.jacobi_ok()
        # Alternating pattern: C[k][i][j] = +1 for cyclic (i, j, k).
        expected_plus = {(1, 2, 0), (2, 0, 1), (0, 1, 2)}
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    if (i, j, k) in expected_plus:
                        assert constants.tensor[k][i][j] == 1
                    elif (j, i, k) in expected_plus:
                        assert constants.tensor[k][i][j] == -1
                    else:
                        assert constants.tensor[k][i][j] == 0

    @staticmethod
    def record_decompose(monkeypatch) -> list:
        """The target of every ``decompose`` call the closure makes."""
        targets = []
        real = symmetry.decompose
        monkeypatch.setattr(
            symmetry, "decompose",
            lambda target, *args, **kwargs: targets.append(target)
            or real(target, *args, **kwargs),
        )
        return targets

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_brackets_are_not_decomposed(self, monkeypatch, n):
        targets = self.record_decompose(monkeypatch)
        constants = closure_and_structure_constants(em_modes(n).generator_sets["gauge"])
        assert targets == []
        assert constants.is_abelian()
        zero = ((0,) * (2 * n),) * (2 * n)
        assert constants.tensor == (zero,) * (2 * n)

    def test_only_nonzero_brackets_are_decomposed(self, monkeypatch):
        targets = self.record_decompose(monkeypatch)
        constants = closure_and_structure_constants(
            central_oscillator().generator_sets["rotations"]
        )
        assert len(targets) == 3 and all(targets)
        # {Lx, Ly} = Lz and its cyclic images, antisymmetrized.
        assert constants.nonzero == (
            (0, 1, 2, 1), (0, 2, 1, -1),
            (1, 0, 2, -1), (1, 2, 0, 1),
            (2, 0, 1, 1), (2, 1, 0, -1),
        )

    def test_abelian_momenta(self):
        space = PhaseSpace(2)
        gens = GeneratorSet(("A1", "A2"), (poly("p1", space), poly("p2", space)))
        constants = closure_and_structure_constants(gens)
        assert isinstance(constants, StructureConstants)
        assert constants.is_abelian()

    def test_canonical_pair_not_closed(self):
        space = PhaseSpace(1)
        gens = GeneratorSet(("Q", "P"), (poly("q1", space), poly("p1", space)))
        outcome = closure_and_structure_constants(gens)
        assert isinstance(outcome, NotClosed)
        assert outcome.pair == ("Q", "P")
        assert outcome.bracket == poly("1", space)
        assert not outcome.field_dependent_close

    def test_heisenberg_with_central_element_closes(self):
        space = PhaseSpace(1)
        gens = GeneratorSet(
            ("Q", "P", "I"),
            (poly("q1", space), poly("p1", space), poly("1", space)),
        )
        constants = closure_and_structure_constants(gens)
        assert isinstance(constants, StructureConstants)
        assert constants.tensor[2][0][1] == 1

    def test_field_dependent_near_closure_flagged(self):
        # {q1^2*p1, q1} = -q1^2 = (-q1) * q1: polynomial coefficients close
        # the pair, constants cannot.
        space = PhaseSpace(1)
        gens = GeneratorSet(
            ("A", "B"), (poly("q1^2*p1", space), poly("q1", space))
        )
        outcome = closure_and_structure_constants(gens)
        assert isinstance(outcome, NotClosed)
        assert outcome.field_dependent_close
        assert outcome.field_certificate is not None
        assert outcome.field_certificate.verify()


def dense_antisymmetry(c):
    """Reference: every (k, i, j) against its transpose."""
    n = len(c)
    return all(
        c[k][i][j] == -c[k][j][i]
        for k in range(n)
        for i in range(n)
        for j in range(n)
    )


def dense_jacobi(c):
    """Reference: the Jacobi sum at every (i, j, k, l)."""
    n = len(c)
    return all(
        sum(
            c[m][i][j] * c[l][m][k]
            + c[m][j][k] * c[l][m][i]
            + c[m][k][i] * c[l][m][j]
            for m in range(n)
        )
        == 0
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for l in range(n)
    )


def constants_from(n, brackets, antisymmetrize=True):
    """StructureConstants with C[k][i][j] = value for (k, i, j, value) in
    `brackets`, and C[k][j][i] = -value when `antisymmetrize`."""
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for k, i, j, value in brackets:
        c[k][i][j] = F(value)
        if antisymmetrize:
            c[k][j][i] = -F(value)
    return StructureConstants(
        tuple(f"A{x}" for x in range(n)),
        tuple(tuple(tuple(row) for row in plane) for plane in c),
    )


def random_tensor(rng, n, antisymmetric):
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    density = rng.choice((0.1, 0.3, 0.6))
    for k in range(n):
        for i in range(n):
            for j in range(i + 1 if antisymmetric else 0, n):
                if rng.random() < density:
                    value = F(rng.randint(-2, 2), rng.randint(1, 2))
                    c[k][i][j] = value
                    if antisymmetric:
                        c[k][j][i] = -value
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


class TestLieLawGuards:
    def test_sparse_guards_match_dense_reference(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 4)
            tensor = random_tensor(rng, n, antisymmetric=rng.random() < 0.7)
            constants = StructureConstants(tuple(f"A{x}" for x in range(n)), tensor)
            expected = (dense_antisymmetry(tensor), dense_jacobi(tensor))
            assert (constants.antisymmetry_ok(), constants.jacobi_ok()) == expected
            assert (constants.antisymmetric, constants.jacobi) == expected
            assert constants.is_abelian() == (not any(
                entry for plane in tensor for row in plane for entry in row
            ))
            seen.add(expected)
        # Every combination of the two laws holding or failing was exercised.
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_nonzero_entries_in_kij_order(self):
        constants = constants_from(3, [(2, 0, 1, 1), (0, 1, 2, 1), (1, 2, 0, 1)])
        assert constants.nonzero == (
            (0, 1, 2, 1), (0, 2, 1, -1),
            (1, 0, 2, -1), (1, 2, 0, 1),
            (2, 0, 1, 1), (2, 1, 0, -1),
        )

    @pytest.mark.parametrize(
        "n, brackets",
        [
            # so(3): [A_i, A_j] = eps_ijk A_k
            (3, [(2, 0, 1, 1), (0, 1, 2, 1), (1, 2, 0, 1)]),
            # sl(2) on (H, E, F): [H, E] = 2E, [H, F] = -2F, [E, F] = H
            (3, [(1, 0, 1, 2), (2, 0, 2, -2), (0, 1, 2, 1)]),
            # Heisenberg on (Q, P, I): [Q, P] = I
            (3, [(2, 0, 1, 1)]),
        ],
        ids=["so3", "sl2", "heisenberg"],
    )
    def test_lie_algebras_pass(self, n, brackets):
        constants = constants_from(n, brackets)
        assert constants.antisymmetric and constants.jacobi
        assert not constants.is_abelian()

    def test_antisymmetric_tensor_breaking_jacobi_fails(self):
        # [A0, A1] = A1, [A1, A2] = A0, [A2, A0] = 0: the Jacobi sum of
        # (A0, A1, A2) is [[A0, A1], A2] = [A1, A2] = A0.
        constants = constants_from(3, [(1, 0, 1, 1), (0, 1, 2, 1)])
        assert constants.antisymmetric
        assert not constants.jacobi
        assert not dense_jacobi(constants.tensor)

    @pytest.mark.parametrize(
        "brackets",
        [[(0, 0, 1, 1)], [(1, 1, 1, 3)], [(0, 0, 1, 1), (0, 1, 0, 1)]],
        ids=["no-transpose", "diagonal", "symmetric"],
    )
    def test_non_antisymmetric_tensor_fails(self, brackets):
        constants = constants_from(2, brackets, antisymmetrize=False)
        assert not constants.antisymmetric
        assert not dense_antisymmetry(constants.tensor)

    @pytest.mark.parametrize("n", [8, 12])
    def test_em_gauge_closure_scales(self, n):
        # 16 and 24 generators: guards over all n^5 index tuples take tens
        # of seconds here, guards over the nonzero entries nothing.
        constants = closure_and_structure_constants(em_modes(n).generator_sets["gauge"])
        assert isinstance(constants, StructureConstants)
        assert len(constants.names) == 2 * n
        assert constants.is_abelian() and constants.nonzero == ()
        assert constants.antisymmetric and constants.jacobi


class TestClassify:
    def test_oscillator_strict_symmetry(self):
        model = central_oscillator()
        chain = generate_chain(model.system)
        verdict = classify(model.generator_sets["rotations"], model.system, chain)
        assert verdict.overall is VerdictClass.STRICT_SYMMETRY
        assert all(
            gv.commutation_class is CommutationClass.STRICT
            for gv in verdict.generator_verdicts
        )

    def test_em_gauge_dynamical_symmetry(self):
        model = em_modes(1)
        chain = generate_chain(model.system)
        verdict = classify(model.generator_sets["gauge"], model.system, chain)
        assert verdict.overall is VerdictClass.DYNAMICAL_SYMMETRY
        assert isinstance(verdict.closure, StructureConstants)
        assert verdict.closure.is_abelian()

    def test_mixing_set_rejected(self):
        system, chain = cascade()
        gens = GeneratorSet(
            ("D1", "B1"),
            (poly("q1*p1", chain.space), poly("q2*p1", chain.space)),
        )
        verdict = classify(gens, system, chain)
        assert verdict.overall is VerdictClass.MIXES_CONSTRAINTS

    def test_commutation_failure_dominates_mixing(self):
        system, chain = cascade()
        gens = GeneratorSet(
            ("B1", "X"),
            (poly("q2*p1", chain.space), poly("q3", chain.space)),
        )
        verdict = classify(gens, system, chain)
        assert verdict.overall is VerdictClass.NOT_SYMMETRY

    def test_closure_failure_caps_verdict(self):
        space = PhaseSpace(2)
        chain = empty_chain(space, poly("1/2*p2^2", space))
        gens = GeneratorSet(("Q", "P"), (poly("q1", space), poly("p1", space)))
        verdict = classify(gens, chain.system, chain)
        assert all(
            gv.commutation_class is CommutationClass.STRICT
            for gv in verdict.generator_verdicts
        )
        assert isinstance(verdict.closure, NotClosed)
        assert verdict.overall is VerdictClass.NOT_SYMMETRY

    def test_strict_implies_on_shell_with_zero_certificate(self):
        model = central_oscillator()
        chain = generate_chain(model.system)
        verdict = classify(model.generator_sets["rotations"], model.system, chain)
        for gv in verdict.generator_verdicts:
            assert gv.commutation_certificate.is_zero_certificate()


class TestVerdictInvariances:
    def test_scaling_invariance(self):
        model = three_level_chain()
        chain = generate_chain(model.system)
        for set_name, gen_set in model.generator_sets.items():
            base = classify(gen_set, model.system, chain)
            for factor in (F(2), F(-3, 2), F(1, 7)):
                scaled = GeneratorSet(
                    gen_set.names,
                    tuple(g.scale(factor) for g in gen_set.generators),
                )
                verdict = classify(scaled, model.system, chain)
                assert verdict.overall is base.overall
                for gv_base, gv_scaled in zip(
                    base.generator_verdicts, verdict.generator_verdicts
                ):
                    assert gv_scaled.commutation_class is gv_base.commutation_class
                    assert (
                        gv_scaled.level_report.level_preserving
                        == gv_base.level_report.level_preserving
                    )
                    assert gv_scaled.verdict is gv_base.verdict

    def test_basis_invariance_within_level(self):
        model = three_level_chain()
        chain = generate_chain(model.system)
        recombined = recombine_level(chain, "secondary", [[F(5, 3)]])
        for set_name, gen_set in model.generator_sets.items():
            base = classify(gen_set, model.system, chain)
            verdict = classify(gen_set, model.system, recombined)
            assert verdict.overall is base.overall

    def test_basis_invariance_multidimensional(self):
        model = em_modes(2)
        chain = generate_chain(model.system)
        matrix = [[F(1), F(1)], [F(0), F(1)]]
        for level in ("primary", "secondary"):
            recombined = recombine_level(chain, level, matrix)
            base = classify(model.generator_sets["gauge"], model.system, chain)
            verdict = classify(model.generator_sets["gauge"], model.system, recombined)
            assert verdict.overall is base.overall


class TestGeneratorSetValidation:
    def test_dependent_generators_rejected(self):
        space = PhaseSpace(1)
        with pytest.raises(ValueError):
            GeneratorSet(("A", "B"), (poly("q1", space), poly("3*q1", space)))

    def test_zero_generator_rejected(self):
        space = PhaseSpace(1)
        with pytest.raises(ValueError):
            GeneratorSet(("A",), (poly("0", space),))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet((), ())

    def test_duplicate_names_rejected(self):
        space = PhaseSpace(1)
        with pytest.raises(ValueError):
            GeneratorSet(("A", "A"), (poly("q1", space), poly("p1", space)))
