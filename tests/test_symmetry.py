import math
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
    ProductTooLargeError,
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

from dirac_symmetry import phase, symmetry
from dirac_symmetry.membership import NotFound, decompose
from dirac_symmetry.phase import PhasePolynomial, poisson
from conftest import poly, random_polynomial

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
        assert not any(certificate.coefficients)

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
        pi0 = chain.levels[0][0]
        cls, bracket, certificate = check_dynamical_symmetry(
            pi0, model.system, chain
        )
        assert cls is CommutationClass.ON_SHELL
        assert bracket == -1 * chain.levels[1][0]
        gauss = chain.levels[1][0]
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

    @staticmethod
    def record_poisson(monkeypatch) -> list:
        """The operands of every bracket the closure forms."""
        pairs = []
        real = symmetry.poisson
        monkeypatch.setattr(
            symmetry, "poisson", lambda f, g: pairs.append((f, g)) or real(f, g)
        )
        return pairs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gauge_closure_forms_no_bracket(self, monkeypatch, n):
        # Every gauge pair of em_modes(n) is decided zero by its pair masks.
        pairs = self.record_poisson(monkeypatch)
        constants = closure_and_structure_constants(em_modes(n).generator_sets["gauge"])
        assert pairs == [] and constants.nonzero == ()

    def test_rotations_closure_forms_three_brackets(self, monkeypatch):
        pairs = self.record_poisson(monkeypatch)
        closure_and_structure_constants(central_oscillator().generator_sets["rotations"])
        assert len(pairs) == 3

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


def dense_closure(gen_set):
    """Reference: every pair bracketed with ``poisson`` and decomposed with
    constant coefficients, zero brackets included, into a dense tensor; or
    the first pair that does not close, with its bracket."""
    n = len(gen_set)
    gens = gen_set.generators
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bracket = poisson(gens[i], gens[j])
            outcome = decompose(bracket, gens, mode=CoefficientMode.CONSTANT)
            if isinstance(outcome, NotFound):
                return (gen_set.names[i], gen_set.names[j]), bracket
            for k, coeff in enumerate(outcome.coefficients):
                c[k][i][j] = coeff.constant_value()
                c[k][j][i] = -coeff.constant_value()
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def on_pair(rng, space, i):
    """A random polynomial in q_i and p_i alone."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * space.n_identifiers
        exps[i], exps[space.n_dof + i] = rng.randint(0, 2), rng.randint(0, 2)
        terms[tuple(exps)] = rng.choice((-2, -1, 1, 3))
    return PhasePolynomial(space, terms)


def random_generator_set(rng, kind):
    """A seeded generator set of one kind; generators on pairs of their own
    commute with every other generator by their pair masks alone."""
    space = PhaseSpace(6)
    a, b, c, *own = rng.sample(range(1, 7), 6)
    if kind == "abelian":
        # Generators on pairs of their own, one of them also as its square
        # (a bracket formed that cancels), and momenta.
        gens = [on_pair(rng, space, i - 1) for i in own]
        square = gens[0] * gens[0]
        gens += [square] if square.total_degree() > gens[0].total_degree() else []
        gens += [poly(f"p{a} - {rng.randint(1, 3)}*p{b}^2", space), poly("1", space)]
    elif kind == "so3":
        # Rescaled rotations of (a, b, c), the invariant r^2 (whose brackets
        # with them are formed and cancel) and generators on other pairs.
        gens = [
            poly(f"q{b}*p{c} - q{c}*p{b}", space),
            poly(f"q{c}*p{a} - q{a}*p{c}", space),
            poly(f"q{a}*p{b} - q{b}*p{a}", space),
        ]
        gens = [g.scale(F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))) for g in gens]
        gens += rng.sample(
            [poly(f"q{a}^2 + q{b}^2 + q{c}^2", space), *(on_pair(rng, space, i - 1) for i in own)],
            rng.randint(0, 3),
        )
    elif kind == "heisenberg":
        gens = [poly(f"q{a}", space), poly(f"p{a}", space), poly("1", space)]
        gens += [on_pair(rng, space, i - 1) for i in rng.sample(own, rng.randint(1, 3))]
    else:  # "random": mostly not closing
        gens = [random_polynomial(rng, space, 3, 2, (-2, 2)) for _ in range(rng.randint(2, 4))]
        gens += [on_pair(rng, space, own[0] - 1)]
    rng.shuffle(gens)
    return GeneratorSet(tuple(f"G{x}" for x in range(len(gens))), tuple(gens))


class TestClosureAgainstDenseReference:
    KINDS = ("abelian", "so3", "heisenberg", "random")

    def generator_sets(self, seed, count):
        rng = random.Random(seed)
        made = 0
        while made < count:
            try:
                gen_set = random_generator_set(rng, self.KINDS[made % len(self.KINDS)])
            except ValueError:  # dependent or zero generators; draw again
                continue
            made += 1
            yield gen_set

    def test_closure_matches_dense_reference(self, monkeypatch):
        brackets = TestClosure.record_poisson(monkeypatch)
        seen = set()
        for gen_set in self.generator_sets(20261021, 120):
            n = len(gen_set)
            brackets.clear()
            outcome = closure_and_structure_constants(gen_set)
            expected = dense_closure(gen_set)
            if isinstance(outcome, NotClosed):
                assert (outcome.pair, outcome.bracket) == expected
                seen.add("not closed")
                continue
            assert outcome.tensor == expected
            assert outcome.nonzero == tuple(
                (k, i, j, value)
                for k in range(n)
                for i in range(n)
                for j in range(n)
                if (value := expected[k][i][j])
            )
            assert outcome.antisymmetric is dense_antisymmetry(expected) is True
            # Jacobi sums are quadratic in C: scaled to integers they vanish
            # exactly where they did, and the dense sums run on ints.
            scale = math.lcm(*(v.denominator for plane in expected for row in plane for v in row))
            assert outcome.jacobi is dense_jacobi(
                [[[int(v * scale) for v in row] for row in plane] for plane in expected]
            ) is True
            reference = StructureConstants(gen_set.names, expected)
            assert outcome == reference and hash(outcome) == hash(reference)
            assert repr(outcome) == repr(reference)
            # The same entries from tensors with no shared zero row.
            ints = tuple(
                tuple(tuple(int(v) if not v else v for v in row) for row in plane)
                for plane in expected
            )
            fresh = tuple(
                tuple(tuple(v if v else F(0) for v in row) for row in plane)
                for plane in expected
            )
            lists = [[list(row) for row in plane] for plane in expected]
            for tensor in (ints, fresh, lists):
                built = StructureConstants(gen_set.names, tensor)
                assert built.nonzero == outcome.nonzero
                assert (built.antisymmetric, built.jacobi) == (True, True)
            masks = [g._pair_masks() for g in gen_set.generators]
            masked = sum(  # pairs with no q_i in one and p_i in the other
                not (fq & gp | fp & gq)
                for x, (fq, fp) in enumerate(masks)
                for gq, gp in masks[x + 1:]
            )
            assert len(brackets) == n * (n - 1) // 2 - masked
            seen.add("abelian" if outcome.is_abelian() else "not abelian")
            if masked and brackets:
                seen.add("mixed")
        assert seen == {"not closed", "abelian", "not abelian", "mixed"}

    def test_mask_zero_pair_past_the_term_pair_cap_is_refused(self, monkeypatch):
        space = PhaseSpace(3)
        gen_set = GeneratorSet(
            ("L", "A", "B"),
            (
                poly("q3*p3", space),
                poly("q1 + q1^2 + q1^3", space),
                poly("q2 + p2 + q2*p2 + p2^2", space),
            ),
        )
        monkeypatch.setattr(phase, "MAX_TERM_PAIRS", 11)
        message = (
            "^bracket of a 3-term and a 4-term polynomial would form 12 term "
            "pairs, over the limit of 11$"
        )
        # (L, A) and (L, B) pass the cap; (A, B) has a zero bracket by its
        # masks and is refused as the dense closure's bracket is.
        with pytest.raises(ProductTooLargeError, match=message):
            dense_closure(gen_set)
        with pytest.raises(ProductTooLargeError, match=message):
            closure_and_structure_constants(gen_set)


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
            assert not any(gv.commutation_certificate.coefficients)


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
