"""Behaviour of the package's result and input records.

Every public record keeps its field order, its defaults, keyword and
positional construction, value equality, a ``Name(field=value, ...)`` repr
and immutability; the three classes that validate their input keep their
error types and messages, and ``StructureConstants`` still derives its
nonzero entries and Lie-law flags on construction.
"""

import copy
import pickle
from collections.abc import Mapping
from fractions import Fraction

import pytest

from dirac_symmetry import (
    CoefficientMode,
    ConstrainedSystem,
    ConstraintChain,
    DependentPrimariesError,
    ExpectedBehavior,
    FirstClassReport,
    GeneratorSet,
    ModelDescriptor,
    ModelFile,
    ModelOptions,
    NotClosed,
    NotFound,
    PhasePolynomial,
    PhaseSpace,
    SHIPPED_MODELS,
    StructureConstants,
    SymmetryVerdict,
    TotalHamiltonian,
    VerdictClass,
    central_oscillator,
    classify,
    closure_and_structure_constants,
    em_modes,
    first_class_check,
    generate_chain,
    three_level_chain,
)
from dirac_symmetry.chain import PairBracketCheck
from dirac_symmetry.symmetry import (
    ConstraintImage,
    CountsReport,
    GeneratorVerdict,
    LevelPreservationReport,
    MixingFinding,
)

from conftest import poly

# The records with no validation, each with its fields in declaration order.
PLAIN_RECORDS = {
    ConstraintChain: (
        "system", "levels", "names", "brackets", "rows", "tertiary_closure",
        "degree_bound",
    ),
    TotalHamiltonian: ("space", "h_tot", "multiplier_names", "certificate"),
    PairBracketCheck: ("name_a", "name_b", "bracket", "first_class", "certificate"),
    FirstClassReport: ("pairs", "all_first_class", "include_energy", "degree_bound"),
    NotFound: ("degree_bound", "mode", "exact"),
    ModelOptions: ("degree_bound", "on_shell_energy", "coefficient_mode"),
    ModelFile: (
        "system", "generator_sets", "declared_secondaries", "declared_tertiaries",
        "options",
    ),
    ExpectedBehavior: ("counts", "ordering_ok", "first_class", "verdicts", "abelian_sets"),
    ModelDescriptor: ("name", "system", "generator_sets", "expected", "variable_legend"),
    ConstraintImage: ("level", "name", "image", "within_level", "across_levels"),
    MixingFinding: (
        "source_level", "source_name", "target_level", "target_name", "coefficient",
    ),
    LevelPreservationReport: ("images", "level_preserving", "mixing", "escapes"),
    CountsReport: ("applicable", "ranks"),
    NotClosed: ("pair", "bracket", "field_dependent_close", "field_certificate"),
    GeneratorVerdict: (
        "name", "generator", "commutation_class", "bracket_with_h_d",
        "commutation_certificate", "level_report", "counts_report", "verdict",
    ),
    SymmetryVerdict: (
        "generator_verdicts", "closure", "overall", "include_energy", "degree_bound",
    ),
}

PLAIN = pytest.mark.parametrize(
    "cls, names", list(PLAIN_RECORDS.items()), ids=lambda v: getattr(v, "__name__", "")
)


def _values(names, tag=""):
    return [f"{tag}{name}" for name in names]


@PLAIN
def test_positional_and_keyword_construction(cls, names):
    values = _values(names)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@PLAIN
def test_value_equality(cls, names):
    assert cls(*_values(names)) == cls(*_values(names))
    assert cls(*_values(names)) != cls(*_values(names, "other "))


@PLAIN
def test_repr_names_every_field(cls, names):
    values = _values(names)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@PLAIN
def test_plain_records_are_immutable(cls, names):
    record = cls(*_values(names))
    with pytest.raises(AttributeError):
        setattr(record, names[0], "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert getattr(record, names[0]) == names[0]


def test_defaults():
    assert NotFound(3, CoefficientMode.POLYNOMIAL).exact is False
    options = ModelOptions()
    assert (options.degree_bound, options.on_shell_energy, options.coefficient_mode) == (
        None, None, None,
    )
    assert ExpectedBehavior((1, 0, 0), True, True, {}).abelian_sets == ()


def test_not_found_message():
    assert NotFound(4, CoefficientMode.POLYNOMIAL).message == (
        "not representable within degree bound 4"
    )
    assert NotFound(0, CoefficientMode.CONSTANT, exact=True).message == (
        "not representable with constant coefficients"
    )


def test_derived_properties():
    assert CountsReport(True, {}).counts_preserved is True
    assert CountsReport(False, {}).counts_preserved is False


def test_variable_legend_defaults_to_an_unshared_empty_mapping():
    expected = ExpectedBehavior((1, 0, 0), True, True, {})
    a = ModelDescriptor("a", "system", {}, expected)
    b = ModelDescriptor("b", "system", {}, expected)
    assert isinstance(a.variable_legend, Mapping)
    assert dict(a.variable_legend) == {}
    if a.variable_legend is b.variable_legend:
        # one shared default is fine only if nobody can write to it
        with pytest.raises(TypeError):
            a.variable_legend["q1"] = "x"
    legend = {"q1": "x"}
    assert ModelDescriptor("c", "system", {}, expected, legend).variable_legend is legend


# ----------------------------------------------------------------------
# ConstrainedSystem
# ----------------------------------------------------------------------
def _system(space, names=()):
    return ConstrainedSystem(
        space, poly("q1*p2", space), (poly("p1", space), poly("q2", space)), names
    )


def test_constrained_system_fields_and_default_names(space2):
    h_d = poly("q1*p2", space2)
    primaries = (poly("p1", space2), poly("q2", space2))
    by_position = ConstrainedSystem(space2, h_d, primaries)
    by_keyword = ConstrainedSystem(space=space2, h_d=h_d, primaries=primaries)
    for system in (by_position, by_keyword):
        assert system.space is space2
        assert system.h_d is h_d
        assert system.primaries is primaries
        assert system.primary_names == ("P1", "P2")
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert ConstrainedSystem(space2, h_d, ()).primary_names == ()
    named = ConstrainedSystem(space2, h_d, primaries, ("A", "B"))
    assert named.primary_names == ("A", "B")
    assert named != by_position
    assert repr(named) == (
        f"ConstrainedSystem(space={space2!r}, h_d={h_d!r}, "
        f"primaries={primaries!r}, primary_names=('A', 'B'))"
    )


def test_constrained_system_is_immutable(space2):
    system = _system(space2)
    with pytest.raises(AttributeError):
        system.primary_names = ("X", "Y")
    with pytest.raises(AttributeError):
        system.extra = 1
    with pytest.raises(AttributeError):
        del system.primary_names
    assert system.primary_names == ("P1", "P2")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda s, o: ConstrainedSystem(s, poly("q1", o), ()),
         ValueError, "H_d must live on the system's phase space"),
        (lambda s, o: ConstrainedSystem(s, poly("q1", s), (poly("p1", s),), ("A", "B")),
         ValueError, "one name per primary constraint required"),
        (lambda s, o: ConstrainedSystem(
            s, poly("q1", s), (poly("p1", s), poly("p2", s)), ("A", "A")),
         ValueError, "primary constraint names must be unique"),
        (lambda s, o: ConstrainedSystem(s, poly("q1", s), (poly("p1", o),)),
         ValueError, "primary constraints must share the phase space"),
        (lambda s, o: ConstrainedSystem(s, poly("q1", s), (poly("0", s),)),
         DependentPrimariesError, "zero polynomial among primaries"),
        (lambda s, o: ConstrainedSystem(s, poly("q1", s), (poly("p1", s), poly("2*p1", s))),
         DependentPrimariesError,
         "primary constraints are linearly dependent over the rationals"),
    ],
    ids=["space", "name-count", "duplicate-names", "primary-space", "zero", "dependent"],
)
def test_constrained_system_validation(space2, space3, build, error, message):
    with pytest.raises(error) as err:
        build(space2, space3)
    assert str(err.value) == message


# ----------------------------------------------------------------------
# GeneratorSet
# ----------------------------------------------------------------------
def test_generator_set_fields(space2):
    generators = (poly("q1*p1", space2), poly("q2*p2", space2))
    by_position = GeneratorSet(("A", "B"), generators)
    by_keyword = GeneratorSet(names=("A", "B"), generators=generators)
    for gens in (by_position, by_keyword):
        assert gens.names == ("A", "B")
        assert gens.generators is generators
        assert len(gens) == 2
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert by_position != GeneratorSet(("A", "C"), generators)
    assert repr(by_position) == f"GeneratorSet(names=('A', 'B'), generators={generators!r})"
    with pytest.raises(AttributeError):
        by_position.names = ("X", "Y")
    with pytest.raises(AttributeError):
        by_position.extra = 1


@pytest.mark.parametrize(
    "names, texts, message",
    [
        ((), (), "generator set must be nonempty"),
        (("A",), ("q1", "p1"), "one name per generator required"),
        (("A", "A"), ("q1", "p1"), "generator names must be unique"),
        (("A",), ("0",), "zero polynomial among generators"),
        (("A", "B"), ("q1", "3*q1"), "generators are linearly dependent over the rationals"),
    ],
    ids=["empty", "name-count", "duplicate-names", "zero", "dependent"],
)
def test_generator_set_validation(space2, names, texts, message):
    with pytest.raises(ValueError) as err:
        GeneratorSet(names, tuple(poly(t, space2) for t in texts))
    assert str(err.value) == message


def test_generator_set_rejects_mixed_spaces(space2, space3):
    with pytest.raises(ValueError) as err:
        GeneratorSet(("A", "B"), (poly("q1", space2), poly("p1", space3)))
    assert str(err.value) == "generators must share one phase space"


def test_validated_constructors_store_tuples(space3):
    h_d = poly("q1*p2 + q2*p3", space3)
    from_lists = ConstrainedSystem(space3, h_d, [poly("p1", space3)], ["P1"])
    from_tuples = ConstrainedSystem(space3, h_d, (poly("p1", space3),), ("P1",))
    assert from_lists.primaries == (poly("p1", space3),)
    assert from_lists.primary_names == ("P1",)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    gens = GeneratorSet(["D1"], [poly("q1*p1", space3)])
    assert (gens.names, gens.generators) == (("D1",), (poly("q1*p1", space3),))
    assert gens == GeneratorSet(("D1",), (poly("q1*p1", space3),))
    assert hash(gens) == hash(GeneratorSet(("D1",), (poly("q1*p1", space3),)))
    chain = generate_chain(from_lists)
    assert first_class_check(chain).all_first_class
    assert classify(gens, from_lists, chain).overall is VerdictClass.DYNAMICAL_SYMMETRY


# ----------------------------------------------------------------------
# StructureConstants
# ----------------------------------------------------------------------
def _su2_tensor():
    """{A_i, A_j} = eps_ijk A_k."""
    n = 3
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k][i][j] = Fraction(1)
        c[k][j][i] = Fraction(-1)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def test_structure_constants_derived_fields():
    tensor = _su2_tensor()
    by_position = StructureConstants(("L1", "L2", "L3"), tensor)
    by_keyword = StructureConstants(names=("L1", "L2", "L3"), tensor=tensor)
    for constants in (by_position, by_keyword):
        assert constants.names == ("L1", "L2", "L3")
        assert constants.tensor is tensor
        assert constants.nonzero == (
            (0, 1, 2, 1), (0, 2, 1, -1), (1, 0, 2, -1),
            (1, 2, 0, 1), (2, 0, 1, 1), (2, 1, 0, -1),
        )
        assert constants.antisymmetric is True
        assert constants.jacobi is True
        assert not constants.is_abelian()
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == (
        f"StructureConstants(names=('L1', 'L2', 'L3'), tensor={tensor!r}, "
        "antisymmetric=True, jacobi=True)"
    )
    with pytest.raises(AttributeError):
        by_position.jacobi = False
    with pytest.raises(AttributeError):
        by_position.extra = 1


def test_structure_constants_flags_broken_laws():
    zero, one = Fraction(0), Fraction(1)
    # C[0][0][1] = 1 with no matching C[0][1][0] = -1
    lopsided = ((( zero, one), (zero, zero)), ((zero, zero), (zero, zero)))
    constants = StructureConstants(("A", "B"), lopsided)
    assert constants.nonzero == ((0, 0, 1, 1),)
    assert constants.antisymmetric is False
    abelian = StructureConstants(("A",), (((zero,),),))
    assert abelian.nonzero == ()
    assert abelian.antisymmetric is True and abelian.jacobi is True
    assert abelian.is_abelian()
    assert abelian != StructureConstants(("B",), (((zero,),),))


def test_structure_constants_flags_a_jacobi_failure():
    # {A0, A1} = A0, {A1, A2} = A1, {A2, A0} = A2: antisymmetric, but the
    # cyclic sum {A0, {A1, A2}} + ... is A0 + A1 + A2
    n = 3
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in ((0, 1, 0), (1, 2, 1), (2, 0, 2)):
        c[k][i][j] = Fraction(1)
        c[k][j][i] = Fraction(-1)
    constants = StructureConstants(("A0", "A1", "A2"), tuple(
        tuple(tuple(row) for row in plane) for plane in c
    ))
    assert constants.antisymmetric is True
    assert constants.jacobi is False


# ----------------------------------------------------------------------
# Copies and pickles
# ----------------------------------------------------------------------
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}

VALUES = {
    "space": lambda: PhaseSpace(3, ("E", "m")),
    "polynomial": lambda: poly("1/2*q1^2*p2 - m*p3 + 3", PhaseSpace(3, ("E", "m"))),
    "em_modes_2": lambda: em_modes(2),
    "chain": lambda: generate_chain(three_level_chain().system),
    "so3": lambda: closure_and_structure_constants(
        central_oscillator().generator_sets["rotations"]
    ),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("build", VALUES.values(), ids=list(VALUES))
def test_values_copy_and_pickle(build, round_trip):
    value = build()
    copied = round_trip(value)
    assert type(copied) is type(value)
    assert copied == value


def test_round_trips_rebuild_private_slots():
    space = pickle.loads(pickle.dumps(PhaseSpace(2)))
    assert space.index("p2") == 3
    system = pickle.loads(pickle.dumps(three_level_chain().system))
    on_shell = system.h_d - PhasePolynomial.variable(system.space, "E")
    names, generators = generate_chain(system).on_shell_generators(True)
    assert names[-1] == "H_d-E"
    assert generators[-1] == on_shell
    assert copy.deepcopy(system)._on_shell == on_shell


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
def test_shipped_models_copy_and_pickle(name, round_trip):
    # The default legend is a read-only mapping proxy, which cannot be
    # pickled; a copy carries a plain dict with the same entries.
    model = SHIPPED_MODELS[name]()
    copied = round_trip(model)
    assert type(copied) is ModelDescriptor
    assert copied == model
    assert dict(copied.variable_legend) == dict(model.variable_legend)
    assert generate_chain(copied.system).counts == model.expected.counts
