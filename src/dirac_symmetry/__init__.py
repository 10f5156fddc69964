"""Exact constraint-chain generation and dynamical-symmetry verification
for polynomial Hamiltonian systems."""

from .chain import (
    ConstrainedSystem,
    ConstraintChain,
    FirstClassReport,
    RationalSpan,
    TotalHamiltonian,
    assemble_total_hamiltonian,
    first_class_check,
    generate_chain,
    recombine_level,
)
from .errors import (
    ChainBeyondTertiaryError,
    DependentPrimariesError,
    DiracSymmetryError,
    InconsistentSystemError,
    ModelFileError,
    ParseError,
    ProductTooLargeError,
    ReservedParameterError,
    SearchTooLargeError,
    SpaceMismatchError,
    UndeclaredIdentifierError,
)
from .expressions import parse_polynomial
from .membership import (
    CoefficientMode,
    IdealDecomposition,
    NotFound,
    decompose,
    default_degree_bound,
    weak_equals,
)
from .modelfile import ModelFile, ModelOptions, load_model_file, parse_model_text
from .phase import PhasePolynomial, PhaseSpace, poisson
from .symmetry import (
    CommutationClass,
    GeneratorSet,
    NotClosed,
    StructureConstants,
    SymmetryVerdict,
    VerdictClass,
    check_counts,
    check_dynamical_symmetry,
    check_level_preservation,
    classify,
    closure_and_structure_constants,
)

__version__ = "0.1.0"

# Names of ``models``, which is imported on first use of one of them, or of
# the submodule itself (PEP 562 ``__getattr__``): the command line needs none.
_MODELS_NAMES = (
    "ExpectedBehavior",
    "ModelDescriptor",
    "SHIPPED_MODELS",
    "central_oscillator",
    "em_modes",
    "export_model_file",
    "three_level_chain",
)


def __getattr__(name: str):
    if name != "models" and name not in _MODELS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    models = importlib.import_module(f"{__name__}.models")
    globals().update((n, getattr(models, n)) for n in _MODELS_NAMES)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_MODELS_NAMES})


__all__ = [
    "ChainBeyondTertiaryError",
    "CoefficientMode",
    "CommutationClass",
    "ConstrainedSystem",
    "ConstraintChain",
    "DependentPrimariesError",
    "DiracSymmetryError",
    "ExpectedBehavior",
    "FirstClassReport",
    "GeneratorSet",
    "IdealDecomposition",
    "InconsistentSystemError",
    "ModelDescriptor",
    "ModelFile",
    "ModelFileError",
    "ModelOptions",
    "NotClosed",
    "NotFound",
    "ParseError",
    "PhasePolynomial",
    "PhaseSpace",
    "ProductTooLargeError",
    "RationalSpan",
    "ReservedParameterError",
    "SHIPPED_MODELS",
    "SearchTooLargeError",
    "SpaceMismatchError",
    "StructureConstants",
    "SymmetryVerdict",
    "TotalHamiltonian",
    "UndeclaredIdentifierError",
    "VerdictClass",
    "assemble_total_hamiltonian",
    "central_oscillator",
    "check_counts",
    "check_dynamical_symmetry",
    "check_level_preservation",
    "classify",
    "closure_and_structure_constants",
    "decompose",
    "default_degree_bound",
    "em_modes",
    "export_model_file",
    "first_class_check",
    "generate_chain",
    "load_model_file",
    "parse_model_text",
    "parse_polynomial",
    "poisson",
    "recombine_level",
    "three_level_chain",
    "weak_equals",
]
