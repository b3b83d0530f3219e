"""2-local spectral sequence toolkit.

Formal group law arithmetic over a truncated coefficient ring, Bockstein
style page bookkeeping with three independent engines, symmetric-function
Chern class conjugation, and orientation obstruction certificates, all
over the 2-local integers.
"""

__version__ = "0.1.0"

from .errors import (
    ConstantTermError,
    EmptyBasisError,
    ErjwError,
    FlatnessCertificateError,
    InputError,
    IntegralityError,
    MathInvariantError,
    NonUnitDivisionError,
    PageShapeError,
    PrecisionError,
    ReductionError,
    SymmetryError,
)
from .boring import (
    FlatnessCertificate,
    RingPresentation,
    hat_decompose,
    in_ideal,
    landweber_window_check,
    present,
    reduce,
    residue_certificate,
)
from .bss import (
    FreeModule,
    Page,
    PresentedModule,
    StandardSummand,
    TensoredPage,
    TruncatedOracle,
    admissible_differentials,
    apply_differential,
    closed_form_page,
    flat_base_change,
    homology_step,
    step_engine_page,
)
from .coeff import (
    NamedClass,
    RelationReport,
    filtration_profile,
    named_generators,
    relation_check,
    total_period,
)
from .fgl import GroupLaw, ToyLaw, UniSeries, additive_law
from .graded import GradedSeries, GradingSpec
from .orient import (
    OrientationScan,
    OrientationStep,
    obstruction_residue,
    orientability_scan,
)
from .scalar2 import LocalMatrix, ModuleStructure, TwoLocal, val2
from .symchern import SymmetricContext, thom_ratio

__all__ = [
    "ConstantTermError",
    "EmptyBasisError",
    "ErjwError",
    "FlatnessCertificate",
    "FlatnessCertificateError",
    "FreeModule",
    "GradedSeries",
    "GradingSpec",
    "GroupLaw",
    "InputError",
    "IntegralityError",
    "LocalMatrix",
    "MathInvariantError",
    "ModuleStructure",
    "NamedClass",
    "NonUnitDivisionError",
    "OrientationScan",
    "OrientationStep",
    "Page",
    "PageShapeError",
    "PrecisionError",
    "PresentedModule",
    "ReductionError",
    "RelationReport",
    "RingPresentation",
    "StandardSummand",
    "SymmetricContext",
    "SymmetryError",
    "TensoredPage",
    "ToyLaw",
    "TruncatedOracle",
    "TwoLocal",
    "UniSeries",
    "additive_law",
    "admissible_differentials",
    "apply_differential",
    "closed_form_page",
    "filtration_profile",
    "flat_base_change",
    "hat_decompose",
    "homology_step",
    "in_ideal",
    "landweber_window_check",
    "named_generators",
    "obstruction_residue",
    "orientability_scan",
    "present",
    "reduce",
    "relation_check",
    "residue_certificate",
    "step_engine_page",
    "thom_ratio",
    "total_period",
    "val2",
    "__version__",
]
