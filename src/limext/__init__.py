"""Exact structure theory for abelian groups.

Smith normal form over Z, block descriptors for infinite abelian groups with
their completion functors, Ext classification of rank-1 torsion-free groups,
derived limits of constant-rank inverse systems, classification of p-local
submodules of Q^r, p-adic valuation bounds, and closed-form kernel-structure
reports for arithmetic families.
"""

from types import ModuleType as _ModuleType

from .descriptors import (
    CONTINUUM,
    ExtCardinal,
    GroupDescriptor,
    PrimeMultiplicity,
    ZERO_DESCRIPTOR,
)
from .errors import (
    ContinuumError,
    DimensionError,
    DomainError,
    InconsistentInputsError,
    InvalidSystemError,
    ModuleHypothesisError,
    NotPrimeError,
    SpanError,
    UnsupportedInputError,
)
from .fg_groups import (
    GroupPresentation,
    GroupStructure,
    TRIVIAL_GROUP,
    cokernel_structure,
    direct_sum,
    finite_coefficients,
)
from .functors import (
    SixTermSequence,
    completion_cokernel,
    extension_classes,
    finite_coefficients_descriptor,
    finite_quotients,
    lim1_mult_p,
    max_p_divisible,
    six_term_mult_p,
    tate_module,
)
from .invariants import (
    BrauerInvariants,
    StructureReport,
    abelian_surface_picard_rank,
    compute_r,
    generic_fiber_brauer_corank,
    invariant_report,
    jacobian_example_report,
    k3_abelian_structure,
    model_corank_relation,
)
from .inverse_systems import (
    InverseSystemSpec,
    Lim1Class,
    ValidatedSystem,
    drop_prefix,
    is_mittag_leffler,
    lim1_classify,
    lim_structure,
    validate_system,
)
from .matrices import IntMatrix, check_exact_at, is_unimodular, smith_normal_form
from .rank1 import (
    EProfile,
    INFINITE,
    eprofile_from_multipliers,
    ext_to_z,
    hom_to_z,
    is_free,
    quotient_mod_z,
)
from .submodules import (
    KernelStructure,
    STPair,
    TaggedGenerator,
    TaggedGenerators,
    classify_submodule,
    extension_shape,
    kernel_structure,
)
from .valuations import (
    TruncatedPolyRing,
    check_binomial_lemma,
    unit_power_check,
    vp_binomial,
    vp_factorial,
)

__version__ = "0.1.0"

# The import blocks above are the one list of public names.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
