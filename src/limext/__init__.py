"""Exact structure theory for abelian groups.

Smith normal form over Z, block descriptors for infinite abelian groups with
their completion functors, Ext classification of rank-1 torsion-free groups,
derived limits of constant-rank inverse systems, classification of p-local
submodules of Q^r, p-adic valuation bounds, and closed-form kernel-structure
reports for arithmetic families.

Importing the package runs none of its modules.  Each submodule is in
``sys.modules`` from the start, loaded lazily, and runs when something first
reads an attribute of it; a public name such as ``limext.IntMatrix`` runs the
one submodule that defines it (and whatever that submodule imports).
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec

__version__ = "0.1.0"

# Submodule -> the public names it defines: the one list of both.
_EXPORTS = {
    "errors": (
        "ContinuumError", "DimensionError", "DomainError", "InconsistentInputsError",
        "InvalidSystemError", "ModuleHypothesisError", "NotPrimeError", "SpanError",
        "UnsupportedInputError",
    ),
    "numutil": (),
    "matrices": ("IntMatrix", "check_exact_at", "is_unimodular", "smith_normal_form"),
    "fg_groups": (
        "GroupPresentation", "GroupStructure", "TRIVIAL_GROUP", "cokernel_structure",
        "direct_sum", "finite_coefficients",
    ),
    "descriptors": (
        "CONTINUUM", "ExtCardinal", "GroupDescriptor", "PrimeMultiplicity", "ZERO_DESCRIPTOR",
    ),
    "functors": (
        "SixTermSequence", "completion_cokernel", "extension_classes",
        "finite_coefficients_descriptor", "finite_quotients", "lim1_mult_p", "max_p_divisible",
        "six_term_mult_p", "tate_module",
    ),
    "rank1": (
        "EProfile", "INFINITE", "eprofile_from_multipliers", "ext_to_z", "hom_to_z", "is_free",
        "quotient_mod_z",
    ),
    "inverse_systems": (
        "InverseSystemSpec", "Lim1Class", "ValidatedSystem", "drop_prefix", "is_mittag_leffler",
        "lim1_classify", "lim_structure", "validate_system",
    ),
    "submodules": (
        "KernelStructure", "STPair", "TaggedGenerator", "TaggedGenerators", "classify_submodule",
        "extension_shape", "kernel_structure",
    ),
    "valuations": (
        "TruncatedPolyRing", "check_binomial_lemma", "unit_power_check", "vp_binomial",
        "vp_factorial",
    ),
    "invariants": (
        "BrauerInvariants", "StructureReport", "abelian_surface_picard_rank", "compute_r",
        "generic_fiber_brauer_corank", "invariant_report", "jacobian_example_report",
        "k3_abelian_structure", "model_corank_relation",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def _register_lazily(name):
    spec = _find_spec(f"{__name__}.{name}")
    spec.loader = _LazyLoader(spec.loader)
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)     # defers the real exec to first use
    return module


for _name in _EXPORTS:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)
