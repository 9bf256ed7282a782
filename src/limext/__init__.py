"""Exact structure theory for abelian groups.

Smith normal form over Z, block descriptors for infinite abelian groups with
their completion functors, Ext classification of rank-1 torsion-free groups,
derived limits of constant-rank inverse systems, classification of p-local
submodules of Q^r, p-adic valuation bounds, and closed-form kernel-structure
reports for arithmetic families.

Importing the package runs none of its modules.  Each submodule is in
``sys.modules`` from the start, loaded lazily, and runs when something first
reads an attribute of it; a public name such as ``limext.IntMatrix`` runs the
one submodule that defines it (and whatever that submodule imports).  First
reads are safe from any number of threads.
"""

import sys as _sys
from _thread import RLock as _RLock
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec
from types import ModuleType as _ModuleType

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


# Serialises every first load: a thread that reads a module while another
# runs its code waits for it.  Reentrant, because a module's code reads the
# modules it imports, and so runs them, while the lock is held.
_LOAD_LOCK = _RLock()


class _Lazy(_ModuleType):
    """A module whose code runs when one of its attributes is first read.

    The class becomes ``ModuleType`` only after the code has run, so no
    thread sees a plain module that is still empty.  While the code runs,
    ``__spec__.loader_state`` is set, and the loading thread (the only one
    that can hold the lock then) reads the module as it stands.  If the code
    raises, the module gets back the namespace it had before and stays lazy,
    so the next read runs the code again, as a failed import is retried.
    """

    def __getattribute__(self, attr):
        get = _ModuleType.__getattribute__
        with _LOAD_LOCK:
            spec = get(self, "__spec__")
            if type(self) is _Lazy and spec.loader_state is None:
                namespace = get(self, "__dict__")
                before = dict(namespace)
                spec.loader_state = "running"
                try:
                    spec.loader.exec_module(self)
                except BaseException:
                    namespace.clear()
                    namespace.update(before)
                    raise
                finally:
                    spec.loader_state = None
                _ModuleType.__setattr__(self, "__class__", _ModuleType)
        return get(self, attr)

    # Setting or deleting runs the code first, so that it cannot overwrite
    # what is set or bring back what is deleted.
    def __setattr__(self, attr, value):
        _Lazy.__getattribute__(self, "__dict__")
        _ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _Lazy.__getattribute__(self, "__dict__")
        _ModuleType.__delattr__(self, attr)


def _register_lazily(name):
    spec = _find_spec(f"{__name__}.{name}")
    module = _module_from_spec(spec)
    module.__class__ = _Lazy
    _sys.modules[spec.name] = module
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
