"""What importing the package and the CLI runs, checked in fresh interpreters."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import limext

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ("errors", "numutil", "matrices", "fg_groups", "descriptors", "functors", "rank1",
           "inverse_systems", "submodules", "valuations", "invariants")

# The public names of the package before it became lazy.
PUBLIC = [
    "BrauerInvariants", "CONTINUUM", "ContinuumError", "DimensionError", "DomainError",
    "EProfile", "ExtCardinal", "GroupDescriptor", "GroupPresentation", "GroupStructure",
    "INFINITE", "InconsistentInputsError", "IntMatrix", "InvalidSystemError",
    "InverseSystemSpec", "KernelStructure", "Lim1Class", "ModuleHypothesisError",
    "NotPrimeError", "PrimeMultiplicity", "STPair", "SixTermSequence", "SpanError",
    "StructureReport", "TRIVIAL_GROUP", "TaggedGenerator", "TaggedGenerators",
    "TruncatedPolyRing", "UnsupportedInputError", "ValidatedSystem", "ZERO_DESCRIPTOR",
    "abelian_surface_picard_rank", "check_binomial_lemma", "check_exact_at",
    "classify_submodule", "cokernel_structure", "completion_cokernel", "compute_r",
    "direct_sum", "drop_prefix", "eprofile_from_multipliers", "ext_to_z", "extension_classes",
    "extension_shape", "finite_coefficients", "finite_coefficients_descriptor",
    "finite_quotients", "generic_fiber_brauer_corank", "hom_to_z", "invariant_report",
    "is_free", "is_mittag_leffler", "is_unimodular", "jacobian_example_report",
    "k3_abelian_structure", "kernel_structure", "lim1_classify", "lim1_mult_p",
    "lim_structure", "max_p_divisible", "model_corank_relation", "quotient_mod_z",
    "six_term_mult_p", "smith_normal_form", "tate_module", "unit_power_check",
    "validate_system", "vp_binomial", "vp_factorial",
]

# Prints, as JSON, which library modules have run after importing the CLI
# and after one call.  A lazily loaded module is an instance of a ModuleType
# subclass until it runs.
PROBE = """
import io, json, sys, types
from contextlib import redirect_stdout
LIBRARY = %r

def ran():
    return [m for m in LIBRARY if type(sys.modules["limext." + m]) is types.ModuleType]

had_dataclasses = "dataclasses" in sys.modules
import limext.cli
steps = {"import": ran(), "dataclasses": "dataclasses" in sys.modules and not had_dataclasses}
with redirect_stdout(io.StringIO()):
    code = limext.cli.main(%r)
steps["call"] = [code, ran()]
print(json.dumps(steps))
"""


def run_probe(code: str):
    """Run ``code`` in a fresh interpreter with ``src`` on the path; parse its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def probe_call(subcommand: str, payload: dict):
    return run_probe(PROBE % (LIBRARY, [subcommand, json.dumps(payload)]))


def test_cli_import_runs_no_library_module():
    steps = probe_call("valuation", {"op": "factorial", "p": "2", "n": "10"})
    assert steps == {"import": [], "dataclasses": False,
                     "call": [0, ["errors", "numutil", "valuations"]]}


_GROUPS = ["errors", "numutil", "matrices", "fg_groups"]
_DESCRIPTORS = _GROUPS + ["descriptors"]
_SYSTEM = {"rank": "1", "prefix": [], "tail": {"period": "1", "diagonals": [["2"]]}}
_BRAUER = {"p": "19", "f": "1", "h01": "2", "h02": "1", "rho_X": "1", "rho_Xs": "4",
           "I": "1", "s": "1", "special_fiber_brauer_finite": True}
# One cold call per subcommand: (subcommand, payload, exit code, modules run).
COLD_CALLS = {
    "snf": ("snf", {"rows": "1", "cols": "1", "entries": [["6"]]}, 0, ["errors", "matrices"]),
    "group-cokernel": ("group", {
        "op": "cokernel", "matrix": {"rows": "1", "cols": "1", "entries": [["6"]]},
    }, 0, _GROUPS),
    "group-check-exact": ("group", {
        "op": "check-exact",
        "f": {"rows": "2", "cols": "1", "entries": [["1"], ["0"]]},
        "g": {"rows": "1", "cols": "2", "entries": [["0", "1"]]},
    }, 0, ["errors", "matrices"]),
    "descriptor": ("descriptor", {
        "op": "tate", "group": {"pruefer": {"default": 1, "exceptions": {}}}, "p": "3",
    }, 0, _DESCRIPTORS + ["functors"]),
    "lim1": ("lim1", _SYSTEM, 0, _DESCRIPTORS + ["rank1", "inverse_systems"]),
    "ml": ("ml", _SYSTEM, 0, _DESCRIPTORS + ["rank1", "inverse_systems"]),
    "ext-rank1": ("ext-rank1", {"op": "from-multipliers", "prefix": ["6"], "period": ["5"]},
                  0, _DESCRIPTORS + ["rank1"]),
    "classify-submodule": ("classify-submodule", {
        "rank": "1", "prime": "3", "generators": [{"vector": ["1"], "tag": "local"}],
    }, 0, _DESCRIPTORS + ["submodules"]),
    "brauer": ("brauer", _BRAUER, 0, _DESCRIPTORS + ["submodules", "invariants"]),
    "report": ("report", _BRAUER, 0, _DESCRIPTORS + ["submodules", "invariants"]),
    "schema-violation": ("snf", {"rows": "x"}, 2, []),
}


@pytest.mark.parametrize("case", COLD_CALLS)
def test_cold_call_runs_only_the_modules_it_needs(case):
    subcommand, payload, code, modules = COLD_CALLS[case]
    assert probe_call(subcommand, payload)["call"] == [code, modules]


def test_no_library_module_imports_dataclasses():
    for path in (SRC / "limext").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from limext import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC == limext.__all__
    for name in PUBLIC:
        assert namespace[name] is getattr(limext, name)


def test_brauer_call_leaves_fractions_unimported():
    # Only TaggedGenerators.build needs Fraction; fractions would pull in decimal.
    probe = """
import io, json, sys
from contextlib import redirect_stdout
import limext.cli
with redirect_stdout(io.StringIO()):
    code = limext.cli.main(["brauer", '{"op":"r","rho_Xs":"5","rho_X":"2","I":"1"}'])
print(json.dumps([code, "fractions" in sys.modules, "decimal" in sys.modules]))
"""
    assert run_probe(probe) == [0, False, False]


def test_threads_reading_modules_first_see_them_loaded():
    # Eight threads, released together, each read a name from a module that
    # has not run yet; one module per round.  A loader that made the module
    # plain before running its code lets most threads see it empty.
    probe = """
import json, sys, threading
import limext
FIRST_READS = [("descriptors", "GroupDescriptor"), ("functors", "tate_module"),
               ("invariants", "invariant_report"), ("valuations", "vp_factorial")]
failures, hung = [], 0
sys.setswitchinterval(1e-6)
for module, name in FIRST_READS:
    barrier = threading.Barrier(8)
    def first_read():
        barrier.wait()
        try:
            getattr(getattr(limext, module), name)
        except AttributeError as exc:
            failures.append(str(exc))
    threads = [threading.Thread(target=first_read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    hung += sum(thread.is_alive() for thread in threads)
print(json.dumps([hung, failures]))
"""
    assert run_probe(probe) == [0, []]


def _lazy_module(path):
    """A module of the file at path, lazy as the package's modules are."""
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(path.stem, path))
    module.__class__ = limext._Lazy
    return module


def test_a_module_whose_first_run_raises_runs_again_on_the_next_read(tmp_path, monkeypatch):
    # The failed run leaves neither a half-run namespace nor a plain module:
    # the module stays lazy, and the next read runs its code from the start.
    path = tmp_path / "flaky.py"
    path.write_text("import sys\nruns = getattr(sys, 'flaky_runs', 0) + 1\n"
                    "sys.flaky_runs = runs\n"
                    "if runs == 1:\n    raise RuntimeError('first run fails')\n"
                    "value = 42\n")
    monkeypatch.setattr(sys, "flaky_runs", 0, raising=False)
    module = _lazy_module(path)
    namespace = types.ModuleType.__getattribute__(module, "__dict__")
    before = dict(namespace)

    with pytest.raises(RuntimeError, match="first run fails"):
        module.value
    assert type(module) is limext._Lazy and namespace == before
    assert module.value == 42 and module.runs == 2 == sys.flaky_runs
    assert type(module) is types.ModuleType


def test_names_set_or_deleted_before_the_first_read_stay_so(tmp_path):
    path = tmp_path / "plain.py"
    path.write_text("value = 1\nother = 2\n")
    module = _lazy_module(path)
    module.value = "set"
    assert type(module) is types.ModuleType and module.value == "set"
    module = _lazy_module(path)
    del module.other
    assert type(module) is types.ModuleType and not hasattr(module, "other")
