"""Span tracing of limext from outside the package.

`Tracer.install` replaces chosen library functions by wrappers at every
module that binds them by name (and on their class, for methods), so the
library source stays untouched.  Spans are kept in memory as
[name, start, end, parent, payload, failed] lists, the payload id being
"cycle:slot", and written out when the run ends; self time is a span's
duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

LIMEXT_MODULES = ("limext", "limext.errors", "limext.numutil", "limext.matrices",
                  "limext.fg_groups", "limext.descriptors", "limext.functors", "limext.rank1",
                  "limext.inverse_systems", "limext.submodules", "limext.valuations",
                  "limext.invariants", "limext.cli")

# (module, attribute or Class.method, span name).  Besides the functions the
# per-layer metrics name, the JSON readers and writers are wrapped so that
# cli.main's self time is front-end work only.
SPANS = (
    ("cli", "main", "cli.main"),
    ("matrices", "smith_normal_form", "matrices.smith_normal_form"),
    ("matrices", "check_exact_at", "matrices.check_exact_at"),
    ("matrices", "IntMatrix.determinant", "matrices.determinant"),
    ("matrices", "IntMatrix.rank", "matrices.IntMatrix.rank"),
    ("matrices", "IntMatrix.from_json", "matrices.IntMatrix.from_json"),
    ("matrices", "IntMatrix.to_json", "matrices.IntMatrix.to_json"),
    ("numutil", "prime_factors", "numutil.prime_factors"),
    ("fg_groups", "GroupStructure.from_factors", "fg_groups.from_factors"),
    ("fg_groups", "GroupStructure.to_json", "fg_groups.GroupStructure.to_json"),
    ("fg_groups", "cokernel_structure", "fg_groups.cokernel_structure"),
    ("fg_groups", "direct_sum", "fg_groups.direct_sum"),
    ("fg_groups", "finite_coefficients", "fg_groups.finite_coefficients"),
    ("fg_groups", "GroupPresentation.structure", "fg_groups.GroupPresentation.structure"),
    ("descriptors", "GroupDescriptor.build", "descriptors.build"),
    ("descriptors", "GroupDescriptor.from_json", "descriptors.from_json"),
    ("descriptors", "GroupDescriptor.to_json", "descriptors.to_json"),
    ("functors", "tate_module", "functors.tate_module"),
    ("functors", "max_p_divisible", "functors.max_p_divisible"),
    ("functors", "finite_coefficients_descriptor", "functors.finite_coefficients_descriptor"),
    ("functors", "lim1_mult_p", "functors.lim1_mult_p"),
    ("functors", "six_term_mult_p", "functors.six_term_mult_p"),
    ("functors", "completion_cokernel", "functors.completion_cokernel"),
    ("functors", "extension_classes", "functors.extension_classes"),
    ("functors", "finite_quotients", "functors.finite_quotients"),
    ("rank1", "EProfile.from_json", "rank1.EProfile.from_json"),
    ("rank1", "eprofile_from_multipliers", "rank1.eprofile_from_multipliers"),
    ("rank1", "ext_to_z", "rank1.ext_to_z"),
    ("rank1", "hom_to_z", "rank1.hom_to_z"),
    ("rank1", "quotient_mod_z", "rank1.quotient_mod_z"),
    ("rank1", "is_free", "rank1.is_free"),
    ("inverse_systems", "InverseSystemSpec.from_json", "inverse_systems.InverseSystemSpec.from_json"),
    ("inverse_systems", "validate_system", "inverse_systems.validate_system"),
    ("inverse_systems", "lim1_classify", "inverse_systems.lim1_classify"),
    ("inverse_systems", "lim_structure", "inverse_systems.lim_structure"),
    ("inverse_systems", "is_mittag_leffler", "inverse_systems.is_mittag_leffler"),
    ("submodules", "TaggedGenerators.from_json", "submodules.TaggedGenerators.from_json"),
    ("submodules", "classify_submodule", "submodules.classify_submodule"),
    ("valuations", "check_binomial_lemma", "valuations.check_binomial_lemma"),
    ("valuations", "unit_power_check", "valuations.unit_power_check"),
    ("invariants", "BrauerInvariants.from_json", "invariants.BrauerInvariants.from_json"),
    ("invariants", "invariant_report", "invariants.invariant_report"),
    ("invariants", "jacobian_example_report", "invariants.jacobian_example_report"),
)
# Counted but not timed: schema reads are front-end work inside cli.main.
COUNTERS = (("cli", "load_schema", "cli.load_schema"),)

# Callers that throw the SNF transforms away.
DISCARDING_CALLERS = {"fg_groups.cokernel_structure", "matrices.IntMatrix.rank",
                      "matrices.check_exact_at"}

FUNCTORS = ("tate_module", "max_p_divisible", "finite_coefficients_descriptor", "lim1_mult_p",
            "six_term_mult_p", "completion_cokernel", "extension_classes", "finite_quotients")

# Per-layer metrics: (name, unit, better).
LAYER_METRICS = (
    [("cli.main.self_ms", "ms", "lower"), ("cli.load_schema.calls", "count", "lower"),
     ("cli.emit_bytes", "bytes", "lower"), ("cli.import_ms", "ms", "lower")]
    + [(f"cli.import_ms.{m}", "ms", "lower") for m in LIMEXT_MODULES]
    + [("matrices.smith_normal_form.calls", "count", "lower"),
       ("matrices.smith_normal_form.self_ms", "ms", "lower"),
       ("matrices.smith_normal_form.max_entry_bits", "bits", "lower"),
       ("matrices.smith_normal_form.transforms_discarded_ratio", "ratio", "lower"),
       ("matrices.determinant.calls", "count", "lower"),
       ("matrices.determinant.self_ms", "ms", "lower"),
       ("numutil.prime_factors.calls", "count", "lower"),
       ("numutil.prime_factors.self_ms", "ms", "lower"),
       ("numutil.prime_factors.max_input_bits", "bits", "lower"),
       ("numutil.prime_factors.failures", "count", "lower"),
       ("numutil.prime_factors.repeat_ratio", "ratio", "lower"),
       ("fg_groups.from_factors.calls", "count", "lower"),
       ("fg_groups.from_factors.self_ms", "ms", "lower"),
       ("fg_groups.cokernel_structure.self_ms", "ms", "lower"),
       ("descriptors.build.calls", "count", "lower"),
       ("descriptors.build.self_ms", "ms", "lower"),
       ("descriptors.from_json.self_ms", "ms", "lower"),
       ("descriptors.to_json.self_ms", "ms", "lower")]
    + [(f"functors.{f}.{k}", u, "lower") for f in FUNCTORS
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("rank1.ext_to_z.self_ms", "ms", "lower"),
       ("submodules.classify_submodule.self_ms", "ms", "lower"),
       ("valuations.check_binomial_lemma.self_ms", "ms", "lower"),
       ("valuations.unit_power_check.self_ms", "ms", "lower"),
       ("invariants.invariant_report.self_ms", "ms", "lower"),
       ("inverse_systems.validate_system.self_ms", "ms", "lower"),
       ("inverse_systems.lim1_classify.recursive.self_ms", "ms", "lower"),
       ("inverse_systems.lim1_classify.ext_oracle.self_ms", "ms", "lower"),
       ("inverse_systems.lim1_classify.failures", "count", "lower"),
       ("trace.untraced_payloads_per_s", "1/s", "higher"),
       ("trace.traced_payloads_per_s", "1/s", "higher"),
       ("trace.overhead_pct", "%", "lower")]
)


def _lim1_name(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "recursive")
    return f"inverse_systems.lim1_classify.{strategy}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.payload = None
        self.pending: list[tuple] = []
        self.counts: Counter = Counter()
        self.observed: Counter = Counter()
        self.factored: set[int] = set()
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def _span(self, func, name, observe):
        tracer = self
        namer = _lim1_name if name == "inverse_systems.lim1_classify" else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                   tracer.stack[-1] if tracer.stack else -1, tracer.payload, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                rec[5] = True
                raise
            else:
                rec[2] = perf_counter()
            finally:
                tracer.stack.pop()
            if observe:
                # Measured after the span closes; processed between payloads.
                tracer.pending.append((rec[0], args, result))
            return result

        return wrapper

    def _counter(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self, observe):
        """Wrap the SPANS and COUNTERS; with `observe`, also keep SNF results
        and prime_factors arguments for observe_pending."""
        modules = [sys.modules[m] for m in LIMEXT_MODULES]
        plan = [(m, a, n, True) for m, a, n in SPANS] + [(m, a, n, False) for m, a, n in COUNTERS]
        for mod, attr, name, timed in plan:
            owner = sys.modules[f"limext.{mod}"]
            watch = observe and name in ("matrices.smith_normal_form", "numutil.prime_factors")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._span(func, name, watch)
                setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span(orig, name, watch) if timed else self._counter(orig, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, orig))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- per-payload observations --------------------------------------------

    def observe_pending(self):
        """Fold the results kept by the observing wrappers into `observed`."""
        c = self.observed
        for name, args, result in self.pending:
            if name == "matrices.smith_normal_form":
                bits = max((abs(x).bit_length() for m in result for x in m.entries), default=0)
                c["snf_max_entry_bits"] = max(c["snf_max_entry_bits"], bits)
            else:
                n = abs(args[0])
                c["pf_repeats"] += n in self.factored
                self.factored.add(n)
                c["pf_max_input_bits"] = max(c["pf_max_input_bits"], n.bit_length())
        self.pending.clear()

    # -- aggregation ------------------------------------------------------------

    def self_times(self):
        """Per span name: calls, total self seconds and failures; and the
        names of the spans that called SNF."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: Counter = Counter()
        fails: Counter = Counter()
        self_s: Counter = Counter()
        parent_names: Counter = Counter()
        for i, rec in enumerate(self.spans):
            name = rec[0]
            calls[name] += 1
            fails[name] += rec[5]
            self_s[name] += rec[2] - rec[1] - child[i]
            if name == "matrices.smith_normal_form" and rec[3] >= 0:
                parent_names[self.spans[rec[3]][0]] += 1
        return calls, self_s, fails, parent_names

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[0], "start": rec[1], "end": rec[2],
                                     "parent": rec[3], "payload": rec[4],
                                     "failed": rec[5]}) + "\n")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(env, repeats=5):
    """Median `python -X importtime -c 'import limext.cli'` figures, in ms."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import limext.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        own: dict[str, float] = {}
        total = 0.0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cumulative_us, indent, name = m.groups()
            if name in LIMEXT_MODULES:
                own[name] = int(self_us) / 1000
            # Top-level limext entries cover everything `import limext.cli` loads.
            if indent == " " and name.split(".")[0] == "limext":
                total += int(cumulative_us) / 1000
        own["total"] = total
        runs.append(own)
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in runs[0]}
