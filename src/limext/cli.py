"""Batch command-line front end with JSON input and output.

Every operation is exposed through a subcommand taking a single JSON
payload (inline argument, file, or stdin) and writing a JSON result to
stdout or a file.  Integers travel as decimal strings so arbitrary
precision survives the wire; cardinal multiplicities are plain integers or
the string "continuum".  Output key order is fixed, so identical input
yields byte-identical output.

Exit codes: 0 success, 1 domain error (structured error JSON), 2 malformed
input (bad JSON or schema violation).  A result with an integer past the
int-to-str digit limit is ``output-too-large`` and any other exception
escaping a handler is ``internal-error``; both exit 1 with error JSON.

Importing this module runs no library module.  The library modules it binds
are the package's lazily loaded ones (see ``limext/__init__.py``): each runs
when a handler first reads a name from it, so a cold call runs only the
modules its subcommand needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from gettext import gettext
from importlib import resources

from . import (descriptors, errors, fg_groups, functors, invariants, inverse_systems, matrices,
               rank1, submodules, valuations)


class SchemaViolation(Exception):
    pass


@functools.cache
def _schema_document() -> dict:
    """The schema document, read and parsed once per process: one body per
    subcommand beside the shared ``$defs`` that the bodies refer to."""
    return json.loads(resources.files("limext").joinpath("schema.json").read_text())


def _refs(node):
    """Names of the definitions that ``node`` refers to itself, not through
    other definitions."""
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"].removeprefix("#/$defs/")
        for value in node.values():
            yield from _refs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _refs(value)


def load_schema(name: str) -> dict:
    """A subcommand's schema as a self-contained document: its body plus the
    shared definitions the body reaches, directly or through other
    definitions.  A body that is a single ``$ref`` (``snf`` is a matrix) is
    replaced by its target.  The result is a fresh copy."""
    import copy

    if name not in SUBCOMMANDS:
        raise SchemaViolation(f"unknown subcommand {name!r}")
    document = _schema_document()
    shared, body = document["$defs"], document[name]
    if "$ref" in body:
        body = shared[next(_refs(body))]
    reached, todo = {}, list(_refs(body))
    while todo:
        ref = todo.pop()
        if ref not in reached:
            reached[ref] = shared[ref]
            todo.extend(_refs(shared[ref]))
    return copy.deepcopy({**body, "$defs": reached})


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _length_bound(schema: dict) -> int | None:
    """``maxLength`` capped at the int-to-str digit limit in force now: every
    bounded string is a digit string, which int() refuses past that limit,
    however the schema bounds it."""
    bound = schema.get("maxLength")
    return bound if bound is None else min(bound, _digit_limit() or bound)


def _resolve(schema: dict, defs: dict) -> dict:
    """The definition that a local ``$ref`` names, or else the schema itself."""
    if "$ref" in schema:
        return defs[schema["$ref"].removeprefix("#/$defs/")]
    return schema


_TYPE_CHECKS = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "boolean": lambda x: isinstance(x, bool),
}


def _validate(instance, schema: dict, path: str = "$", defs: dict | None = None) -> None:
    """Validate against the subset of JSON Schema used by the published files:
    oneOf, enum, type, maxLength and pattern (strings only), properties,
    required, additionalProperties, propertyNames, items, minItems, and local
    ``$ref`` ("#/$defs/<name>"), looked up in ``defs``, which defaults to the
    root schema's ``$defs``.  Patterns must match the whole string, and
    ``maxLength`` is capped at the interpreter's int-to-str digit limit.
    """
    defs = schema.get("$defs", {}) if defs is None else defs
    schema = _resolve(schema, defs)
    if "oneOf" in schema:
        errors = []
        for option in schema["oneOf"]:
            try:
                _validate(instance, option, path, defs)
                return
            except SchemaViolation as exc:
                errors.append(str(exc))
        raise SchemaViolation(f"{path}: no schema alternative matched "
                              f"({'; '.join(errors)})")
    if "enum" in schema:
        if instance not in schema["enum"]:
            raise SchemaViolation(f"{path}: expected one of {schema['enum']}, "
                                  f"got {instance!r}")
        return
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            raise SchemaViolation(f"{path}: expected {' or '.join(types)}")
    if isinstance(instance, str):
        bound = _length_bound(schema)
        if bound is not None and len(instance) > bound:
            raise SchemaViolation(f"{path}: expected at most {bound} characters")
        if "pattern" in schema and not re.fullmatch(schema["pattern"], instance):
            raise SchemaViolation(f"{path}: {instance!r} does not match "
                                  f"{schema['pattern']}")
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in instance:
                raise SchemaViolation(f"{path}: missing required key {key!r}")
        if "propertyNames" in schema:
            for key in instance:
                _validate(key, schema["propertyNames"], path, defs)
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                _validate(value, props[key], f"{path}.{key}", defs)
            elif extra is False:
                raise SchemaViolation(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _validate(value, extra, f"{path}.{key}", defs)
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            raise SchemaViolation(f"{path}: expected at least "
                                  f"{schema['minItems']} items")
        if "items" in schema:
            items = _resolve(schema["items"], defs)
            if items.keys() <= _SCALAR_KEYWORDS:
                _validate_scalars(instance, items, path, defs)
            else:
                for i, item in enumerate(instance):
                    _validate(item, items, f"{path}[{i}]", defs)


# The keywords a scalar's schema may use for _validate_scalars to check it;
# the int and uint entries of every matrix and tail diagonal use just these.
_SCALAR_KEYWORDS = frozenset({"type", "maxLength", "pattern"})


def _validate_scalars(instance: list, items: dict, path: str, defs: dict) -> None:
    """Check each item of ``instance`` against ``items``, a schema that uses
    only ``_SCALAR_KEYWORDS``, with one inline test per item instead of one
    ``_validate`` call.  The test accepts only what ``_validate`` accepts; an
    item it does not accept goes to ``_validate``, which raises the message
    it always raises.  The digit limit is read on each call, since it can be
    changed at any time."""
    types = items.get("type", ("string", "integer"))
    if isinstance(types, str):
        types = (types,)
    strings, integers = "string" in types, "integer" in types
    bound = _length_bound(items)
    bound = sys.maxsize if bound is None else bound
    match = re.compile(items.get("pattern", "(?s).*")).fullmatch
    for i, item in enumerate(instance):
        cls = type(item)
        if cls is str and strings and len(item) <= bound and match(item):
            continue
        if cls is int and integers:
            continue
        _validate(item, items, f"{path}[{i}]", defs)


# ---------------------------------------------------------------------------
# Subcommand handlers: payload dict in, JSON-ready dict out.


def _run_snf(payload):
    u, d, v = matrices.smith_normal_form(matrices.IntMatrix.from_json(payload))
    return {"U": u.to_json(), "D": d.to_json(), "V": v.to_json()}


def _run_group(payload):
    op = payload["op"]
    if op == "cokernel":
        return {"result": fg_groups.cokernel_structure(
            matrices.IntMatrix.from_json(payload["matrix"])).to_json()}
    if op == "presentation":
        pres = fg_groups.GroupPresentation(int(payload["generators"]),
                                           matrices.IntMatrix.from_json(payload["relations"]))
        return {"result": pres.structure().to_json()}
    if op == "finite-coefficients":
        quotient, torsion = fg_groups.finite_coefficients(
            fg_groups.GroupStructure.from_json(payload["group"]), int(payload["modulus"])
        )
        return {"quotient": quotient.to_json(), "torsion": torsion.to_json()}
    if op == "direct-sum":
        total = fg_groups.direct_sum(
            *[fg_groups.GroupStructure.from_json(g) for g in payload["groups"]])
        return {"result": total.to_json()}
    if op == "check-exact":
        return {"result": matrices.check_exact_at(
            matrices.IntMatrix.from_json(payload["f"]), matrices.IntMatrix.from_json(payload["g"])
        )}
    raise SchemaViolation(f"unknown group op {op!r}")


def _run_descriptor(payload):
    op = payload["op"]
    if op == "extension-classes":
        classes = functors.extension_classes(
            descriptors.GroupDescriptor.from_json(payload["divisible"]),
            fg_groups.GroupStructure.from_json(payload["finite"]),
        )
        ordered = sorted(classes, key=lambda d: json.dumps(d.to_json(), sort_keys=True))
        return {"result": [d.to_json() for d in ordered]}
    g = descriptors.GroupDescriptor.from_json(payload["group"])
    p = int(payload["p"])
    if op == "tate":
        return {"result": functors.tate_module(g, p).to_json()}
    if op == "max-divisible":
        return {"result": functors.max_p_divisible(g, p).to_json()}
    if op == "lim1":
        return {"result": functors.lim1_mult_p(g, p).to_json()}
    if op == "finite-coefficients":
        quotient, torsion = functors.finite_coefficients_descriptor(
            g, p, int(payload.get("j", 1)))
        return {"quotient": quotient.to_json(), "torsion": torsion.to_json()}
    if op == "six-term":
        return {"result": functors.six_term_mult_p(g, p).to_json()}
    if op == "completion-cokernel":
        nxt = descriptors.GroupDescriptor.from_json(payload["next"])
        return {"result": functors.completion_cokernel(g, nxt, p).to_json()}
    raise SchemaViolation(f"unknown descriptor op {op!r}")


def _run_lim1(payload):
    validated = inverse_systems.validate_system(
        inverse_systems.InverseSystemSpec.from_json(payload))
    cls = inverse_systems.lim1_classify(validated, payload.get("strategy", "recursive"))
    return {
        "class": cls.to_json(),
        "lim": inverse_systems.lim_structure(validated).to_json(),
        "mittag_leffler": inverse_systems.is_mittag_leffler(validated),
        "cokernel_prime_support": [str(q) for q in validated.cokernel_prime_support],
        "single_prime_cokernels": (
            str(validated.p_group_prime) if validated.p_group_prime else None
        ),
    }


def _run_ml(payload):
    return {"mittag_leffler": inverse_systems.is_mittag_leffler(
        inverse_systems.InverseSystemSpec.from_json(payload))}


def _run_ext_rank1(payload):
    op = payload["op"]
    if op == "from-multipliers":
        profile = rank1.eprofile_from_multipliers(
            [int(a) for a in payload.get("prefix", [])],
            [int(a) for a in payload["period"]],
        )
        return {"result": profile.to_json()}
    profile = rank1.EProfile.from_json(payload["profile"])
    if op == "ext":
        return {"result": rank1.ext_to_z(profile).to_json()}
    if op == "hom":
        return {"result": rank1.hom_to_z(profile).to_json()}
    if op == "quotient":
        return {"result": rank1.quotient_mod_z(profile).to_json()}
    if op == "is-free":
        return {"result": rank1.is_free(profile)}
    raise SchemaViolation(f"unknown ext-rank1 op {op!r}")


def _run_classify_submodule(payload):
    pair = submodules.classify_submodule(submodules.TaggedGenerators.from_json(payload))
    return {"result": pair.to_json()}


def _run_valuation(payload):
    op = payload["op"]
    p = int(payload["p"])
    if op == "factorial":
        return {"result": str(valuations.vp_factorial(p, int(payload["n"])))}
    if op == "binomial":
        return {"result": str(valuations.vp_binomial(p, int(payload["z"]), int(payload["u"])))}
    if op == "lemma":
        return {"result": valuations.check_binomial_lemma(
            p, int(payload["n"]), int(payload["s"]))}
    if op == "unit-power":
        ring = valuations.TruncatedPolyRing(p, int(payload["n"]), int(payload["degree_bound"]))
        return {"result": valuations.unit_power_check(ring, int(payload["s"]))}
    raise SchemaViolation(f"unknown valuation op {op!r}")


def _run_brauer(payload):
    op = payload.get("op", "report")
    if op == "report":
        return invariants.invariant_report(invariants.BrauerInvariants.from_json(payload)).to_json()
    if op == "r":
        return {"result": str(invariants.compute_r(
            int(payload["rho_Xs"]), int(payload["rho_X"]), int(payload["I"])
        ))}
    if op == "corank":
        return {"result": str(invariants.generic_fiber_brauer_corank(
            payload["l_equals_p"], int(payload["f"]), int(payload["h01"]),
            int(payload["dimVlBrXbarGK"]),
        ))}
    if op == "corank-relation":
        return {"result": str(invariants.model_corank_relation(
            int(payload["r"]), int(payload["dimVlBrXs"])
        ))}
    if op == "k3-abelian":
        return {"result": invariants.k3_abelian_structure(
            int(payload["r"]), int(payload["p"])).to_json()}
    if op == "picard-rank":
        return {"result": str(invariants.abelian_surface_picard_rank(
            payload["shape"],
            int(payload["count1"]) if "count1" in payload else None,
            int(payload["count2"]) if "count2" in payload else None,
            int(payload["p"]) if "p" in payload else None,
        ))}
    if op == "jacobian-example":
        return invariants.jacobian_example_report(int(payload["p"])).to_json()
    raise SchemaViolation(f"unknown brauer op {op!r}")


def _run_report(payload):
    report = invariants.invariant_report(invariants.BrauerInvariants.from_json(payload))
    return {"report": report.to_json(), "summary": report.summary()}


_HANDLERS = {
    "snf": _run_snf,
    "group": _run_group,
    "descriptor": _run_descriptor,
    "lim1": _run_lim1,
    "ml": _run_ml,
    "ext-rank1": _run_ext_rank1,
    "classify-submodule": _run_classify_submodule,
    "valuation": _run_valuation,
    "brauer": _run_brauer,
    "report": _run_report,
}

SUBCOMMANDS = tuple(_HANDLERS)


def _format(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _error(code: str, message: str) -> str:
    """A front-end error document: ``{"error": {"code", "message"}}``."""
    return _format({"error": {"code": code, "message": message}})


def run(cmd: str, raw: str) -> tuple[int, str]:
    """One request: subcommand ``cmd`` (one of ``SUBCOMMANDS``) on the JSON
    text ``raw``.  Parses, validates, dispatches and formats, and returns the
    exit status with the text to write: the result, or the error document of
    any failure.  It writes nothing, and raises nothing."""
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        return 2, _error("malformed-json", str(exc))
    except RecursionError:  # arrays or objects nested past the parser's depth limit
        return 2, _error("malformed-json", "$: nesting too deep to parse")
    except ValueError:  # an integer literal past the int-to-str digit limit
        return 2, _error("schema-violation",
                         f"$: integer literal longer than {_digit_limit()} digits")
    document = _schema_document()
    try:
        _validate(payload, document[cmd], "$", document["$defs"])
    except SchemaViolation as exc:
        return 2, _error("schema-violation", str(exc))
    try:
        return 0, _format(_HANDLERS[cmd](payload))
    except errors.DomainError as exc:
        return 1, _format({"error": exc.to_json()})
    except Exception as exc:
        # The int-to-str digit limit raises a plain ValueError; only its
        # message tells it apart from a fault in the library.
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            return 1, _error("output-too-large", f"result has an integer of more than "
                             f"{_digit_limit()} digits, past the int-to-str limit")
        return 1, _error("internal-error", f"{type(exc).__name__}: {exc}")


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, built without ``-h``, which adds ``-h`` and the
    subcommand's arguments when it first parses.  argparse parses with the
    one subparser that argv names (``limext <cmd> -h`` too), so a call builds
    one subcommand's arguments instead of ten; usage, help and errors are
    those of the eager parser."""

    _arguments_added = False

    def parse_known_args(self, args=None, namespace=None):
        if not self._arguments_added:
            self._arguments_added = True
            # What add_help=True adds, with argparse's own message lookup.
            self.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                              help=gettext("show this help message and exit"))
            self.add_argument(
                "payload", nargs="?", default=None,
                help="JSON payload (omit or use '-' to read stdin)",
            )
            self.add_argument("--input", "-i", default=None, help="read payload from a file")
            self.add_argument("--output", "-o", default=None, help="write result to a file")
            self.add_argument(
                "--schema", action="store_true", dest="print_schema",
                help="print this subcommand's schema and exit",
            )
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limext",
        description="Batch JSON interface to the structure-theory library.",
    )
    parser.add_argument(
        "--schema", metavar="SUBCOMMAND", default=None,
        help="print the JSON schema for a subcommand and exit",
    )
    sub = parser.add_subparsers(dest="subcommand", parser_class=_SubcommandParser)
    for name in SUBCOMMANDS:
        sub.add_parser(name, help=f"run the {name} operation", add_help=False)
    return parser


def main(argv=None) -> int:
    """Parse argv, then print a schema or read the payload and ``run`` it,
    and write the text once, to stdout or ``--output``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None and args.schema is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.subcommand is None or args.print_schema:
        try:
            status, text = 0, _format(load_schema(args.subcommand or args.schema))
        except SchemaViolation as exc:
            status, text = 2, _error("schema-violation", str(exc))
    elif args.input:
        try:
            with open(args.input) as fh:
                raw = fh.read()
        except OSError as exc:
            status, text = 2, _error("input-unreadable", str(exc))
        else:
            status, text = run(args.subcommand, raw)
    else:
        status, text = run(args.subcommand,
                           sys.stdin.read() if args.payload in (None, "-") else args.payload)
    output = getattr(args, "output", None)
    if output and output != "-":
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
