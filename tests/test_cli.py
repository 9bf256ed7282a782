import argparse
import ast
import hashlib
import io
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from limext.cli import _HANDLERS, SUBCOMMANDS, _build_parser, _schema_document, load_schema, main
from limext.cli import run as run_request


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_snf_round_trip_and_determinism(capsys):
    payload = json.dumps({
        "rows": "2", "cols": "2",
        "entries": [["2", "4"], ["6", "8"]],
    })
    code, out1 = run(capsys, "snf", payload)
    assert code == 0
    code, out2 = run(capsys, "snf", payload)
    assert out1 == out2               # byte-identical on identical input
    data = json.loads(out1)
    assert data["D"]["entries"] == [["2", "0"], ["0", "4"]]
    # Integers travel as decimal strings.
    assert isinstance(data["U"]["entries"][0][0], str)


# SHA-256 of `limext --schema <cmd>`, recorded when each subcommand still had
# its own schema file; the one schema document must print the same bytes.
SCHEMA_SHA256 = {
    "snf": "de11f3dd27dc71727c05fa72f9698d8726f5d6bac83752d8aa80de02f724db87",
    "group": "3a33f8a29ab48f9f855de07ac8f51e2f626d6625e57089cc132ea7008195b5cb",
    "descriptor": "66e48e6a43b36019334b0b39af14b314a38ad0e328b602c8972abb54be9788bc",
    "lim1": "17772681f9c3aabd7d191d8f8be77ff5249515d8695ef2a2856871da8ed0f3a6",
    "ml": "665a41525b1e0e1b73321439556ac2b0c9e03111326bd6adbcd0f0cad6cee0f0",
    "ext-rank1": "ca03a621d34c74564f81d9a821a0b192ee0d0e6564fd1c5f993db4eff5757773",
    "classify-submodule": "f9a3538e5e63001f4b50cb655464971ad4d6a0c2cb0d2d559f3cf5c9c68ca667",
    "valuation": "8e70ba918ec103d20657701ac280791ae7ed7f38a64e0d28229ccb7052597776",
    "brauer": "370d986ee694ced5d16f9b2d96b6dcb968658adb9e3bcfea9f7f3648020be434",
    "report": "afc1d51feaacbc46c78e0abe7bcb60f2f77324c1e218a7ce76999f28e2fdebbf",
}


def test_every_subcommand_has_a_schema(capsys):
    assert set(SCHEMA_SHA256) == set(SUBCOMMANDS)
    for name in SUBCOMMANDS:
        schema = load_schema(name)
        assert isinstance(schema, dict)
        code, out = run(capsys, "--schema", name)
        assert code == 0
        assert json.loads(out) == schema
        assert hashlib.sha256(out.encode()).hexdigest() == SCHEMA_SHA256[name], name
        # The per-subcommand flag prints the same bytes.
        assert run(capsys, name, "--schema") == (0, out)
    # Each call returns a fresh copy, so a caller's edit cannot reach the next one.
    load_schema("snf")["$defs"]["int"]["pattern"] = "x"
    assert load_schema("snf")["$defs"]["int"]["pattern"] == "^-?[0-9]+$"


def test_unknown_schema_request(capsys):
    code, out = run_json(capsys, "--schema", "nonsense")
    assert code == 2
    assert out["error"]["code"] == "schema-violation"


_LONG = "9" * 4400
_TATE = {"op": "tate", "p": "3"}

# Payloads an earlier schema accepted but the library could not read:
# non-digit map keys, and integers past the 4300-digit int-str limit.
UNREADABLE = [
    ("descriptor", json.dumps({**_TATE, "group": {"local": {"abc": "1"}}})),
    ("descriptor", json.dumps({**_TATE, "group": {"padic": {"abc": "1"}}})),
    ("descriptor", json.dumps({**_TATE, "group": {"pruefer": {"exceptions": {"abc": "1"}}}})),
    ("ext-rank1", json.dumps({"op": "ext", "profile": {"exceptions": {"abc": "1"}}})),
    ("valuation", json.dumps({"op": "factorial", "p": "2", "n": _LONG})),
    ("snf", json.dumps({"rows": "1", "cols": "1", "entries": [[_LONG]]})),
    ("classify-submodule", json.dumps({
        "rank": "1", "prime": "3", "generators": [{"vector": ["1/" + _LONG], "tag": "local"}],
    })),
    ("valuation", '{"op":"factorial","p":"2","n":%s}' % _LONG),
]


def test_exit_codes(capsys):
    # Domain error: composite modulus.
    code, out = run_json(capsys, "valuation", '{"op":"lemma","p":"4","n":"1","s":"1"}')
    assert code == 1
    assert out["error"]["code"] == "not-prime"
    # psi_12, the least strong pseudoprime to the prime bases 2..37, is composite.
    code, out = run_json(capsys, "valuation", json.dumps({
        "op": "factorial", "p": str(399165290221 * 798330580441), "n": "10",
    }))
    assert code == 1 and out["error"]["code"] == "not-prime"
    # Budget: p^s iterations are refused before any work, not run.
    start = time.monotonic()
    code, out = run_json(capsys, "valuation", '{"op":"lemma","p":"2","n":"1","s":"200"}')
    assert time.monotonic() - start < 1
    assert code == 1 and out["error"]["code"] == "budget-exceeded"
    # Malformed JSON.
    code, out = run_json(capsys, "valuation", "{nope")
    assert code == 2
    assert out["error"]["code"] == "malformed-json"
    # Schema violation: unknown op.
    code, out = run_json(capsys, "valuation", '{"op":"nope","p":"2","n":"1"}')
    assert code == 2
    assert out["error"]["code"] == "schema-violation"
    # Unreadable keys and over-long integers: a schema violation, no traceback.
    for cmd, payload in UNREADABLE:
        code, out = run_json(capsys, cmd, payload)
        assert code == 2 and out["error"]["code"] == "schema-violation", (cmd, out)
    assert out["error"]["message"] == "$: integer literal longer than 4300 digits"
    # A zero denominator is a schema violation, not a ZeroDivisionError.
    code, out = run_json(capsys, "classify-submodule", json.dumps({
        "rank": "1", "prime": "3", "generators": [{"vector": ["1/0"], "tag": "local"}],
    }))
    assert code == 2 and out["error"]["code"] == "schema-violation"
    # Nesting past the JSON parser's depth limit is malformed JSON, not a RecursionError.
    code, out = run_json(capsys, "snf", "[" * 5000)
    assert code == 2 and out["error"]["code"] == "malformed-json"
    # 4300 characters is within the bound.
    code, out = run_json(capsys, "snf", json.dumps({
        "rows": "1", "cols": "1", "entries": [["-" + _LONG[:4299]]],
    }))
    assert code == 0 and out["D"]["entries"] == [[_LONG[:4299]]]
    # No subcommand: usage on stderr, nothing on stdout.
    code = main([])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("usage: limext")


def _eager_parser() -> argparse.ArgumentParser:
    """The parser as it was built before subcommand arguments were added on
    first parse: every subparser complete up front."""
    parser = argparse.ArgumentParser(
        prog="limext",
        description="Batch JSON interface to the structure-theory library.",
    )
    parser.add_argument(
        "--schema", metavar="SUBCOMMAND", default=None,
        help="print the JSON schema for a subcommand and exit",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} operation")
        sp.add_argument(
            "payload", nargs="?", default=None,
            help="JSON payload (omit or use '-' to read stdin)",
        )
        sp.add_argument("--input", "-i", default=None, help="read payload from a file")
        sp.add_argument("--output", "-o", default=None, help="write result to a file")
        sp.add_argument(
            "--schema", action="store_true", dest="print_schema",
            help="print this subcommand's schema and exit",
        )
    return parser


def _parse(parser, argv, capsys):
    """Everything ``parse_args`` shows: the namespace or exit code, stdout, stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


PARSER_ARGVS = [
    [], ["-h"], ["--schema", "lim1"], ["--schema", "nope"], ["nope"],
    *([name, "-h"] for name in SUBCOMMANDS),
    ["group", "--bogus"], ["group", "-i"], ["group", "-o"], ["group", "a", "b"],
    ["group", "--schema"], ["group", "-", "--output", "f"],
    # Where -h sits, and abbreviations of --help, among the deferred arguments.
    ["group", "--help"], ["group", "--he"], ["group", "--h"], ["group", "{}", "-h"],
    ["group", "-h", "{}"], ["group", "-i", "f", "-h"], ["group", "-hi", "f"], ["group", "-ih"],
    ["group", "-x"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_parser_matches_the_eager_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(_build_parser(), argv, capsys) == _parse(_eager_parser(), argv, capsys)


def test_parser_builds_only_the_subcommand_it_runs():
    parser = _build_parser()
    parser.parse_args(["group", "{}"])
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    built = {name: [a.dest for a in sp._actions] for name, sp in subparsers.choices.items()}
    assert built.pop("group") == ["help", "payload", "input", "output", "print_schema"]
    assert set(built) == set(SUBCOMMANDS) - {"group"}
    assert all(dests == [] for dests in built.values()), built


def test_unexpected_handler_failure_is_an_internal_error(capsys, monkeypatch):
    # JSON on stdout, exit 1, nothing on stderr.
    def broken(payload):
        raise RuntimeError("boom")

    monkeypatch.setitem(_HANDLERS, "valuation", broken)
    code = main(["valuation", '{"op":"factorial","p":"2","n":"10"}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {
        "error": {"code": "internal-error", "message": "RuntimeError: boom"}}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_digit_bounds_follow_the_limit_in_force(capsys):
    # A lowered limit (PYTHONINTMAXSTRDIGITS=1000) bounds inputs and names itself.
    digits = "9" * 2000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out = run_json(capsys, "valuation", json.dumps({
            "op": "factorial", "p": "2", "n": digits}))
        assert code == 2 and out["error"]["code"] == "schema-violation"
        assert "$.n: expected at most 1000 characters" in out["error"]["message"]
        code, out = run_json(capsys, "valuation",
                             '{"op":"factorial","p":"2","n":%s}' % digits)
        assert (code, out["error"]) == (2, {
            "code": "schema-violation", "message": "$: integer literal longer than 1000 digits"})
        code, out = run_json(capsys, "snf", json.dumps({
            "rows": "1", "cols": "1", "entries": [[digits[:1000]]]}))
        assert code == 0 and out["D"]["entries"] == [[digits[:1000]]]
        code, out = run_json(capsys, "group", json.dumps({"op": "direct-sum", "groups": [
            {"invariant_factors": [str(2 ** 2000)]}, {"invariant_factors": [str(3 ** 1200)]},
        ]}))
        assert code == 1 and out["error"]["code"] == "output-too-large"
        assert "more than 1000 digits" in out["error"]["message"]
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_output_past_the_digit_limit_is_a_structured_error(capsys):
    # Two coprime factors under 4300 digits each multiply into one invariant
    # factor of about 7,700 digits, which no decimal string may carry.
    payload = json.dumps({"op": "direct-sum", "groups": [
        {"invariant_factors": [str(2 ** 13000)]}, {"invariant_factors": [str(3 ** 8000)]},
    ]})
    code = main(["group", payload])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["error"]["code"] == "output-too-large"


def test_lim1_example(capsys):
    payload = json.dumps({
        "rank": "1", "prefix": [],
        "tail": {"period": "1", "diagonals": [["2"]]},
    })
    code, data = run_json(capsys, "lim1", payload)
    assert code == 0
    assert data["class"]["rational"] == "continuum"
    assert data["class"]["pruefer"] == {"default": 1, "exceptions": {"2": 0}}
    assert data["mittag_leffler"] is False

    code, data = run_json(capsys, "ml", payload)
    assert code == 0 and data["mittag_leffler"] is False


def test_ml_needs_no_primes(capsys):
    # (2**61 - 1) * (2**89 - 1) is past rho's step budget, but it is not +-1,
    # which is all the Mittag-Leffler answer depends on.
    past_budget = str((2 ** 61 - 1) * (2 ** 89 - 1))
    payload = json.dumps({"rank": "1", "tail": {"diagonals": [[past_budget]]}})
    code, data = run_json(capsys, "ml", payload)
    assert code == 0 and data == {"mittag_leffler": False}
    # lim1 names the primes, so it still factors, and refuses.
    code, data = run_json(capsys, "lim1", payload)
    assert code == 1 and data["error"]["code"] == "unsupported-input"
    # Rho splits 2147483647 * 2147483629, which trial division alone could not.
    code, data = run_json(capsys, "lim1", json.dumps(
        {"rank": "1", "tail": {"diagonals": [["4611685975477714963"]]}}))
    assert code == 0 and data["cokernel_prime_support"] == ["2147483629", "2147483647"]
    # The spec is still checked.
    code, data = run_json(capsys, "ml", json.dumps({
        "rank": "1", "prefix": [{"rows": "1", "cols": "1", "entries": [["0"]]}],
        "tail": {"diagonals": [["-1"]]},
    }))
    assert code == 1 and data["error"]["code"] == "invalid-system"


def test_lim1_strategy_choice(capsys):
    payload = json.dumps({
        "rank": "2", "prefix": [],
        "tail": {"period": "1", "diagonals": [["1", "6"]]},
        "strategy": "ext_oracle",
    })
    code, data = run_json(capsys, "lim1", payload)
    assert code == 0
    assert data["lim"]["free_rank"] == "1"


def test_group_ops(capsys):
    code, data = run_json(capsys, "group", json.dumps({
        "op": "direct-sum",
        "groups": [
            {"free_rank": "0", "invariant_factors": ["2"]},
            {"free_rank": "1", "invariant_factors": ["3"]},
        ],
    }))
    assert code == 0
    assert data["result"] == {"free_rank": "1", "invariant_factors": ["6"]}

    code, data = run_json(capsys, "group", json.dumps({
        "op": "check-exact",
        "f": {"rows": "2", "cols": "1", "entries": [["1"], ["0"]]},
        "g": {"rows": "1", "cols": "2", "entries": [["0", "1"]]},
    }))
    assert code == 0 and data["result"] is True

    code, data = run_json(capsys, "group", json.dumps({
        "op": "finite-coefficients",
        "group": {"free_rank": "0", "invariant_factors": ["4"]},
        "modulus": "2",
    }))
    assert code == 0
    assert data["quotient"]["invariant_factors"] == ["2"]
    assert data["torsion"]["invariant_factors"] == ["2"]


def test_group_ops_accept_large_semiprime_orders(capsys):
    # Two 40-bit prime cofactors: beyond trial division, but no primes are needed.
    p, q = (1 << 40) + 15, (1 << 40) + 27
    code, data = run_json(capsys, "group", json.dumps({
        "op": "direct-sum",
        "groups": [
            {"invariant_factors": [str(p * q)]},
            {"free_rank": "1", "invariant_factors": [str(2 * p)]},
        ],
    }))
    assert code == 0
    assert data["result"] == {"free_rank": "1", "invariant_factors": [str(p), str(2 * p * q)]}


def test_descriptor_ops(capsys):
    qz = {"pruefer": {"default": 1, "exceptions": {}}}
    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "tate", "group": qz, "p": "3",
    }))
    assert code == 0
    assert data["result"]["padic"] == {"3": "1"}

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "completion-cokernel",
        "group": {"local": {"5": "1"}},
        "next": {"pruefer": {"default": 0, "exceptions": {"5": 1}}},
        "p": "5",
    }))
    assert code == 0
    assert data["result"]["rational"] == "continuum"
    assert data["result"]["padic"] == {"5": "1"}

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "extension-classes",
        "divisible": {"rational": 1},
        "finite": {"free_rank": "0", "invariant_factors": ["4"]},
    }))
    assert code == 0
    assert len(data["result"]) == 3


@pytest.mark.parametrize("factors", [
    [2 ** 30] * 6,                          # C(36, 6) classes at one prime
    [2 ** 6 * 3 ** 6 * 5 ** 6 * 7 ** 6] * 4,  # 210 classes at each of 4 primes
    [2] * 512,                              # 513 classes of up to 512 factors
])
def test_extension_classes_budget(capsys, factors):
    start = time.monotonic()
    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "extension-classes",
        "divisible": {"rational": 1},
        "finite": {"invariant_factors": [str(m) for m in factors]},
    }))
    assert time.monotonic() - start < 1
    assert code == 1 and data["error"]["code"] == "budget-exceeded"


@pytest.mark.parametrize("cmd, payload", [
    ("snf", {"rows": "0", "cols": "20000", "entries": []}),
    ("snf", {"rows": "1", "cols": "1024", "entries": [["0"] * 1024]}),
    ("group", {"op": "finite-coefficients", "modulus": "2",
               "group": {"free_rank": str(2 ** 61 - 1), "invariant_factors": []}}),
    ("group", {"op": "finite-coefficients", "modulus": "2",
               "group": {"free_rank": str(2 ** 20 + 1), "invariant_factors": []}}),
    ("descriptor", {"op": "finite-coefficients", "p": "2", "group": {"free_rank": str(2 ** 61 - 1)}}),
    ("descriptor", {"op": "finite-coefficients", "p": "2",
                    "group": {"pruefer": {"default": 0, "exceptions": {"2": 2 ** 20 + 1}}}}),
])
def test_listings_past_the_budget_are_refused_at_once(capsys, cmd, payload):
    start = time.monotonic()
    code, data = run_json(capsys, cmd, json.dumps(payload))
    assert time.monotonic() - start < 1
    assert code == 1 and data["error"]["code"] == "budget-exceeded"


@pytest.mark.parametrize("group, j, status", [
    ({"cyclic": ["125"]}, "100000000", 0),
    ({"cyclic": ["125"]}, "9" * 4300, 0),
    ({"free_rank": "1", "cyclic": ["125"]}, "9" * 4300, 1),
    ({"pruefer": {"default": 0, "exceptions": {"5": 1}}}, "9" * 4300, 1),
])
def test_descriptor_finite_coefficients_with_a_huge_j(capsys, group, j, status):
    # Cyclic orders alone list gcds with p^j, so C125 | C125 for any j >= 3;
    # a free copy or a Pruefer copy at p lists p^j itself, refused past 2^16
    # bits before it is formed.
    start = time.monotonic()
    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "finite-coefficients", "group": group, "p": "5", "j": j}))
    assert time.monotonic() - start < 1
    assert code == status
    if status:
        assert data["error"]["code"] == "budget-exceeded"
    else:
        assert data["quotient"]["invariant_factors"] == ["125"]
        assert data["torsion"]["invariant_factors"] == ["125"]


def test_group_presentation_op(capsys):
    code, data = run_json(capsys, "group", json.dumps({
        "op": "presentation",
        "generators": "2",
        "relations": {"rows": "1", "cols": "2", "entries": [["2", "0"]]},
    }))
    assert code == 0
    assert data["result"] == {"free_rank": "1", "invariant_factors": ["2"]}


def test_remaining_descriptor_ops(capsys):
    c12 = {"cyclic": ["12"]}
    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "max-divisible", "group": c12, "p": "2",
    }))
    assert code == 0 and data["result"]["cyclic"] == ["3"]

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "lim1", "group": {"local": {"5": "1"}}, "p": "5",
    }))
    assert code == 0 and data["result"]["rational"] == "continuum"

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "finite-coefficients", "group": {"cyclic": ["125"]}, "p": "5", "j": "2",
    }))
    assert code == 0
    assert data["quotient"]["invariant_factors"] == ["25"]

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "six-term", "group": {"free_rank": "1"}, "p": "3",
    }))
    assert code == 0
    assert data["result"]["consistent"] is True
    assert data["result"]["terms"]["lim1"]["rational"] == "continuum"


def test_ext_rank1_hom_and_quotient(capsys):
    profile = {"default": 0, "exceptions": {"5": "inf", "3": 2}}
    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "hom", "profile": profile,
    }))
    assert code == 0 and data["result"]["free_rank"] == "0"
    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "quotient", "profile": profile,
    }))
    assert code == 0
    assert data["result"]["cyclic"] == ["9"]
    assert data["result"]["pruefer"]["exceptions"] == {"5": 1}


def test_valuation_unit_power(capsys):
    code, data = run_json(capsys, "valuation", '{"op":"binomial","p":"2","z":"8","u":"3"}')
    assert code == 0 and data["result"] == "3"   # C(8, 3) = 56 = 2^3 * 7
    code, data = run_json(capsys, "valuation", json.dumps({
        "op": "unit-power", "p": "2", "n": "3", "s": "2", "degree_bound": "10",
    }))
    assert code == 0 and data["result"] is True
    # Threshold violation is a domain error.
    code, data = run_json(capsys, "valuation", json.dumps({
        "op": "unit-power", "p": "2", "n": "3", "s": "1", "degree_bound": "10",
    }))
    assert code == 1


def test_matrix_grid_mismatch_is_domain_error(capsys):
    code, data = run_json(capsys, "snf", json.dumps({
        "rows": "2", "cols": "2", "entries": [["1", "2"]],
    }))
    assert code == 1
    assert data["error"]["code"] == "dimension-mismatch"


def test_descriptor_hypothesis_violation_is_domain_error(capsys):
    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "completion-cokernel",
        "group": {"free_rank": "1"},
        "next": {},
        "p": "5",
    }))
    assert code == 1
    assert data["error"]["code"] == "hypothesis-violation"


def test_ext_rank1_ops(capsys):
    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "from-multipliers", "prefix": ["6"], "period": ["5"],
    }))
    assert code == 0
    assert data["result"] == {"default": 0, "exceptions": {"5": "inf"}}

    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "ext", "profile": {"default": 0, "exceptions": {"5": "inf"}},
    }))
    assert code == 0
    assert data["result"]["rational"] == "continuum"
    assert data["result"]["pruefer"] == {"default": 1, "exceptions": {"5": 0}}

    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "is-free", "profile": {"default": 0, "exceptions": {}},
    }))
    assert code == 0 and data["result"] is True


def test_classify_submodule_with_fraction_strings(capsys):
    code, data = run_json(capsys, "classify-submodule", json.dumps({
        "rank": "2", "prime": "3",
        "generators": [
            {"vector": ["1/2", "1"], "tag": "divisible"},
            {"vector": ["1", "0"], "tag": "local"},
            {"vector": ["0", "1"], "tag": "local"},
        ],
    }))
    assert code == 0
    assert data["result"]["s"] == "1" and data["result"]["t"] == "1"


def test_brauer_report_and_summary(capsys):
    payload = json.dumps({
        "p": "19", "f": "1", "h01": "2", "h02": "1",
        "rho_X": "1", "rho_Xs": "4", "I": "1", "s": "1",
        "special_fiber_brauer_finite": True,
    })
    code, data = run_json(capsys, "brauer", payload)
    assert code == 0
    assert data["r"] == "3"
    assert data["kernel"]["display"] == "(Q/Z') + (Q/Z)^2 + P"

    code, data = run_json(capsys, "report", payload)
    assert code == 0
    assert "summary" in data and "r = 3" in data["summary"]
    assert data["report"]["t"] == "2"


def test_brauer_sub_ops(capsys):
    code, data = run_json(capsys, "brauer", '{"op":"r","rho_Xs":"4","rho_X":"1","I":"1"}')
    assert code == 0 and data["result"] == "3"

    code, data = run_json(capsys, "brauer", json.dumps({
        "op": "corank", "l_equals_p": True, "f": "2", "h01": "1", "dimVlBrXbarGK": "4",
    }))
    assert code == 0 and data["result"] == "7"

    code, data = run_json(capsys, "brauer", json.dumps({
        "op": "corank-relation", "r": "3", "dimVlBrXs": "2",
    }))
    assert code == 0 and data["result"] == "5"

    code, data = run_json(capsys, "brauer", json.dumps({
        "op": "jacobian-example", "p": "29",
    }))
    assert code == 0 and data["r"] == "3"

    code, data = run_json(capsys, "brauer", json.dumps({
        "op": "jacobian-example", "p": "7",
    }))
    assert code == 1

    code, data = run_json(capsys, "brauer", json.dumps({
        "op": "picard-rank", "shape": "product",
        "count1": "20", "count2": "20", "p": "19",
    }))
    assert code == 0 and data["result"] == "4"

    code, data = run_json(capsys, "brauer", json.dumps({
        "op": "k3-abelian", "r": "3", "p": "5",
    }))
    assert code == 0 and data["result"]["display"] == "(Q/Z') + (Q/Z)^2 + P"


def test_unreadable_input_file(capsys):
    code, data = run_json(capsys, "valuation", "--input", "/nonexistent/x.json")
    assert code == 2
    assert data["error"]["code"] == "input-unreadable"


def test_file_input_output(tmp_path, capsys, monkeypatch):
    payload = '{"op":"factorial","p":"2","n":"10"}'
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text(payload)
    code = main(["valuation", "--input", str(infile), "--output", str(outfile)])
    assert code == 0
    assert json.loads(outfile.read_text()) == {"result": "8"}
    assert capsys.readouterr().out == ""
    # Stdin, named by "-" or by omitting the payload.
    for argv in (["valuation", "-"], ["valuation"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert run_json(capsys, *argv) == (0, {"result": "8"})


def test_result_documents_revalidate_against_published_schemas(capsys):
    # Results embedding the same document types as inputs must re-validate
    # against the corresponding named definitions of the published schemas.
    from limext.cli import _validate

    def check(instance, subcommand, name):
        defs = load_schema(subcommand)["$defs"]
        _validate(instance, defs[name], "$", defs)

    code, data = run_json(capsys, "snf", json.dumps({
        "rows": "2", "cols": "3", "entries": [["2", "4", "0"], ["6", "8", "-1"]],
    }))
    assert code == 0
    for key in ("U", "D", "V"):
        check(data[key], "group", "matrix")

    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "from-multipliers", "prefix": [], "period": ["10"],
    }))
    assert code == 0
    check(data["result"], "ext-rank1", "profile")

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "lim1", "group": {"free_rank": "1"}, "p": "3",
    }))
    assert code == 0
    check(data["result"], "descriptor", "descriptor")

    code, data = run_json(capsys, "group", json.dumps({
        "op": "cokernel",
        "matrix": {"rows": "2", "cols": "2", "entries": [["2", "4"], ["6", "8"]]},
    }))
    assert code == 0
    check(data["result"], "group", "group")


def _subschemas(node):
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _subschemas(value)
    elif isinstance(node, list):
        for value in node:
            yield from _subschemas(value)


def test_schema_refs_are_local_and_every_definition_is_used():
    # Each printed schema, and the one document they are projected from.
    document = _schema_document()
    schemas = {name: load_schema(name) for name in SUBCOMMANDS}
    for name, schema in [*schemas.items(), ("document", document)]:
        defs = schema.get("$defs", {})
        refs = [node["$ref"] for node in _subschemas(schema) if "$ref" in node]
        for ref in refs:
            assert ref.startswith("#/$defs/"), (name, ref)
            assert ref.removeprefix("#/$defs/") in defs, (name, ref)
        assert {ref.removeprefix("#/$defs/") for ref in refs} == set(defs), name
    # The document is one body per subcommand beside one shared $defs, and
    # every shared definition is reached by some subcommand.
    assert set(document) == {"$defs", *SUBCOMMANDS}
    assert not any("$defs" in document[name] for name in SUBCOMMANDS)
    assert set().union(*(schema["$defs"] for schema in schemas.values())) == set(document["$defs"])


def test_schemas_define_each_large_subschema_once():
    for name in SUBCOMMANDS:
        counts = Counter(
            json.dumps(node, sort_keys=True, separators=(",", ":"))
            for node in _subschemas(load_schema(name))
        )
        repeated = [text for text, n in counts.items() if n > 1 and len(text) > 100]
        assert not repeated, (name, repeated)


def test_violation_inside_a_definition_reports_the_payload_path(capsys):
    code, data = run_json(capsys, "lim1", json.dumps({
        "rank": "2",
        "prefix": [{"rows": "2", "cols": "2", "entries": [["1", "0"], ["0", "x"]]}],
        "tail": {"diagonals": [["1", "2"]]},
    }))
    assert code == 2
    assert data["error"]["message"] == "$.prefix[0].entries[1][1]: 'x' does not match ^-?[0-9]+$"

    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "completion-cokernel", "group": {},
        "next": {"pruefer": {"exceptions": {"5": "many"}}}, "p": "5",
    }))
    assert code == 2
    assert ("$.next.pruefer.exceptions.5: 'many' does not match ^([0-9]+|continuum)$"
            in data["error"]["message"])


def test_results_reparse_under_schema_types(capsys):
    # Round-trip: every emitted integer leaf is a decimal string (except
    # cardinal multiplicities, which are integers or "continuum").
    code, data = run_json(capsys, "lim1", json.dumps({
        "rank": "1", "prefix": [], "tail": {"period": "1", "diagonals": [["6"]]},
    }))
    assert code == 0

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert node is None or isinstance(node, (str, bool, int))

    walk(data)


def _literal_payloads():
    """(subcommand, payload) for each run/run_json call in this file whose
    payload is a JSON literal, json.dumps of a literal, or a local name bound
    to either; plus UNREADABLE."""

    def literal(arg, names):
        if isinstance(arg, ast.Name):
            return names.get(arg.id)
        try:
            if isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "dumps":
                return ast.literal_eval(arg.args[0])
            if isinstance(arg, ast.Constant):
                return json.loads(arg.value)
        except ValueError:
            return None     # built from names, or deliberately malformed JSON

    out = [(cmd, json.loads(text)) for cmd, text in UNREADABLE[:-1]]
    for func in ast.parse(Path(__file__).read_text()).body:
        names = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                names[node.targets[0].id] = literal(node.value, {})
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("run", "run_json")
                  and len(node.args) == 3
                  and getattr(node.args[1], "value", None) in SUBCOMMANDS):
                payload = literal(node.args[2], names)
                if payload is not None:
                    out.append((node.args[1].value, payload))
    return out


_BAD_LEAVES = ("x", "-1", -1, 1.5, True, None, [], {}, "9" * 4301)
# Known divergences, where _validate is the stricter one: jsonschema counts an
# integral float as an integer, and its patterns use re.search, so "$" also
# matches before a trailing newline.
_DIVERGENT_LEAVES = (2.0, "12\n")


def _mutations(node):
    """Copies of node with one change each: a key deleted, renamed to a
    non-digit key or added, or a leaf replaced."""
    if isinstance(node, dict):
        for key in node:
            yield {k: v for k, v in node.items() if k != key}
            yield {("x" + k if k == key else k): v for k, v in node.items()}
            for sub in _mutations(node[key]):
                yield {**node, key: sub}
        yield {**node, "extra": "1"}
    elif isinstance(node, list):
        for i, item in enumerate(node):
            for sub in _mutations(item):
                yield node[:i] + [sub] + node[i + 1:]
    else:
        yield from _BAD_LEAVES + _DIVERGENT_LEAVES
        if isinstance(node, str) and node.isdigit():
            yield "9" * 4300


def _contains(node, leaf):
    if isinstance(node, dict):
        return any(_contains(v, leaf) for v in node.values())
    if isinstance(node, list):
        return any(_contains(v, leaf) for v in node)
    return type(node) is type(leaf) and node == leaf


def test_run_returns_what_main_writes(capsys):
    # run is main without argv and files: the same status and text for
    # every literal payload of this file and each of its mutations, plus
    # text that is not a payload, and it never raises.  Mutations with a
    # digit string at the limit are left out: in lim1, ext-rank1 and
    # extension-classes they factor a 4,300-digit integer (11.5 s in lim1),
    # and no budget bounds that yet (ROADMAP item 6).
    requests = [(cmd, json.dumps(instance)) for cmd, payload in _literal_payloads()
                for instance in [payload, *_mutations(payload)]
                if not _contains(instance, "9" * 4300)]
    requests += [("snf", "[" * 5000), ("group", '{"op":'), UNREADABLE[-1]]
    statuses = Counter()
    for cmd, raw in requests:
        status, text = run_request(cmd, raw)
        assert run(capsys, cmd, raw) == (status, text), (cmd, raw)
        statuses[status] += 1
    assert statuses[0] > 150 and statuses[1] > 100 and statuses[2] > 2500


def test_validate_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    from limext.cli import SchemaViolation, _validate

    # Ours as main runs it: the document's body with the shared definitions;
    # jsonschema's on the self-contained schema that --schema prints.
    document = _schema_document()

    def ours(instance, cmd):
        try:
            _validate(instance, document[cmd], "$", document["$defs"])
            return True
        except SchemaViolation:
            return False

    payloads = _literal_payloads()
    assert {cmd for cmd, _ in payloads} == set(SUBCOMMANDS)
    agreed, divergent = Counter(), Counter()
    for cmd, payload in payloads:
        schema = load_schema(cmd)
        theirs = jsonschema.Draft202012Validator(schema).is_valid
        for instance in [payload, *_mutations(payload)]:
            mine = ours(instance, cmd)
            if mine == theirs(instance):
                agreed[mine] += 1
                continue
            leaves = [leaf for leaf in _DIVERGENT_LEAVES if _contains(instance, leaf)]
            assert not mine and leaves, (cmd, instance)
            divergent[repr(leaves[0])] += 1
    assert agreed[True] > 200 and agreed[False] > 2000
    assert set(divergent) == {repr(leaf) for leaf in _DIVERGENT_LEAVES}


_ORACLE_TYPE_CHECKS = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "boolean": lambda x: isinstance(x, bool),
}


def _oracle_validate(instance, schema, path="$", defs=None):
    """``limext.cli._validate`` as it was before arrays of scalars were
    checked in one loop: one recursive call per item, the digit limit read
    per string."""
    from limext.cli import SchemaViolation

    defs = schema.get("$defs", {}) if defs is None else defs
    if "$ref" in schema:
        schema = defs[schema["$ref"].removeprefix("#/$defs/")]
    if "oneOf" in schema:
        errors = []
        for option in schema["oneOf"]:
            try:
                _oracle_validate(instance, option, path, defs)
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
        if not any(_ORACLE_TYPE_CHECKS[t](instance) for t in types):
            raise SchemaViolation(f"{path}: expected {' or '.join(types)}")
    if isinstance(instance, str):
        bound = schema.get("maxLength")
        if bound is not None:
            bound = min(bound, getattr(sys, "get_int_max_str_digits", int)() or bound)
            if len(instance) > bound:
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
                _oracle_validate(key, schema["propertyNames"], path, defs)
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                _oracle_validate(value, props[key], f"{path}.{key}", defs)
            elif extra is False:
                raise SchemaViolation(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _oracle_validate(value, extra, f"{path}.{key}", defs)
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            raise SchemaViolation(f"{path}: expected at least "
                                  f"{schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(instance):
                _oracle_validate(item, schema["items"], f"{path}[{i}]", defs)


def _verdicts(instance, cmd):
    """What ``_validate`` and the oracle say of instance: None or the message."""
    from limext.cli import SchemaViolation, _validate

    document = _schema_document()
    verdicts = []
    for validate in (_validate, _oracle_validate):
        try:
            validate(instance, document[cmd], "$", document["$defs"])
            verdicts.append(None)
        except SchemaViolation as exc:
            verdicts.append(str(exc))
    return verdicts


def test_validate_matches_the_recursive_oracle_on_mutated_payloads():
    outcomes = Counter()
    for cmd, payload in _literal_payloads():
        for instance in [payload, *_mutations(payload)]:
            ours, oracle = _verdicts(instance, cmd)
            assert ours == oracle, (cmd, instance)
            outcomes[ours is None] += 1
    assert outcomes[True] > 200 and outcomes[False] > 2000


def _longest_scalar_array(node, best=None):
    """The longest list in node whose items are all scalars."""
    if isinstance(node, dict):
        for value in node.values():
            best = _longest_scalar_array(value, best)
    elif isinstance(node, list):
        if node and not any(isinstance(item, (dict, list)) for item in node):
            if best is None or len(node) > len(best):
                best = node
        for item in node:
            best = _longest_scalar_array(item, best)
    return best


def test_validate_matches_the_oracle_on_bad_leaves_in_workload_arrays(monkeypatch):
    # The first payload of each structure and snf-transforms kind, with one
    # bad leaf at the first, a middle and the last index of its longest
    # array of scalars: the arrays that validation checks in one loop.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import random

    from workloads import snf_transforms, structure

    firsts = {}
    for kind, cmd, payload, _, _ in structure(random.Random(7)) + snf_transforms(random.Random(7)):
        firsts.setdefault(kind, (cmd, payload))
    assert len(firsts) == 12
    for kind, (cmd, payload) in firsts.items():
        assert _verdicts(payload, cmd) == [None, None], kind
        array = _longest_scalar_array(payload)
        for index in {0, len(array) // 2, len(array) - 1}:
            saved = array[index]
            for leaf in ("x", -1, 1.5, True, None, "12\n", 2.0):
                array[index] = leaf
                ours, oracle = _verdicts(payload, cmd)
                assert ours == oracle, (kind, index, leaf)
                assert leaf == -1 or f"[{index}]: " in ours, (kind, index, leaf)
            array[index] = saved


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_validate_matches_the_oracle_on_digit_strings_at_the_limit():
    # Long digit strings as a scalar, as a matrix entry and as a tail entry,
    # under the default limit, under a lowered one and under the default again.
    saved = sys.get_int_max_str_digits()
    rejected = Counter()
    try:
        for limit in (saved, 1000, saved):
            sys.set_int_max_str_digits(limit)
            for n in (999, 1000, 1001, 4300, 4301):
                digits = "7" * n
                for cmd, instance in [
                    ("valuation", {"op": "factorial", "p": "2", "n": digits}),
                    ("snf", {"rows": "1", "cols": "3", "entries": [["1", digits, "2"]]}),
                    ("lim1", {"rank": "2", "tail": {"diagonals": [["1", "2"], [digits, "3"]]}}),
                ]:
                    ours, oracle = _verdicts(instance, cmd)
                    assert ours == oracle, (limit, n, cmd)
                    if ours is not None:
                        rejected[limit, n] += 1
    finally:
        sys.set_int_max_str_digits(saved)
    assert rejected == {(saved, 4301): 6, (1000, 1001): 3, (1000, 4300): 3, (1000, 4301): 3}
