import json

from limext.cli import SUBCOMMANDS, load_schema, main


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


def test_every_subcommand_has_a_schema(capsys):
    for name in SUBCOMMANDS:
        schema = load_schema(name)
        assert isinstance(schema, dict)
        code, out = run_json(capsys, "--schema", name)
        assert code == 0
        assert out == schema


def test_unknown_schema_request(capsys):
    code, out = run_json(capsys, "--schema", "nonsense")
    assert code == 2
    assert out["error"]["code"] == "schema-violation"


def test_exit_codes(capsys):
    # Domain error: composite modulus.
    code, out = run_json(capsys, "valuation", '{"op":"lemma","p":"4","n":"1","s":"1"}')
    assert code == 1
    assert out["error"]["code"] == "not-prime"
    # Malformed JSON.
    code, out = run_json(capsys, "valuation", "{nope")
    assert code == 2
    assert out["error"]["code"] == "malformed-json"
    # Schema violation: unknown op.
    code, out = run_json(capsys, "valuation", '{"op":"nope","p":"2","n":"1"}')
    assert code == 2
    assert out["error"]["code"] == "schema-violation"


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


def test_file_input_output(tmp_path, capsys):
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text('{"op":"factorial","p":"2","n":"10"}')
    code = main(["valuation", "--input", str(infile), "--output", str(outfile)])
    assert code == 0
    assert json.loads(outfile.read_text()) == {"result": "8"}
    assert capsys.readouterr().out == ""


def test_result_documents_revalidate_against_published_schemas(capsys):
    # Results embedding the same document types as inputs must re-validate
    # against the corresponding published schema fragments.
    from limext.cli import _validate

    matrix_schema = load_schema("snf")
    code, data = run_json(capsys, "snf", json.dumps({
        "rows": "2", "cols": "3", "entries": [["2", "4", "0"], ["6", "8", "-1"]],
    }))
    assert code == 0
    for key in ("U", "D", "V"):
        _validate(data[key], matrix_schema)

    profile_schema = load_schema("ext-rank1")["oneOf"][0]["properties"]["profile"]
    code, data = run_json(capsys, "ext-rank1", json.dumps({
        "op": "from-multipliers", "prefix": [], "period": ["10"],
    }))
    assert code == 0
    _validate(data["result"], profile_schema)

    descriptor_schema = load_schema("descriptor")["oneOf"][0]["properties"]["group"]
    code, data = run_json(capsys, "descriptor", json.dumps({
        "op": "lim1", "group": {"free_rank": "1"}, "p": "3",
    }))
    assert code == 0
    _validate(data["result"], descriptor_schema)

    group_schema = load_schema("group")["oneOf"][2]["properties"]["group"]
    code, data = run_json(capsys, "group", json.dumps({
        "op": "cokernel",
        "matrix": {"rows": "2", "cols": "2", "entries": [["2", "4"], ["6", "8"]]},
    }))
    assert code == 0
    _validate(data["result"], group_schema)


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
