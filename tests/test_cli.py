"""Command-line interface, driven in-process through main(argv)."""
import json
import random
import re
import time
from importlib.resources import files

import pytest

import confounders.adjust
from confounders.cli import main
from confounders.fuzz import random_dag, random_model
from test_path_search import write_graph

FIXTURES = files("confounders").joinpath("fixtures")


def fx(name):
    return str(FIXTURES.joinpath(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- minimal-sets ------------------------------------------------------------------


def test_minimal_sets_text(capsys):
    code, out, err = run(capsys, "minimal-sets", fx("fig3.graph"))
    assert code == 0 and err == ""
    assert out == "{C1}, {C2}; union {C1, C2} sufficient\n"


def test_minimal_sets_json(capsys):
    code, out, _ = run(capsys, "minimal-sets", fx("fig3.graph"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"] == [["C1"], ["C2"]]
    assert doc["union"] == ["C1", "C2"]
    assert doc["union_sufficient"] is True


def test_minimal_sets_empty_catalog(capsys):
    code, out, _ = run(capsys, "minimal-sets", fx("fig1.graph"))
    assert code == 0
    assert out.startswith("{}")


# -- classify -----------------------------------------------------------------------


def test_classify_graph_only_defaults_to_graph_definitions(capsys):
    code, out, _ = run(capsys, "classify", fx("prop5.graph"))
    assert code == 0
    assert "C: D1 yes" in out
    assert "D5" not in out and "cf-unconfounded" not in out


def test_classify_with_model_exact(capsys):
    code, out, _ = run(
        capsys, "classify", fx("fig4.graph"), "--model", fx("fig4.json"), "--exact"
    )
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("C2:"))
    assert "D5 yes (context {}; |bias| 6/119 -> 122/2583)" in line
    assert "surrogate yes" in line
    assert "cf-unconfounded given {}: no" in out


def test_classify_variable_and_defs_filter(capsys):
    code, out, _ = run(
        capsys, "classify", fx("fig1.graph"), "--variable", "C3", "--defs", "D1,D2"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("C3: D1 yes")
    assert "D3" not in out and "D4" not in out


def test_classify_json_filters_witnesses(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        fx("fig4.graph"),
        "--model",
        fx("fig4.json"),
        "--defs",
        "D1,D5",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    c2 = next(v for v in doc["variables"] if v["variable"] == "C2")
    assert set(c2["verdicts"]) == {"D1", "D5"}
    assert set(c2["witnesses"]) == {"D1", "D1_numeric", "D5"}
    # surrogate reads D4, which was not asked for
    assert c2["surrogate"] is None
    assert doc["cf_unconfounded_empty"] is False


def test_classify_lists_the_catalog_once(capsys, monkeypatch):
    calls = []
    real = confounders.adjust._minimal_lanes

    def counted(sufficient, k):
        calls.append(k)
        return real(sufficient, k)

    monkeypatch.setattr(confounders.adjust, "_minimal_lanes", counted)
    code, out, _ = run(
        capsys, "classify", fx("fig4.graph"), "--model", fx("fig4.json"), "--defs", "D1"
    )
    assert code == 0 and len(out.splitlines()) == 3
    assert len(calls) == 0  # D1 reads no catalog
    code, out, _ = run(
        capsys, "classify", fx("fig4.graph"), "--model", fx("fig4.json"), "--defs", "D3,D4"
    )
    assert code == 0 and len(out.splitlines()) == 3
    assert len(calls) == 1


def write_model(path, model):
    cpts = {
        node: {
            "parents": list(cpt.parent_order),
            "table": {",".join(map(str, key)): [str(p) for p in row] for key, row in cpt.table.items()},
        }
        for node, cpt in model.cpts.items()
    }
    states = {node: list(space) for node, space in model.state_spaces.items()}
    path.write_text(json.dumps({"states": states, "cpts": cpts}))
    return str(path)


def test_classify_defs_skips_the_model_scans_it_does_not_print(capsys, tmp_path):
    # a 16-node model with a 13-member pool, whose D5 scan alone takes
    # tens of seconds of CPU: `--defs D1,D2` must not run it
    rng = random.Random(9)
    model = random_model(rng, random_dag(rng, 16, 0.25))
    assert len(model.dag.covariate_pool) == 13
    graph = write_graph(tmp_path / "v12.graph", model.dag)
    doc = write_model(tmp_path / "v12.json", model)
    start = time.process_time()
    code, out, _ = run(capsys, "classify", graph, "--model", doc, "--defs", "D1,D2")
    assert time.process_time() - start < 5
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 14 and rows[-1] == "cf-unconfounded given {}: no"
    assert all(" | D2 " in row and "D3" not in row and "surrogate" not in row for row in rows[:-1])


def test_classify_unknown_definition(capsys):
    code, _, err = run(capsys, "classify", fx("fig1.graph"), "--defs", "D9")
    assert code == 6 and "unknown definition" in err


@pytest.mark.parametrize("defs", [",", " , ,", ""])
def test_classify_empty_definition_list(capsys, defs):
    code, out, err = run(capsys, "classify", fx("fig1.graph"), "--defs", defs)
    assert code == 6 and "names no definition id" in err
    assert out == ""


def test_classify_repeated_definition_prints_once(capsys):
    code, out, _ = run(
        capsys, "classify", fx("fig1.graph"), "--variable", "C3", "--defs", "D2,D1,D2,D1"
    )
    assert code == 0
    assert out.count("D1 ") == 1 and out.count("D2 ") == 1
    assert out.index("D2 ") < out.index("D1 ")


def test_classify_model_defs_require_model(capsys):
    code, _, err = run(capsys, "classify", fx("fig1.graph"), "--defs", "D5")
    assert code == 4 and "D5 needs --model" in err


def test_classify_non_covariate(capsys):
    code, _, err = run(capsys, "classify", fx("fig1.graph"), "--variable", "A")
    assert code == 2 and "error:" in err


# -- properties ------------------------------------------------------------------------


def test_properties_text(capsys):
    code, out, _ = run(
        capsys, "properties", fx("fig3.graph"), "--model", fx("fig3.json"), "--def", "D4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("P1 D4: PASS")
    assert any(l.startswith("P2A D4 C1: PASS") for l in lines)
    assert any(l.startswith("P2B D4 C1:") for l in lines)


def test_properties_graph_only_skips_p2b(capsys):
    code, out, _ = run(capsys, "properties", fx("fig3.graph"), "--def", "D4")
    assert code == 0
    assert "P2B" not in out and "P2A D4 C2" in out


def test_properties_failure_notes(capsys):
    code, out, _ = run(
        capsys, "properties", fx("fig2.graph"), "--model", fx("fig2.json"), "--def", "D2"
    )
    assert code == 0
    assert "P2A D2 C2: FAIL" in out
    assert "P2B D2 C2: FAIL" in out


def test_properties_json(capsys):
    code, out, _ = run(
        capsys,
        "properties",
        fx("fig3.graph"),
        "--def",
        "D3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["definition"] == "D3"
    assert doc["positives"] == []
    assert doc["verdicts"][0]["property"] == "P1"
    assert doc["verdicts"][0]["holds"] is False


def test_properties_d5_requires_model(capsys):
    code, _, err = run(capsys, "properties", fx("fig4.graph"), "--def", "D5")
    assert code == 4 and "needs --model" in err


# -- paper-suite -------------------------------------------------------------------------


def test_paper_suite_text(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert "FAIL" not in out
    assert "claims hold" in out


def test_paper_suite_json(capsys):
    code, out, _ = run(capsys, "paper-suite", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and len(doc["rows"]) >= 80


# -- fuzz ---------------------------------------------------------------------------------


def test_fuzz_text_and_determinism(capsys):
    code, out1, _ = run(capsys, "fuzz", "--seed", "5", "--nodes", "5", "--trials", "30")
    assert code == 0
    assert "hard_failures: 0" in out1
    code, out2, _ = run(capsys, "fuzz", "--seed", "5", "--nodes", "5", "--trials", "30")
    assert code == 0 and out2 == out1


def test_fuzz_json(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--seed", "3", "--nodes", "4", "--trials", "10", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["trials"] == 10


def test_fuzz_bad_config(capsys):
    code, _, err = run(capsys, "fuzz", "--seed", "3", "--nodes", "40")
    assert code == 6 and "error:" in err


# -- select --------------------------------------------------------------------------------


def test_select_backward_text(capsys):
    code, out, _ = run(
        capsys, "select", fx("fig3.graph"), "--mode", "backward", "--set", "C1,C2"
    )
    assert code == 0
    assert out == (
        "mode: backward (graphical)\n"
        "initial: {C1, C2}\n"
        "1. query Y _|_ C1 | A, C2 -> dependent\n"
        "2. query Y _|_ C2 | A, C1 -> independent\n"
        "3. query Y _|_ C1 | A -> dependent\n"
        "final: {C1}\n"
    )


def test_select_forward_json(capsys):
    code, out, _ = run(
        capsys,
        "select",
        fx("fig3.graph"),
        "--mode",
        "forward",
        "--set",
        "C1,C2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["final"] == ["C1"]
    assert len(doc["steps"]) == 2
    assert doc["steps"][0]["independent"] is False


def test_select_robins_text(capsys):
    code, out, _ = run(
        capsys,
        "select",
        fx("fig3.graph"),
        "--mode",
        "robins",
        "--base",
        "C1",
        "--set",
        "C2",
    )
    assert code == 0
    assert "reducible: yes" in out
    assert "T1: {}  T2: {C2}" in out


def test_select_numeric_oracle_needs_model(capsys):
    code, _, err = run(
        capsys, "select", fx("fig3.graph"), "--mode", "backward", "--set", "C1",
        "--oracle", "numeric",
    )
    assert code == 4


def test_select_numeric_unfaithful_caveat(capsys, tmp_path):
    graph = tmp_path / "flat.graph"
    graph.write_text(
        "node C pre\nnode A exposure\nnode Y outcome\nedge C A\nedge C Y\nedge A Y\n"
    )
    model = tmp_path / "flat.json"
    model.write_text(
        json.dumps(
            {
                "states": {"C": [0, 1], "A": [0, 1], "Y": [0, 1]},
                "cpts": {
                    "C": {"parents": [], "table": {"": ["1/2", "1/2"]}},
                    "A": {
                        "parents": ["C"],
                        "table": {"0": ["2/3", "1/3"], "1": ["1/3", "2/3"]},
                    },
                    "Y": {
                        "parents": ["A", "C"],
                        "table": {
                            "0,0": ["3/4", "1/4"],
                            "0,1": ["3/4", "1/4"],
                            "1,0": ["1/2", "1/2"],
                            "1,1": ["1/2", "1/2"],
                        },
                    },
                },
            }
        )
    )
    code, out, _ = run(
        capsys,
        "select",
        str(graph),
        "--mode",
        "backward",
        "--set",
        "C",
        "--oracle",
        "numeric",
        "--model",
        str(model),
    )
    assert code == 0
    assert "final: {}" in out
    assert "caveat:" in out and "d-connected" in out


# -- exit codes ------------------------------------------------------------------------------


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "minimal-sets", "/no/such/file.graph")
    assert code == 2 and err.startswith("error:")


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex A\n")
    code, _, err = run(capsys, "minimal-sets", str(bad))
    assert code == 2 and "unknown directive" in err


def test_non_utf8_graph_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"\xff\xfenode A exposure\n")
    code, out, err = run(capsys, "minimal-sets", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not UTF-8" in err


def test_non_utf8_model_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}\n")
    code, out, err = run(capsys, "classify", fx("fig1.graph"), "--model", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not UTF-8" in err


def test_size_limit_exits_3(capsys, tmp_path):
    big = tmp_path / "big.graph"
    k = 26
    lines = [f"node C{i:02d} pre" for i in range(k)]
    lines += ["node A exposure", "node Y outcome"]
    lines += [f"edge C{i:02d} A" for i in range(k)]
    lines += [f"edge C{i:02d} Y" for i in range(k)]
    lines += ["edge A Y"]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "minimal-sets", str(big))
    assert code == 3 and "error:" in err


def test_node_count_over_the_kernel_limit_exits_3(capsys, tmp_path):
    big = tmp_path / "wide.graph"
    lines = [f"node C{i:02d}" for i in range(63)]
    lines += ["node A exposure", "node Y outcome", "edge A Y"]
    big.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "minimal-sets", str(big))
    assert code == 3 and out == ""
    assert err == "error: 65 nodes exceeds the 64-node kernel limit\n"


CONFOUNDED = "node C pre\nnode A exposure\nnode Y outcome\nedge C A\nedge C Y\nedge A Y\n"


@pytest.mark.parametrize(
    "c_row",
    [
        '["1e5000", "0"]',
        '["1e-5000", "1"]',
        '["1e10000000", "0"]',
        "[1" + "0" * 5000 + ", 0]",  # a bare JSON int past str()'s digit limit
        f'["1/{3 ** 6000}", "1/{2 ** 9000}"]',  # a row sum past that limit
    ],
    ids=["exponent", "negative-exponent", "huge-exponent", "long-int", "long-row-sum"],
)
def test_huge_numbers_in_a_model_exit_2_in_bounded_time(capsys, tmp_path, c_row):
    graph = tmp_path / "g.graph"
    graph.write_text(CONFOUNDED)
    doc = {
        "states": {"C": [0, 1], "A": [0, 1], "Y": [0, 1]},
        "cpts": {
            "C": {"parents": [], "table": {"": "ROW"}},
            "A": {"parents": ["C"], "table": {"0": ["3/4", "1/4"], "1": ["1/4", "3/4"]}},
            "Y": {
                "parents": ["A", "C"],
                "table": {k: ["1/2", "1/2"] for k in ("0,0", "0,1", "1,0", "1,1")},
            },
        },
    }
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc).replace('"ROW"', c_row))
    start = time.process_time()
    code, out, err = run(capsys, "classify", str(graph), "--model", str(model))
    assert time.process_time() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--exact"], ["--format", "json"]])
def test_exact_effects_past_the_int_digit_limit_are_printed(capsys, tmp_path, flags):
    # each entry is under Python's int-to-string limit, so the file loads;
    # the effects derived from them have more than 4300 digits
    third, half = 3**3000, 2**9000
    doc = {
        "states": {"C": [0, 1], "A": [0, 1], "Y": [0, 1]},
        "cpts": {
            "C": {"parents": [], "table": {"": [f"1/{third}", f"{third - 1}/{third}"]}},
            "A": {
                "parents": ["C"],
                "table": {"0": ["3/4", "1/4"], "1": [f"1/{half}", f"{half - 1}/{half}"]},
            },
            "Y": {
                "parents": ["A", "C"],
                "table": {
                    "0,0": ["1/2", "1/2"], "0,1": ["3/4", "1/4"],
                    "1,0": ["1/4", "3/4"], "1,1": ["1/3", "2/3"],
                },
            },
        },
    }
    graph, model = tmp_path / "g.graph", tmp_path / "m.json"
    graph.write_text(CONFOUNDED)
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(graph), "--model", str(model), *flags)
    assert code == 0 and err == ""
    assert max(map(len, re.findall(r"[0-9]+", out))) > 4300
    if "json" in flags:
        json.loads(out)


def test_positivity_violation_exits_5(capsys, tmp_path):
    graph = tmp_path / "pos.graph"
    graph.write_text(
        "node C pre\nnode A exposure\nnode Y outcome\nedge C A\nedge C Y\nedge A Y\n"
    )
    model = tmp_path / "pos.json"
    model.write_text(
        json.dumps(
            {
                "states": {"C": [0, 1], "A": [0, 1], "Y": [0, 1]},
                "cpts": {
                    "C": {"parents": [], "table": {"": ["1/2", "1/2"]}},
                    "A": {
                        "parents": ["C"],
                        "table": {"0": ["3/4", "1/4"], "1": ["0", "1"]},
                    },
                    "Y": {
                        "parents": ["A", "C"],
                        "table": {
                            "0,0": ["1/2", "1/2"],
                            "0,1": ["1/2", "1/2"],
                            "1,0": ["1/4", "3/4"],
                            "1,1": ["1/3", "2/3"],
                        },
                    },
                },
            }
        )
    )
    code, _, err = run(capsys, "classify", str(graph), "--model", str(model))
    assert code == 5 and "stratum" in err


def test_model_against_wrong_graph_exits_2(capsys):
    code, _, err = run(
        capsys, "classify", fx("fig1.graph"), "--model", fx("prop5.json")
    )
    assert code == 2


def test_joint_cap_reports_the_full_state_space(capsys, tmp_path):
    # 19 three-state covariates and a binary exposure and outcome: the cap
    # message names the whole product, not the partial one where it stopped
    names = [f"C{i:02d}" for i in range(19)]
    graph = tmp_path / "wide.graph"
    graph.write_text(
        "\n".join([f"node {c} pre" for c in names] + ["node A exposure", "node Y outcome", "edge A Y"])
        + "\n"
    )
    third = ["1/3", "1/3", "1/3"]
    doc = {
        "states": dict({c: [0, 1, 2] for c in names}, A=[0, 1], Y=[0, 1]),
        "cpts": dict(
            {c: {"parents": [], "table": {"": third}} for c in names},
            A={"parents": [], "table": {"": ["1/2", "1/2"]}},
            Y={"parents": ["A"], "table": {"0": ["1/2", "1/2"], "1": ["1/4", "3/4"]}},
        ),
    }
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(graph), "--model", str(model), "--variable", "C00")
    assert code == 3 and out == ""
    total = 3**19 * 2 * 2
    assert err == f"error: joint state space has {total} assignments, over the cap of 1048576\n"
