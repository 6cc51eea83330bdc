"""Graph and model file parsing, display formatting, JSON conversion."""
import json
import sys
from fractions import Fraction
from importlib.resources import files

import pytest

from confounders.errors import ParseError
from confounders.formats import (
    format_3dec,
    format_effect,
    json_ready,
    load_graph,
    load_model,
    parse_graph,
    parse_model,
)
from confounders.graph import Path

F = Fraction

GOOD_GRAPH = """\
# one common cause
node C pre
node A exposure
node Y outcome
edge C A
edge C Y
edge A Y
"""


def fixture_path(name):
    return files("confounders").joinpath("fixtures", name)


# -- graph parsing -----------------------------------------------------------------


def test_parse_graph_roundtrip():
    dag = parse_graph(GOOD_GRAPH)
    assert dag.nodes == ("C", "A", "Y")
    assert dag.exposure == "A" and dag.outcome == "Y"
    assert set(dag.edges) == {("C", "A"), ("C", "Y"), ("A", "Y")}
    assert dag.declared_pre == frozenset({"C"})


def test_parse_graph_without_pre_tags():
    dag = parse_graph("node C\nnode A exposure\nnode Y outcome\nedge A Y\n")
    assert dag.declared_pre is None


def test_parse_errors_carry_line_numbers():
    # a complete DAG on 64 nodes, its first edge repeated after the other 2015
    names = [f"V{i}" for i in range(62)] + ["A", "Y"]
    complete = "\n".join(
        [f"node {v}" for v in names[:62]] + ["node A exposure", "node Y outcome"]
        + [f"edge {u} {v}" for i, u in enumerate(names) for v in names[i + 1:]]
    )
    cases = [
        (complete + "\nedge V0 V1", 64 + 2016 + 1, "duplicate edge V0 -> V1"),
        ("node C pre\nnode C\nnode A exposure\nnode Y outcome\nedge A Y", 2, "duplicate node"),
        ("node A exposure\nnode Y outcome\nedge A Y\nedge A Y", 4, "duplicate edge"),
        ("node A exposure\nnode B exposure\nnode Y outcome\nedge A Y", 2, "second exposure"),
        ("node A exposure\nnode Y outcome\nnode Z outcome", 3, "second outcome"),
        ("node A wizard", 1, "unknown role"),
        ("vertex A", 1, "unknown directive"),
        ("node A exposure\nedge A B", 2, "undeclared node"),
        ("node A exposure firstborn extra", 1, "name and an optional role"),
        ("node A exposure\nnode Y outcome\nedge A", 3, "parent and a child"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line, text
        assert fragment in str(err.value), text


def test_parse_graph_missing_roles():
    with pytest.raises(ParseError, match="no node declared as exposure"):
        parse_graph("node A\nnode Y outcome\nedge A Y")
    with pytest.raises(ParseError, match="no node declared as outcome"):
        parse_graph("node A exposure\nnode Y\nedge A Y")


def test_parse_graph_wraps_construction_errors():
    # a cycle is caught at Dag construction and surfaces as a ParseError
    text = (
        "node A exposure\nnode Y outcome\nnode B\n"
        "edge A B\nedge B Y\nedge Y A"
    )
    with pytest.raises(ParseError, match="cycle"):
        parse_graph(text)


def test_load_graph_fixture_files():
    for name in ("fig1", "fig2", "fig3", "fig4", "prop5"):
        dag = load_graph(fixture_path(f"{name}.graph"))
        assert dag.exposure == "A" and dag.outcome == "Y"


# -- model parsing ------------------------------------------------------------------


def small_dag():
    return parse_graph("node C pre\nnode A exposure\nnode Y outcome\nedge C A\nedge C Y\nedge A Y")


def model_doc():
    return {
        "states": {"C": [0, 1], "A": [0, 1], "Y": [0, 1]},
        "cpts": {
            "C": {"parents": [], "table": {"": ["1/2", "1/2"]}},
            "A": {"parents": ["C"], "table": {"0": ["3/4", "1/4"], "1": ["1/4", "3/4"]}},
            "Y": {
                "parents": ["A", "C"],
                "table": {
                    "0,0": ["3/5", "2/5"],
                    "0,1": ["1", "0"],
                    "1,0": ["9/10", "1/10"],
                    "1,1": ["1/2", "1/2"],
                },
            },
        },
    }


def test_parse_model_happy_path():
    model = parse_model(json.dumps(model_doc()), small_dag())
    assert model.probability({"Y": 1}) == F(7, 20)
    assert model.joint_probability({"C": 1, "A": 1, "Y": 1}) == F(3, 16)


def test_parse_model_accepts_dict_input():
    assert parse_model(model_doc(), small_dag()).ace() == F(1, 10)


def broken(mutate):
    doc = model_doc()
    mutate(doc)
    return doc


def test_parse_model_errors():
    dag = small_dag()
    cases = [
        ("not json {", "invalid JSON"),
        (json.dumps([1, 2]), "JSON object"),
        (json.dumps(broken(lambda d: d.update(extra=1))), "unknown top-level"),
        (json.dumps({"states": {}}), "needs 'states' and 'cpts'"),
        (json.dumps({"states": [], "cpts": {}}), "must be objects"),
        (json.dumps(broken(lambda d: d["states"].update(C=[]))), "nonempty list"),
        (json.dumps(broken(lambda d: d["states"].update(C=[0.5, 1]))), "int or a string"),
        (json.dumps(broken(lambda d: d["states"].update(C=[0, "0"]))), "collide"),
        (
            json.dumps(broken(lambda d: d["cpts"]["C"].update(shape="round"))),
            "'parents' and 'table' only",
        ),
        (
            json.dumps(broken(lambda d: d["cpts"].update(C={"table": {}}))),
            "needs 'parents' and 'table'",
        ),
        (
            json.dumps(broken(lambda d: d["cpts"]["A"].update(parents=["Q"]))),
            "no states",
        ),
        (
            json.dumps(broken(lambda d: d["cpts"]["A"]["table"].update({"0,1": ["1/2", "1/2"]}))),
            "2 entries for 1 parents",
        ),
        (
            json.dumps(broken(lambda d: d["cpts"]["C"]["table"].update({"0": ["1", "0"]}))),
            'key must be ""',
        ),
        (
            json.dumps(broken(lambda d: d["cpts"]["A"]["table"].update({"7": ["1/2", "1/2"]}))),
            "matches no state",
        ),
        (
            json.dumps(broken(lambda d: d["cpts"]["C"]["table"].update({"": [0.5, 0.5]}))),
            "strings, not bare floats",
        ),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_model(text, dag)


def test_state_tokens_match_string_form():
    doc = model_doc()
    doc["states"]["C"] = ["lo", "hi"]
    doc["cpts"]["A"]["table"] = {"lo": ["3/4", "1/4"], "hi": ["1/4", "3/4"]}
    doc["cpts"]["Y"]["table"] = {
        "0,lo": ["3/5", "2/5"],
        "0,hi": ["1", "0"],
        "1,lo": ["9/10", "1/10"],
        "1,hi": ["1/2", "1/2"],
    }
    doc["cpts"]["C"]["table"] = {"": ["1/2", "1/2"]}
    model = parse_model(doc, small_dag())
    assert model.probability({"C": "hi"}) == F(1, 2)


def test_model_fixtures_load_against_their_graphs():
    for name in ("fig1", "fig2", "fig3", "fig4", "prop5"):
        dag = load_graph(fixture_path(f"{name}.graph"))
        model = load_model(fixture_path(f"{name}.json"), dag)
        assert model.probability({}) == F(1)


def test_comment_key_is_allowed():
    doc = model_doc()
    doc["comment"] = "hand-built example"
    parse_model(doc, small_dag())


# -- display formatting ---------------------------------------------------------------


def test_format_3dec_truncates_toward_zero():
    assert format_3dec(F(4, 15)) == "0.266"
    assert format_3dec(F(2, 3)) == "0.666"
    assert format_3dec(F(-2, 3)) == "-0.666"
    assert format_3dec(F(-1, 3)) == "-0.333"
    assert format_3dec(F(1, 2)) == "0.500"
    assert format_3dec(0) == "0.000"
    assert format_3dec(1) == "1.000"
    assert format_3dec(F(10475, 38896)) == "0.269"


def test_format_effect_modes():
    assert format_effect(F(2, 3)) == "0.666"
    assert format_effect(F(2, 3), exact=True) == "2/3"
    assert format_effect(F(-1, 21), exact=True) == "-1/21"


def unlimited_str(value):
    """str(value) with Python's int digit limit lifted, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value",
    [F(-(3**30000 + 7), 2**9000), F(10**600), F(10**600 - 1, 10**1200 + 1), F(-(10**4300)), F(0)],
)
def test_exact_text_past_the_int_digit_limit(value):
    # str() refuses an int past the limit (4300 digits by default); exact
    # text is written in pieces that stay under any limit Python accepts
    assert json_ready(value) == format_effect(value, exact=True) == unlimited_str(value)


def test_json_ready_conversions():
    assert json_ready(F(3, 7)) == "3/7"
    assert json_ready({"k": (1, 2)}) == {"k": [1, 2]}
    assert json_ready({1: "v"}) == {"1": "v"}
    assert json_ready({"s": {"b", "a"}}) == {"s": ["a", "b"]}
    assert json_ready(Path(("A", "Y"), ("->",))) == "A -> Y"
    payload = json_ready({"p": F(1, 3), "nested": [F(1, 2)]})
    json.dumps(payload)  # must be serializable as-is
