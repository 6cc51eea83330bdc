"""The two safeguard properties: adjusting for all positives suffices (P1),
and each positive has a context where it matters (P2A graphical, P2B model)."""
import json
from importlib.resources import files

import pytest

import confounders.adjust
import confounders.classify
import confounders.cli
from confounders.classify import DEFINITIONS, MODEL_DEFINITIONS
from confounders.errors import InvalidConfig, MissingModel
from confounders.formats import json_ready, load_graph, load_model
from confounders.graph import Dag
from confounders.properties import (
    PropertyVerdict,
    check_property1,
    check_property2a,
    check_property2b,
    distinguishing_context,
    positive_covariates,
)
from confounders.registry import get_entry

COLLIDER_CHILD = get_entry("Fig1")
MEDIATED_BACKDOOR = get_entry("Fig2")
TWO_ROUTES = get_entry("Fig3")
SURROGATE = get_entry("Fig4")
SINGLE = get_entry("Prop5")


# -- positive sets -----------------------------------------------------------------


def test_positive_covariates_per_definition():
    assert positive_covariates(COLLIDER_CHILD.dag, "D1") == ("C1", "C2", "C3")
    assert positive_covariates(COLLIDER_CHILD.dag, "D2") == ("C1", "C2")
    assert positive_covariates(TWO_ROUTES.dag, "D3") == ()
    assert positive_covariates(TWO_ROUTES.dag, "D4") == ("C1", "C2")
    assert positive_covariates(SURROGATE.dag, "D5", SURROGATE.model) == ("C1", "C2")


@pytest.mark.parametrize(
    "name, d3, d4",
    [
        ("Fig1", (), ()),
        ("Fig2", ("C1",), ("C1",)),
        ("Fig3", (), ("C1", "C2")),
        ("Fig4", ("C1",), ("C1",)),
        ("Prop5", ("C",), ("C",)),
    ],
)
def test_positive_covariates_d3_d4_on_registry(name, d3, d4):
    dag = get_entry(name).dag
    assert positive_covariates(dag, "D3") == d3
    assert positive_covariates(dag, "D4") == d4


def test_positive_covariates_lists_the_catalog_once(monkeypatch):
    calls = []
    real = confounders.adjust._minimal_lanes

    def counted(sufficient, k):
        calls.append(k)
        return real(sufficient, k)

    monkeypatch.setattr(confounders.adjust, "_minimal_lanes", counted)
    shared = COLLIDER_CHILD.dag
    dag = Dag(shared.nodes, shared.edges, shared.exposure, shared.outcome, shared.declared_pre)
    assert positive_covariates(dag, "D4") == ()
    assert positive_covariates(dag, "D3") == ()
    assert len(dag.covariate_pool) == 3 and len(calls) == 1


def test_positive_covariates_needs_model_for_numeric_defs():
    with pytest.raises(MissingModel):
        positive_covariates(SURROGATE.dag, "D5")
    with pytest.raises(MissingModel):
        positive_covariates(SURROGATE.dag, "D6")


def test_unknown_definition_rejected():
    with pytest.raises(InvalidConfig):
        positive_covariates(SINGLE.dag, "D7")
    with pytest.raises(InvalidConfig):
        check_property1(SINGLE.dag, SINGLE.model, "d1")


# -- property 1 --------------------------------------------------------------------


def test_p1_holds_for_d1_on_collider_child():
    v = check_property1(COLLIDER_CHILD.dag, COLLIDER_CHILD.model, "D1")
    assert isinstance(v, PropertyVerdict)
    assert v.property == "P1" and v.definition == "D1"
    assert v.holds and v.witness == {"set": ("C1", "C2", "C3")}


def test_p1_fails_for_d3_when_no_common_members():
    v = check_property1(TWO_ROUTES.dag, None, "D3")
    assert not v.holds
    assert v.witness["set"] == ()
    assert v.witness["open_backdoor"] == "A <- C2 <- C1 -> Y"


def test_p1_holds_for_d4_on_two_routes():
    v = check_property1(TWO_ROUTES.dag, TWO_ROUTES.model, "D4")
    assert v.holds and v.witness["set"] == ("C1", "C2")


def test_p1_holds_for_d2_on_mediated_backdoor():
    v = check_property1(MEDIATED_BACKDOOR.dag, MEDIATED_BACKDOOR.model, "D2")
    assert v.holds


def test_p1_fails_for_model_definitions_with_empty_positives():
    # no variable is D5- or D6-positive here, and the empty set leaves the
    # single backdoor path open
    for def_id in ("D5", "D6"):
        v = check_property1(SINGLE.dag, SINGLE.model, def_id)
        assert not v.holds and v.witness["set"] == ()


def test_p1_model_definitions_require_model():
    with pytest.raises(MissingModel):
        check_property1(SURROGATE.dag, None, "D5")


# -- distinguishing contexts and property 2A ------------------------------------------


def test_distinguishing_context_found_and_missing():
    assert distinguishing_context(TWO_ROUTES.dag, "C1") == ()
    assert distinguishing_context(COLLIDER_CHILD.dag, "C3") is None


def test_p2a_holds_for_d4_positives():
    for c in ("C1", "C2"):
        v = check_property2a(TWO_ROUTES.dag, "D4", c)
        assert v.holds
        assert v.witness["context"] == ()
        assert v.witness["open_without"] == "A <- C2 <- C1 -> Y"


def test_p2a_fails_for_collider_child():
    v = check_property2a(COLLIDER_CHILD.dag, "D1", "C3")
    assert not v.holds
    assert v.witness == {"variable": "C3", "note": "no context distinguishes C3"}


def test_p2a_fails_for_d2_positive_that_never_matters():
    v = check_property2a(MEDIATED_BACKDOOR.dag, "D2", "C2")
    assert not v.holds


def test_p2a_rejects_non_positive_variable():
    with pytest.raises(InvalidConfig):
        check_property2a(COLLIDER_CHILD.dag, "D4", "C3")


def test_p2a_rejects_names_outside_the_pool():
    for name in ("A", "Y", "nope"):
        with pytest.raises(InvalidConfig, match="not D1-positive"):
            check_property2a(COLLIDER_CHILD.dag, "D1", name)


def counted_d1(monkeypatch):
    # the properties read the D1 verdict alone, `_d1_holds`
    calls = []
    real = confounders.classify._d1_holds

    def counted(dag, variable):
        calls.append(variable)
        return real(dag, variable)

    monkeypatch.setattr(confounders.classify, "_d1_holds", counted)
    return calls


def test_property2_evaluates_only_the_variable_asked(monkeypatch):
    calls = counted_d1(monkeypatch)
    assert check_property2a(COLLIDER_CHILD.dag, "D1", "C2").holds
    assert not check_property2b(COLLIDER_CHILD.model, "D1", "C3").holds
    assert calls == ["C2", "C3"]


def test_properties_command_evaluates_each_positive_once(monkeypatch, tmp_path, capsys):
    # every Ci is a common cause of A and Y, so all six are D1-positive; the
    # command lists them once and hands that set to P1 and to every P2A row
    # (before: 18 calls, the set listed for P1, again for the rows, and each
    # row's precondition evaluated once more)
    n = 6
    lines = [f"node C{i} pre" for i in range(n)] + ["node A exposure", "node Y outcome"]
    lines += [f"edge C{i} {v}" for i in range(n) for v in ("A", "Y")] + ["edge A Y"]
    graph = tmp_path / "forks.graph"
    graph.write_text("\n".join(lines) + "\n")
    calls = counted_d1(monkeypatch)
    assert confounders.cli.main(["properties", str(graph), "--def", "D1"]) == 0
    out = capsys.readouterr().out
    assert out.count("P2A D1 C") == n
    assert len(calls) == n


def public_rows(graph, model_file, def_id):
    """The properties command's rows, from the public checks called one by
    one: P1, then P2A (and P2B with a model) for each positive."""
    dag = load_graph(graph)
    model = load_model(model_file, dag) if model_file else None
    rows = [(check_property1(dag, model, def_id), None)]
    positives = positive_covariates(dag, def_id, model)
    for c in positives:
        rows.append((check_property2a(dag if model is None else model.dag, def_id, c), c))
        if model is not None:
            rows.append((check_property2b(model, def_id, c), c))
    return positives, rows


@pytest.mark.parametrize("with_model", [False, True], ids=["graph", "model"])
@pytest.mark.parametrize("def_id", DEFINITIONS)
@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4", "prop5"])
def test_properties_command_rows_match_the_public_checks(capsys, figure, def_id, with_model):
    fixtures = files("confounders").joinpath("fixtures")
    graph = str(fixtures.joinpath(f"{figure}.graph"))
    model_file = str(fixtures.joinpath(f"{figure}.json")) if with_model else None
    argv = ["properties", graph, "--def", def_id] + (["--model", model_file] if with_model else [])
    if def_id in MODEL_DEFINITIONS and not with_model:
        assert confounders.cli.main(argv) == 4
        return
    positives, rows = public_rows(graph, model_file, def_id)

    assert confounders.cli.main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["positives"] == list(positives)
    assert doc["verdicts"] == json.loads(json.dumps([dict(json_ready(v), variable=c) for v, c in rows]))

    assert confounders.cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{v.property} {def_id}{f' {c}' if c else ''}: {'PASS' if v.holds else 'FAIL'}"
        + confounders.cli._describe_witness(v, False)
        for v, c in rows
    ]


def test_p2a_for_model_definitions_trusts_caller():
    # without a model the graph layer cannot verify D5-positivity; the call
    # still answers the graphical question
    v = check_property2a(SURROGATE.dag, "D5", "C2")
    assert not v.holds


# -- property 2B -----------------------------------------------------------------------


def test_p2b_holds_for_surrogate():
    v = check_property2b(SURROGATE.model, "D5", "C2")
    assert v.holds
    assert v.witness["context"] == ()
    assert v.witness["abs_bias_with"] == "122/2583"
    assert v.witness["abs_bias_without"] == "6/119"


def test_p2b_fails_when_adding_never_helps():
    v = check_property2b(COLLIDER_CHILD.model, "D1", "C3")
    assert not v.holds
    assert v.witness["note"] == "no context shrinks |bias|"


def test_p2b_fails_for_d2_on_mediated_backdoor():
    assert not check_property2b(MEDIATED_BACKDOOR.model, "D2", "C2").holds


def test_p2a_p2b_disagree_on_surrogate():
    # the pair that motivates keeping both readings of property 2
    assert not check_property2a(SURROGATE.dag, "D5", "C2").holds
    assert check_property2b(SURROGATE.model, "D5", "C2").holds
