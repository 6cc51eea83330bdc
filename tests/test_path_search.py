"""First-hit backdoor path search, checked against full path enumeration.

The oracle is `backdoor_paths` filtered by `is_blocked` (for witnesses) or
by the non-collider position of the variable (for D2): the search must
return exactly the first path that filter keeps, or None when it keeps
none. The D2 verdict comes before any search (`classify._d2_holds`), so it
is checked against the same filter, and the search is checked to run only
when the verdict holds.
"""
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders.adjust as adjust_module
import confounders.graph as graph_module
from confounders.adjust import _first_backdoor_path, backdoor_paths, is_sufficient
from confounders.classify import classify_d2
from confounders.cli import main
from confounders.errors import SizeLimit
from confounders.fuzz import random_dag
from confounders.graph import Dag, Graph, is_blocked


@st.composite
def dags(draw, max_nodes=10):
    n = draw(st.integers(2, max_nodes))
    names = [f"V{i}" for i in range(n)]
    order = draw(st.permutations(names))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    exposure, outcome = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    return Dag(names, [e for e, k in zip(pairs, keep) if k], exposure, outcome)


@st.composite
def sparse_dags(draw, max_nodes=16):
    """About one to two edges per node, so that every path can be listed;
    the outcome descends from the exposure in about half of them."""
    n = draw(st.integers(2, max_nodes))
    names = [f"V{i}" for i in range(n)]
    order = draw(st.permutations(names))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from((1.0, 1.5, 2.0))) * 2 / max(n - 1, 1)
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    exposure = draw(st.sampled_from(names))
    below = sorted(Graph(names, edges).descendants(exposure))
    if not (below and draw(st.booleans())):
        below = [v for v in names if v != exposure]
    return Dag(names, edges, exposure, draw(st.sampled_from(below)))


def _first_open(dag, given):
    return next((p for p in backdoor_paths(dag) if not is_blocked(dag, p, given)), None)


def _first_d2(dag, variable):
    for path in backdoor_paths(dag):
        for i in range(1, len(path.nodes) - 1):
            if path.nodes[i] == variable and not path.is_collider_at(i):
                return path
    return None


@settings(max_examples=300, deadline=None)
@given(dag=dags(), data=st.data())
def test_witness_is_first_open_backdoor_path(dag, data):
    # any nodes but the endpoints, so descendants of the exposure can be
    # conditioned on and open colliders from below
    others = [v for v in dag.nodes if v not in (dag.exposure, dag.outcome)]
    given_set = data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    mask = dag._mask(given_set)
    got = _first_backdoor_path(dag, ~mask, dag._kernel.closure_up(mask))
    assert got == _first_open(dag, given_set)


@settings(max_examples=200, deadline=None)
@given(dag=dags(), data=st.data())
def test_is_sufficient_witness_matches_enumeration(dag, data):
    pool = dag.covariate_pool
    subset = data.draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    verdict = is_sufficient(dag, subset)
    assert verdict.open_backdoor_witness == _first_open(dag, subset)
    assert verdict.sufficient == (verdict.open_backdoor_witness is None)


@settings(max_examples=200, deadline=None)
@given(dag=dags())
def test_d2_matches_enumeration(dag):
    for variable in dag.covariate_pool:
        want = _first_d2(dag, variable)
        assert classify_d2(dag, variable) == (want is not None, want)


@settings(max_examples=200, deadline=None)
@given(dag=sparse_dags())
def test_d2_matches_enumeration_up_to_16_nodes(dag):
    # exposure and outcome are drawn apart from the edges, so the outcome
    # often does not descend from the exposure
    for variable in dag.covariate_pool:
        want = _first_d2(dag, variable)
        assert classify_d2(dag, variable) == (want is not None, want)


# C's only neighbours are its parents P1, on the way to A, and P2, on the
# way to Y: C is a collider on the one backdoor path, A <- P1 -> C <- P2 -> Y.
# Two paths leave C to A and to Y and share only C, but both leave upward.
COLLIDER = Dag(
    ("P1", "P2", "C", "A", "Y"),
    (("P1", "A"), ("P1", "C"), ("P2", "C"), ("P2", "Y"), ("A", "Y")),
    "A",
    "Y",
)


def test_d2_no_where_c_is_a_collider_on_every_backdoor_path():
    assert [str(p) for p in backdoor_paths(COLLIDER)] == ["A <- P1 -> C <- P2 -> Y"]
    assert classify_d2(COLLIDER, "C") == (False, None)
    for variable in ("P1", "P2"):
        assert classify_d2(COLLIDER, variable)[0]
    # one arrow out of C is enough: C -> Y opens A <- P1 -> C -> Y
    opened = Dag(COLLIDER.nodes, COLLIDER.edges + (("C", "Y"),), "A", "Y")
    assert str(classify_d2(opened, "C")[1]) == "A <- P1 -> C -> Y"


def test_d2_searches_for_a_path_only_when_the_verdict_holds(monkeypatch):
    searches = []
    search = adjust_module._first_path

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(adjust_module, "_first_path", counted)
    assert classify_d2(COLLIDER, "C") == (False, None)
    assert searches == []
    rng = random.Random(17)
    negatives = 0
    for _ in range(40):
        dag = random_dag(rng, rng.randint(4, 9), 0.35)
        for variable in dag.covariate_pool:
            before = len(searches)
            verdict, _ = classify_d2(dag, variable)
            assert len(searches) - before == verdict
            negatives += not verdict
    assert negatives > 0


def test_d2_answers_every_covariate_of_20_node_dags():
    # at 20 nodes and edge probability 0.3 the search alone exhausted
    # MAX_PATH_EXPANSIONS on 4 negative covariates (about 0.8 s each)
    rng = random.Random(3)
    dags = [random_dag(rng, 20, 0.3) for _ in range(20)]
    start = time.process_time()
    positives = 0
    for dag in dags:
        for variable in dag.covariate_pool:
            verdict, path = classify_d2(dag, variable)
            if verdict:
                i = path.nodes.index(variable)
                assert path.starts_into_source and not path.is_collider_at(i)
                positives += 1
    assert time.process_time() - start < 1.0
    assert positives == 127


@settings(max_examples=200, deadline=None)
@given(dag=dags(), data=st.data())
def test_derived_graphs_search_with_tables_of_their_own(dag, data):
    # the tables are built on a graph's first search and kept on it; a
    # graph derived after the Dag has searched builds its own
    others = [v for v in dag.nodes if v not in (dag.exposure, dag.outcome)]
    keep, given_set = (
        data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
        for _ in range(2)
    )

    def check_witness(graph):
        given_here = [v for v in given_set if v in graph._index]
        mask = graph._mask(given_here)
        got = _first_backdoor_path(graph, ~mask, graph._kernel.closure_up(mask))
        assert got == _first_open(graph, given_here)

    check_witness(dag)
    check_witness(dag)  # from the kept tables
    sub = dag.subgraph([*keep, dag.exposure, dag.outcome])
    graphs = [dag, dag.without_exposure_out_edges(), sub]
    for graph in graphs[1:]:
        check_witness(graph)
    tables = [part for graph in graphs for part in (graph._search, *graph._search)]
    assert len({id(part) for part in tables}) == len(tables)


# -- the complete DAG: every path search answers -----------------------------

N_COMPLETE = 16


def complete_dag():
    names = [f"C{i}" for i in range(N_COMPLETE)] + ["A", "Y"]
    edges = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    return Dag(names, edges, "A", "Y")


def write_graph(path, dag):
    lines = [f"node {v}" for v in dag.nodes if v not in (dag.exposure, dag.outcome)]
    lines += [f"node {dag.exposure} exposure", f"node {dag.outcome} outcome"]
    lines += [f"edge {u} {v}" for u, v in dag.edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_complete_dag_witness_is_an_open_backdoor_path():
    dag = complete_dag()
    verdict = is_sufficient(dag, ["C1"])
    assert not verdict.sufficient
    witness = verdict.open_backdoor_witness
    assert str(witness) == "A <- C0 -> C10 -> C11 -> C12 -> C13 -> C14 -> C15 -> Y"
    assert witness.starts_into_source and witness.nodes[-1] == "Y"
    assert not is_blocked(dag, witness, ["C1"])


def test_complete_dag_d2_answers_for_every_covariate():
    dag = complete_dag()
    for variable in dag.covariate_pool:
        verdict, path = classify_d2(dag, variable)
        assert verdict and variable in path.interior
        i = path.nodes.index(variable)
        assert not path.is_collider_at(i) and path.starts_into_source


def test_complete_dag_cli_classify_one_definition(tmp_path, capsys):
    graph = write_graph(tmp_path / "complete.graph", complete_dag())
    assert main(["classify", graph, "--variable", "C0", "--defs", "D1"]) == 0
    assert capsys.readouterr().out == "C0: D1 yes (context {})\n"


# -- the expansion cap ----------------------------------------------------------


def test_cap_raises_size_limit_with_count_and_cap(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_PATH_EXPANSIONS", 3)
    with pytest.raises(SizeLimit) as info:
        is_sufficient(complete_dag(), ["C1"])
    message = str(info.value)
    assert "expanded 4 nodes" in message and "cap of 3" in message


def test_cap_exits_3_from_cli(monkeypatch, tmp_path, capsys):
    graph = write_graph(tmp_path / "complete.graph", complete_dag())
    monkeypatch.setattr(graph_module, "MAX_PATH_EXPANSIONS", 3)
    assert main(["classify", graph, "--variable", "C0", "--defs", "D2"]) == 3
    assert "cap of 3" in capsys.readouterr().err
    # D1 builds no path, and a run that does not ask for D2 runs no D2 search
    assert main(["classify", graph, "--variable", "C0", "--defs", "D1"]) == 0
    assert capsys.readouterr().out == "C0: D1 yes (context {})\n"
