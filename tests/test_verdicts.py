"""Verdicts decided apart from their witnesses.

The `holds` of each `classify._TABLE` record decides its definition with no
witness built: D1 from the probe mask and the lane vector, D2 by
`_d2_holds`, D3 and D4 from the minimal-set catalog. These verdicts must
equal those of `classify_variable`, and D1, D2 and D4 must have a witness
exactly when they hold, by the searches that list the witnesses: the D1
contexts, the first backdoor path through C, and the catalog's sets. The
fuzzer reads the verdicts alone and draws its DAGs without the
constructor's checks; both are checked here, along with what they no
longer run.
"""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders.adjust as adjust_module
import confounders.classify as classify_module
import confounders.properties as properties_module
from confounders.adjust import _first_backdoor_path, minimal_sufficient_sets
from confounders.classify import (
    ConfounderReport,
    _TABLE,
    _d1_contexts,
    _definitions,
    classify_variable,
)
from confounders.fuzz import FuzzConfig, fuzz, random_dag, random_model
from confounders.graph import Dag
from test_path_search import COLLIDER
from test_sliced import dags


def check_verdicts(dag, model=None):
    defs = _definitions(None, model is not None)
    catalog = minimal_sufficient_sets(dag)
    for variable in dag.covariate_pool:
        report = classify_variable(dag, variable, model)
        table = {def_id: _TABLE[def_id].holds(dag, model, variable) for def_id in defs}
        assert table == report.verdicts
        assert (report.witnesses["D1"] is not None) == table["D1"]
        assert report.witnesses["D1"] == next(_d1_contexts(dag, variable), None)
        c = 1 << dag._index[variable]
        path = _first_backdoor_path(dag, -1, ~c, through=c)
        assert (report.witnesses["D2"] is not None) == table["D2"] == (path is not None)
        assert report.witnesses["D2"] == path
        first = next((s for s in catalog.sets if variable in s), None)
        assert (report.witnesses["D4"] is not None) == table["D4"] == (first is not None)
        assert report.witnesses["D4"] == first


def every_dag(n):
    """Every DAG on V0 < ... < V(n-1) with its edges pointing forward, with
    every exposure-outcome pair that a directed path joins."""
    names = [f"V{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        graph = Dag(names, edges, names[0], names[1])
        for exposure, outcome in pairs:
            if outcome in graph.descendants(exposure):
                yield Dag(names, edges, exposure, outcome)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verdicts_match_the_reports_on_every_small_dag(n):
    graphs = 0
    for dag in every_dag(n):
        check_verdicts(dag)
        graphs += 1
    assert graphs == {2: 1, 3: 13, 4: 223, 5: 6313}[n]


@settings(max_examples=150, deadline=None)
@given(dag=dags(min_nodes=6, max_nodes=12), seed=st.integers(0, 2**32 - 1))
def test_verdicts_match_the_reports_on_random_dags(dag, seed):
    check_verdicts(dag)
    if len(dag.nodes) <= 8:
        check_verdicts(dag, random_model(random.Random(seed), dag))


def test_fuzz_dags_are_the_dags_the_constructor_builds():
    for seed in range(200):
        rng = random.Random(seed)
        n_nodes = rng.randint(2, 10)
        got = random_dag(rng, n_nodes, rng.choice((0.1, 0.35, 0.6)))
        want = Dag(got.nodes, got.edges, got.exposure, got.outcome)
        assert (got.nodes, got.edges, got.declared_pre) == (want.nodes, want.edges, None)
        assert (got._index, got._pmask, got._cmask) == (want._index, want._pmask, want._cmask)
        assert got.topological_order == want.topological_order
        assert got.covariate_pool == want.covariate_pool


def counted(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_a_graph_fuzz_trial_builds_no_witness(monkeypatch):
    # the catalog lists its sets with graph._lane_sets too; the D1 context
    # listing and the distinguishing context are the ones counted here
    calls = []
    counted(monkeypatch, adjust_module, "_first_path", calls)
    counted(monkeypatch, classify_module, "_lane_sets", calls)
    counted(monkeypatch, properties_module, "_lane_sets", calls)
    counted(monkeypatch, ConfounderReport, "__init__", calls)
    assert fuzz(FuzzConfig(n_nodes=10, edge_prob=0.35, n_trials=100, seed=5)).ok
    assert calls == []
    # the same draws, classified, do all three
    rng = random.Random(5)
    for _ in range(100):
        dag = random_dag(rng, 10, 0.35)
        for variable in dag.covariate_pool:
            classify_variable(dag, variable)
            properties_module.distinguishing_context(dag, variable)
    assert set(calls) == {"_first_path", "_lane_sets", "__init__"}


def test_a_d2_negative_report_builds_no_neighbour_table():
    dag = Dag(COLLIDER.nodes, COLLIDER.edges, COLLIDER.exposure, COLLIDER.outcome)
    assert not classify_variable(dag, "C").verdicts["D2"]
    assert dag._search is None
    rng = random.Random(23)
    negatives = 0
    for _ in range(200):
        dag = random_dag(rng, 8, 0.35)
        for variable in dag.covariate_pool:
            fresh = Dag(dag.nodes, dag.edges, dag.exposure, dag.outcome)
            report = classify_variable(fresh, variable)
            if not report.verdicts["D2"]:
                assert fresh._search is None
                negatives += 1
            else:
                assert fresh._search is not None
    assert negatives
