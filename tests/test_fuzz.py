"""Randomized theorem checks: generator invariants, hard assertions staying
silent, phenomenon counters counting, and byte-level determinism."""
import json
import random
from fractions import Fraction

import pytest

from confounders.errors import InvalidConfig
from confounders.fuzz import FuzzConfig, FuzzReport, fuzz, random_dag, random_model
from confounders.graph import Dag, Graph
from confounders.model import DiscreteModel


# -- config validation -------------------------------------------------------------


def test_config_requires_real_seed():
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=5, edge_prob=0.4, n_trials=5, seed=None)
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=5, edge_prob=0.4, n_trials=5, seed=True)


def test_config_bounds():
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=1, edge_prob=0.4, n_trials=5, seed=1)
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=11, edge_prob=0.4, n_trials=5, seed=1)
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=5, edge_prob=0.0, n_trials=5, seed=1)
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=5, edge_prob=1.5, n_trials=5, seed=1)
    with pytest.raises(InvalidConfig):
        FuzzConfig(n_nodes=5, edge_prob=0.4, n_trials=-1, seed=1)


@pytest.mark.parametrize("edge_prob", ["0.5", "abc", None, True, [0.5]])
def test_config_requires_a_real_edge_prob(edge_prob):
    # a string once passed validation and failed inside random_dag; True
    # once passed as 1.0
    with pytest.raises(InvalidConfig, match="edge_prob must be a real number"):
        FuzzConfig(n_nodes=4, edge_prob=edge_prob, n_trials=1, seed=1)


@pytest.mark.parametrize("n_trials", [True, False, 1.0, "1", None])
def test_config_requires_an_int_n_trials(n_trials):
    with pytest.raises(InvalidConfig, match="n_trials must be a nonnegative int"):
        FuzzConfig(n_nodes=4, edge_prob=0.5, n_trials=n_trials, seed=1)


def test_config_accepts_real_edge_probs():
    for edge_prob in (1, Fraction(1, 3), 0.25):
        assert fuzz(FuzzConfig(n_nodes=4, edge_prob=edge_prob, n_trials=2, seed=1)).ok


def test_fuzz_accepts_config_dict():
    by_dict = fuzz({"n_nodes": 4, "edge_prob": 0.5, "n_trials": 5, "seed": 9})
    by_config = fuzz(FuzzConfig(n_nodes=4, edge_prob=0.5, n_trials=5, seed=9))
    assert by_dict.to_json() == by_config.to_json()


# -- generators ---------------------------------------------------------------------


def test_random_dag_always_has_treatment_path():
    rng = random.Random(71)
    for _ in range(50):
        dag = random_dag(rng, rng.randint(2, 8), 0.3)
        assert dag.outcome in dag.descendants(dag.exposure)
        assert all(n.startswith("V") for n in dag.nodes)


def test_random_dag_deterministic_per_seed():
    a = random_dag(random.Random(5), 6, 0.4)
    b = random_dag(random.Random(5), 6, 0.4)
    assert a.nodes == b.nodes and a.edges == b.edges
    assert (a.exposure, a.outcome) == (b.exposure, b.outcome)


def builds_per_attempt(rng, n_nodes, edge_prob):
    """random_dag as it was drawn when every attempt built its Dag; the
    oracle for the draw and the rng stream."""
    names = [f"V{i}" for i in range(n_nodes)]
    while True:
        order = rng.sample(names, n_nodes)
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < edge_prob:
                    edges.append((order[i], order[j]))
        exposure, outcome = rng.sample(names, 2)
        dag = Dag(names, edges, exposure, outcome)
        if outcome in dag.descendants(exposure):
            return dag


@pytest.mark.parametrize("n_nodes", range(2, 11))
def test_random_dag_matches_the_build_per_attempt_loop(n_nodes):
    for seed in range(60):
        edge_prob = (0.1, 0.3, 0.6)[seed % 3]
        ours, oracle = random.Random(seed), random.Random(seed)
        got = random_dag(ours, n_nodes, edge_prob)
        want = builds_per_attempt(oracle, n_nodes, edge_prob)
        assert (got.nodes, got.edges) == (want.nodes, want.edges)
        assert (got.exposure, got.outcome) == (want.exposure, want.outcome)
        assert ours.getstate() == oracle.getstate()


def test_random_dag_builds_one_dag_per_call(monkeypatch):
    # every graph is built by Graph._build, checked or not
    built = []
    build = Graph._build

    def counted(self, *args, **kwargs):
        built.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "_build", counted)
    rng = random.Random(17)
    for n_nodes in range(2, 11):
        for _ in range(10):
            before = len(built)
            random_dag(rng, n_nodes, 0.15)
            assert len(built) - before == 1
    # the same draws redraw often: the per-attempt loop builds more
    built.clear()
    rng = random.Random(17)
    for n_nodes in range(2, 11):
        for _ in range(10):
            builds_per_attempt(rng, n_nodes, 0.15)
    assert len(built) > 2 * 90


def test_random_model_is_binary_with_small_denominators():
    rng = random.Random(73)
    dag = random_dag(rng, 6, 0.4)
    model = random_model(rng, dag)
    for node in dag.nodes:
        assert model.state_spaces[node] == (0, 1)
        for row in model.cpts[node].table.values():
            assert sum(row) == 1
            assert all(p.denominator <= 64 for p in row)


def test_random_model_is_the_model_the_checked_constructor_builds():
    # random_model skips the constructor's checks; each draw must pass them
    # and come out the same
    rng = random.Random(29)
    for n_nodes in range(2, 11):
        for _ in range(10):
            model = random_model(rng, random_dag(rng, n_nodes, 0.4))
            checked = DiscreteModel(model.dag, model.state_spaces, model.cpts)
            for attr in ("state_spaces", "cpts", "_fields", "_codes", "_rows", "_den", "_steps"):
                assert getattr(model, attr) == getattr(checked, attr), attr


# -- runs ----------------------------------------------------------------------------


def _counters(**nonzero):
    """The full counter dict of a report: every key zero except `nonzero`."""
    keys = (
        "cf_unconfounded_insufficient",
        "d1_graphical_numeric_gaps",
        "dashed_D1_to_D6",
        "dashed_D2_to_D1",
        "dashed_D2_to_D6",
        "dashed_D3_to_D5",
        "dashed_D3_to_D6",
        "dashed_D4_to_D5",
        "dashed_D4_to_D6",
        "p1_d3_failures",
        "p2a_as_definition_p1_failures",
    )
    return {key: nonzero.get(key, 0) for key in keys}


# Counts pinned from the fuzzer as it stood before the per-covariate checks
# went through classify_variable; the same draws must give the same counts.


def test_graph_run_has_no_hard_failures():
    report = fuzz(FuzzConfig(n_nodes=7, edge_prob=0.35, n_trials=200, seed=42))
    assert isinstance(report, FuzzReport)
    assert report.ok and report.hard_failures == ()
    assert report.trials == 200
    assert report.counters == _counters(dashed_D2_to_D1=20, p1_d3_failures=12)


def test_model_run_has_no_hard_failures():
    report = fuzz(
        FuzzConfig(n_nodes=5, edge_prob=0.4, n_trials=40, seed=42, with_models=True)
    )
    assert report.ok and report.hard_failures == ()
    assert report.counters == _counters(p1_d3_failures=3)


def test_counters_record_phenomena_without_failing():
    report = fuzz(FuzzConfig(n_nodes=6, edge_prob=0.35, n_trials=150, seed=11))
    assert report.ok
    assert report.counters["dashed_D2_to_D1"] > 0


def test_zero_trials():
    report = fuzz(FuzzConfig(n_nodes=5, edge_prob=0.4, n_trials=0, seed=1))
    assert report.ok and report.trials == 0
    assert all(v == 0 for v in report.counters.values())


def test_fuzz_reports_are_byte_deterministic():
    cfg = FuzzConfig(n_nodes=6, edge_prob=0.4, n_trials=60, seed=17, with_models=True)
    a, b = fuzz(cfg), fuzz(cfg)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()
    # a run where the model-layer dashed arrows count
    assert a.counters == _counters(dashed_D2_to_D1=2, dashed_D2_to_D6=2, p1_d3_failures=3)


def test_report_json_shape():
    report = fuzz(FuzzConfig(n_nodes=4, edge_prob=0.5, n_trials=5, seed=2))
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "counters", "hard_failures", "ok", "trials"}
    assert payload["ok"] is True
    assert payload["config"]["seed"] == 2
