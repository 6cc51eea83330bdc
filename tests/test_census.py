"""A census of every small DAG: the fuzzer's hard checks, the paper's
headline result, the D1 verdicts against the sliced passes, the
conditional confounder against its subset scan and the graphical selection
traces against their replay, on all graphs where random fuzz only samples;
the D1 and conditional checks also on every declared pre-exposure pool of
them.

`every_dag(n)` lists each edge set over V0 < ... < V(n-1) with every
exposure-outcome pair a directed path joins, so every DAG on n nodes
appears, up to relabelling, at least once: 1, 13, 223 and 6,313 graphs at
2-5 nodes. The counts are over these labelled graphs, not up to
isomorphism.
"""
from functools import lru_cache

import pytest

from confounders.adjust import _sufficient
from confounders.classify import _TABLE, GRAPH_DEFINITIONS, conditional_confounder
from confounders.fuzz import _COUNTER_KEYS, _run_trial
from confounders.graph import Dag
from confounders.properties import _distinguishing_lanes, check_property1, check_property2a
from helpers_oracle import all_subsets, scan_conditional
from test_selection import check_against_replay
from test_sliced import check_d1_against_the_passes, others, sufficient_scan
from test_verdicts import every_dag


def describe(dag):
    return (tuple(dag.edges), dag.exposure, dag.outcome)


@lru_cache(maxsize=None)
def census(n):
    """Over every DAG on n nodes: the fuzzer's hard failures, its counters
    and the first graph that raised each one, and the first graph and the
    number of graphs on which each of D1-D4 fails Property 1 and 2A."""
    failures = []
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    first_event = {}
    property_failures = {(d, p): 0 for d in GRAPH_DEFINITIONS for p in ("P1", "P2A")}
    first_failure = {}
    for index, dag in enumerate(every_dag(n)):
        before = dict(counters)
        _run_trial(index, dag, None, failures, counters)
        for key, count in counters.items():
            if count > before[key]:
                first_event.setdefault(key, dag)
        pool = dag.covariate_pool
        for def_id in GRAPH_DEFINITIONS:
            holds = _TABLE[def_id].holds
            positives = [i for i, c in enumerate(pool) if holds(dag, None, c)]
            failed = {
                "P1": not _sufficient(dag, [pool[i] for i in positives]),
                "P2A": any(not _distinguishing_lanes(dag, i) for i in positives),
            }
            for prop, fails in failed.items():
                if fails:
                    property_failures[def_id, prop] += 1
                    first_failure.setdefault((def_id, prop), dag)
    return failures, counters, first_event, property_failures, first_failure


# the first graph of both counted events, at 4 nodes
FIRST_EDGES = (("V0", "V1"), ("V0", "V3"), ("V1", "V2"), ("V2", "V3"))


@pytest.mark.parametrize(
    "n, p1_d3, dashed_d2_d1", [(2, 0, 0), (3, 0, 0), (4, 3, 2), (5, 231, 210)]
)
def test_no_dag_of_up_to_5_nodes_fails_a_hard_check(n, p1_d3, dashed_d2_d1):
    failures, counters, first_event, _, _ = census(n)
    assert failures == []
    expected = dict.fromkeys(_COUNTER_KEYS, 0)
    expected.update(p1_d3_failures=p1_d3, dashed_D2_to_D1=dashed_d2_d1)
    assert counters == expected
    if n >= 4:
        assert describe(first_event["dashed_D2_to_D1"]) == (FIRST_EDGES, "V1", "V2")
        assert describe(first_event["p1_d3_failures"]) == (FIRST_EDGES, "V2", "V3")
    assert set(first_event) == {key for key, count in counters.items() if count}


# graphs on which a definition fails a property; no other pair ever fails
PROPERTY_FAILURES = {
    3: {},
    4: {("D1", "P2A"): 11, ("D2", "P2A"): 7, ("D3", "P1"): 3},
    5: {("D1", "P2A"): 765, ("D2", "P2A"): 623, ("D3", "P1"): 231},
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_only_d4_satisfies_property_1_and_2a_on_every_small_dag(n):
    _, _, _, property_failures, first_failure = census(n)
    expected = {key: PROPERTY_FAILURES[n].get(key, 0) for key in property_failures}
    assert property_failures == expected
    both = [d for d in GRAPH_DEFINITIONS if not any(property_failures[d, p] for p in ("P1", "P2A"))]
    assert both == (list(GRAPH_DEFINITIONS) if n == 3 else ["D4"])
    # the public checks agree on the first failing graph of each pair
    for (def_id, prop), dag in first_failure.items():
        p1 = check_property1(dag, None, def_id)
        if prop == "P1":
            assert not p1.holds
        else:
            assert not all(check_property2a(dag, def_id, c).holds for c in p1.witness["set"])


def declared_pools(n):
    """Every DAG on n nodes once per proper subset of its eligible
    covariates, declared as its pre-exposure pool."""
    for dag in every_dag(n):
        eligible = dag.covariate_pool
        for keep in all_subsets(eligible)[:-1]:
            yield Dag(dag.nodes, dag.edges, dag.exposure, dag.outcome, declared_pre=keep)


def d1_answers(dags):
    """The number of covariates and of coordinated negatives over the
    graphs; each covariate's D1 verdict, witness and contexts must equal
    the passes'."""
    covariates = coordinated = 0
    for dag in dags:
        covariates += len(dag.covariate_pool)
        coordinated += check_d1_against_the_passes(dag)
    return covariates, coordinated


# the negatives the connectability filter leaves open are few: 5 at 5 nodes
@pytest.mark.parametrize(
    "n, full, declared",
    [(2, (0, 0), (0, 0)), (3, (7, 0), (0, 0)), (4, (230, 0), (140, 0)), (5, (9393, 5), (14880, 5))],
)
def test_d1_matches_the_passes_on_every_small_dag(n, full, declared):
    assert d1_answers(every_dag(n)) == full
    assert d1_answers(declared_pools(n)) == declared


def conditional_answers(dags):
    """The number of graphs, of conditional confounder calls and of calls
    that hold, over every covariate C and every conditioning set L of the
    other covariates; each call must agree with the subset scan."""
    graphs = calls = held = 0
    for dag in dags:
        graphs += 1
        sufficient = sufficient_scan(dag)
        for variable in dag.covariate_pool:
            rest = others(dag, variable)
            for conditioning in all_subsets(rest):
                free = [c for c in rest if c not in conditioning]
                answer = conditional_confounder(dag, variable, conditioning)
                assert answer == scan_conditional(variable, free, conditioning, sufficient)
                calls += 1
                held += answer[0]
    return graphs, calls, held


@pytest.mark.parametrize("n, calls, held", [(2, 0, 0), (3, 7, 1), (4, 370, 64), (5, 24273, 5016)])
def test_conditional_confounder_matches_its_scan_on_every_small_dag(n, calls, held):
    assert conditional_answers(every_dag(n))[1:] == (calls, held)


@pytest.mark.parametrize(
    "n, graphs, calls, held",
    [(2, 0, 0, 0), (3, 7, 0, 0), (4, 300, 140, 24), (5, 16213, 22320, 4280)],
)
def test_conditional_confounder_matches_its_scan_on_declared_pools(n, graphs, calls, held):
    assert conditional_answers(declared_pools(n)) == (graphs, calls, held)


@pytest.mark.parametrize(
    "n, starts, steps", [(2, 1, 0), (3, 20, 14), (4, 523, 766), (5, 22526, 51731)]
)
def test_selection_traces_match_their_replay_on_every_small_dag(n, starts, steps):
    # backward from every subset of the pool, and forward over it, each
    # trace equal to the one that asks d_separated once per step
    counted = [
        check_against_replay(dag, start)
        for dag in every_dag(n)
        for start in all_subsets(dag.covariate_pool)
    ]
    assert (len(counted), sum(counted)) == (starts, steps)
