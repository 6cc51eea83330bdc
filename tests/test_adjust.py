"""Backdoor sufficiency and minimal adjustment sets, cross-checked against a
brute-force oracle that enumerates and blocks paths from scratch."""
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confounders.adjust as adjust_module
from confounders.adjust import (
    MAX_POOL,
    AdjustmentVerdict,
    MinimalSetCatalog,
    backdoor_paths,
    is_sufficient,
    minimal_sufficient_sets,
    subsets_canonical,
)
from confounders.classify import GRAPH_DEFINITIONS, classify_d3, classify_d4, classify_variable
from confounders.errors import NonCovariateInSet, SizeLimit
from confounders.graph import Dag, Graph
from confounders.fuzz import random_dag
from confounders.properties import check_property1, distinguishing_context
from helpers_oracle import naive_backdoor_sufficient, naive_descendants, naive_minimal_sets

FORK = Dag(("C1", "A", "Y"), (("C1", "A"), ("C1", "Y"), ("A", "Y")), "A", "Y")
TWO_ROUTES = Dag(
    ("C1", "C2", "A", "Y"),
    (("C1", "A"), ("C1", "C2"), ("C2", "Y"), ("A", "Y")),
    "A",
    "Y",
)


def test_subsets_canonical_order():
    got = tuple(subsets_canonical(("B", "A")))
    assert got == ((), ("A",), ("B",), ("A", "B"))


def test_backdoor_paths_fork():
    assert [str(p) for p in backdoor_paths(FORK)] == ["A <- C1 -> Y"]


def test_is_sufficient_fork():
    empty = is_sufficient(FORK, ())
    assert not empty.sufficient
    assert str(empty.open_backdoor_witness) == "A <- C1 -> Y"
    full = is_sufficient(FORK, ("C1",))
    assert full.sufficient and full.minimal
    assert full.open_backdoor_witness is None


def test_is_sufficient_flags_non_minimal():
    dag = Dag(
        ("C1", "C2", "A", "Y"),
        (("C1", "A"), ("C1", "Y"), ("C2", "Y"), ("A", "Y")),
        "A",
        "Y",
    )
    verdict = is_sufficient(dag, ("C1", "C2"))
    assert verdict.sufficient and not verdict.minimal


def test_is_sufficient_rejects_non_covariate():
    with pytest.raises(NonCovariateInSet):
        is_sufficient(FORK, ("Y",))
    with pytest.raises(NonCovariateInSet):
        is_sufficient(FORK, ("nope",))


def test_minimal_sets_two_routes():
    catalog = minimal_sufficient_sets(TWO_ROUTES)
    assert catalog.sets == (("C1",), ("C2",))
    assert catalog.union == ("C1", "C2")
    assert ("C1",) in catalog and ("C2", "C1") not in catalog
    assert not catalog.member_of_all("C1")
    assert not catalog.member_of_all("C2")


def test_minimal_sets_empty_when_no_backdoor():
    dag = Dag(("A", "M", "Y"), (("A", "M"), ("M", "Y")), "A", "Y")
    catalog = minimal_sufficient_sets(dag)
    assert catalog.sets == ((),)
    assert catalog.union == ()


def test_union_of_minimal_is_sufficient_verdict():
    verdict = is_sufficient(TWO_ROUTES, minimal_sufficient_sets(TWO_ROUTES).union)
    assert isinstance(verdict, AdjustmentVerdict)
    assert verdict.set == ("C1", "C2") and verdict.sufficient and not verdict.minimal


def test_pool_size_cap():
    n = 30
    names = tuple(f"C{i}" for i in range(n)) + ("A", "Y")
    edges = tuple((f"C{i}", "A") for i in range(n)) + tuple(
        (f"C{i}", "Y") for i in range(n)
    ) + (("A", "Y"),)
    dag = Dag(names, edges, "A", "Y")
    # every fork is a parent of A, so R, where the catalog's pass runs, has 30
    with pytest.raises(SizeLimit, match=r"over R \(the pool members that are ancestors "
                       r"of A or Y\) enumerates the subsets of 30 covariates"):
        minimal_sufficient_sets(dag)


def draws_past_the_pool_cap():
    """The sparse random DAGs, 40 per size, whose pool is over the cap:
    10, 32 and 38 of them."""
    out = []
    for n, p in ((32, 0.1), (40, 0.08), (48, 0.06)):
        rng = random.Random(4)
        draws = [random_dag(rng, n, p) for _ in range(40)]
        out += [dag for dag in draws if len(dag.covariate_pool) > MAX_POOL]
    return out


def test_the_catalog_answers_where_the_pool_is_over_the_cap():
    # the cap is on R, the pool members that are ancestors of A or Y, and R
    # fits it on every one of these draws
    dags = draws_past_the_pool_cap()
    assert len(dags) == 80
    start = time.process_time()
    for dag in dags:
        catalog = minimal_sufficient_sets(dag)
        assert catalog.sets
        for s in catalog.sets:
            assert is_sufficient(dag, s).minimal
        assert is_sufficient(dag, catalog.union).sufficient
        for c in dag.covariate_pool:
            assert classify_d3(dag, c) == catalog.member_of_all(c)
            assert classify_d4(dag, c)[0] == (c in catalog.union)
    assert time.process_time() - start < 5


def test_minimal_sets_match_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        dag = random_dag(rng, rng.randint(3, 7), 0.4)
        got = minimal_sufficient_sets(dag).sets
        want = naive_minimal_sets(dag.edges, dag.exposure, dag.outcome, dag.covariate_pool)
        assert set(got) == set(want)
        # canonical enumeration: size ascending, then lexicographic
        key = [(len(s), s) for s in got]
        assert key == sorted(key)


@st.composite
def small_dags(draw, max_nodes=8):
    """A random DAG, with a declared pre-exposure set half of the time."""
    n = draw(st.integers(2, max_nodes))
    names = [f"V{i}" for i in range(n)]
    order = draw(st.permutations(names))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    exposure, outcome = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    pre = draw(st.none() | st.sets(st.sampled_from(names)))
    return Dag(names, [e for e, k in zip(pairs, keep) if k], exposure, outcome, pre)


# Y -> P -> A <- C -> P: Y is an ancestor of A, and both parents of A are
# in the pool; {P} blocks A <- P <- Y but opens A <- C -> P <- Y
Y_ABOVE_A = Dag(("Y", "C", "P", "A"), (("Y", "P"), ("C", "P"), ("C", "A"), ("P", "A")), "A", "Y")
# Y -> A: a backdoor path no set blocks
Y_INTO_A = Dag(("Y", "C", "A"), (("Y", "A"), ("C", "A"), ("C", "Y")), "A", "Y")


@settings(max_examples=200, deadline=None)
@given(dag=small_dags(max_nodes=7), picks=st.lists(st.booleans(), min_size=7, max_size=7))
@example(dag=Y_ABOVE_A, picks=[False] * 7)
@example(dag=Y_ABOVE_A, picks=[True] + [False] * 6)
@example(dag=Y_INTO_A, picks=[False] * 7)
def test_sufficiency_matches_textbook_criterion(dag, picks):
    # every pool subset, parents of A among them, with the exposure and
    # outcome any pair: the scalar verdict, is_sufficient and one pass given
    # a fixed set L drawn from the pool, against the path-blocking oracle
    pool = dag.covariate_pool
    want = {
        s: naive_backdoor_sufficient(dag.edges, dag.exposure, dag.outcome, s)
        for s in subsets_canonical(pool)
    }
    for s, sufficient in want.items():
        assert adjust_module._sufficient(dag, s) == sufficient
        assert is_sufficient(dag, s).sufficient == sufficient
    fixed = tuple(c for c, pick in zip(pool, picks) if pick)
    members = [c for c in pool if c not in fixed]
    lanes = adjust_module._sufficient_lanes(dag, members, fixed)
    for lane in range(1 << len(members)):
        s = tuple(sorted(fixed + tuple(c for i, c in enumerate(members) if lane >> i & 1)))
        assert bool(lanes >> lane & 1) == want[s]


def test_a_fresh_dag_answers_every_graph_question_with_no_graph_built(monkeypatch):
    # sufficiency is asked of the Dag's own kernel: no backdoor graph, or
    # any other graph, is built after the Dag
    rng = random.Random(41)
    dags = [random_dag(rng, rng.randint(3, 8), 0.4) for _ in range(40)] + [Y_ABOVE_A, Y_INTO_A]
    builds = []
    build = Graph._build

    def counted(self, *args):
        builds.append(type(self))
        build(self, *args)

    for drawn in dags:
        dag = Dag(drawn.nodes, drawn.edges, drawn.exposure, drawn.outcome, drawn.declared_pre)
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "_build", counted)
            pool = dag.covariate_pool
            for s in (pool, pool[:1], ()):
                is_sufficient(dag, s)
            minimal_sufficient_sets(dag)
            for variable in pool:
                classify_variable(dag, variable)
                distinguishing_context(dag, variable)
            for def_id in GRAPH_DEFINITIONS:
                check_property1(dag, None, def_id)
        assert builds == []


def hull_members(dag):
    """The pool members that are ancestors of the exposure or the outcome,
    from the edge list."""
    reverse = [(v, u) for u, v in dag.edges]
    hull = naive_descendants(reverse, dag.exposure) | naive_descendants(reverse, dag.outcome)
    return tuple(c for c in dag.covariate_pool if c in hull)


@settings(max_examples=200, deadline=None)
@given(dag=small_dags())
def test_catalog_matches_brute_force_with_and_without_declared_pre(dag):
    want = naive_minimal_sets(dag.edges, dag.exposure, dag.outcome, dag.covariate_pool)
    assert minimal_sufficient_sets(dag).sets == want


@settings(max_examples=200, deadline=None)
@given(dag=small_dags())
def test_catalog_pass_gets_the_pool_members_in_the_ancestor_hull(dag):
    passes = []
    lanes = adjust_module._sufficient_lanes

    def counted(dag, members, fixed=()):
        passes.append(tuple(members))
        return lanes(dag, members, fixed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adjust_module, "_sufficient_lanes", counted)
        minimal_sufficient_sets(dag)
    assert passes == [hull_members(dag)]


def test_minimal_sets_live_inside_ancestor_hull():
    rng = random.Random(29)
    for _ in range(60):
        dag = random_dag(rng, rng.randint(4, 8), 0.35)
        hull = dag.ancestors(dag.exposure) | dag.ancestors(dag.outcome)
        for s in minimal_sufficient_sets(dag).sets:
            assert set(s) <= hull


def test_union_of_minimal_always_sufficient():
    rng = random.Random(31)
    for _ in range(60):
        dag = random_dag(rng, rng.randint(3, 8), 0.4)
        assert is_sufficient(dag, minimal_sufficient_sets(dag).union).sufficient
