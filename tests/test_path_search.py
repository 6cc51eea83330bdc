"""First-hit backdoor path search, checked against full path enumeration.

The oracle is `backdoor_paths` filtered by `is_blocked` (for witnesses) or
by the non-collider position of the variable (for D2): the search must
return exactly the first path that filter keeps, or None when it keeps
none. The D2 verdict comes before any search (`classify._d2_holds`), so it
is checked against the same filter, and the search is checked to run only
when the verdict holds. Each search runs with its completion tests from the
first candidate (`PLAIN_EXPANSIONS` at 0) and after its default plain
expansions, on graphs whose index order is name order and on graphs whose
is not; and the two completion tests themselves, the ball and
`classify._d2_completes`, are checked against the same listing, on the
graph less a removed set, from an end with a given first step.
"""
import random
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders.adjust as adjust_module
import confounders.graph as graph_module
from confounders.adjust import _first_backdoor_path, backdoor_paths, is_sufficient
from confounders.classify import _d2_completes, classify_d2
from confounders.cli import main
from confounders.fuzz import random_dag
from confounders.graph import Dag, Graph, _ball_reaches, enumerate_paths, is_blocked

DEFAULT_PLAIN = graph_module.PLAIN_EXPANSIONS


@contextmanager
def plain_expansions(count):
    """Run the path searches with `count` plain expansions before their
    completion tests (None: the default)."""
    saved = graph_module.PLAIN_EXPANSIONS
    graph_module.PLAIN_EXPANSIONS = DEFAULT_PLAIN if count is None else count
    try:
        yield
    finally:
        graph_module.PLAIN_EXPANSIONS = saved


@st.composite
def dags(draw, max_nodes=10, shuffled=False):
    """Random DAGs on V0 ... V(n-1); with `shuffled`, the nodes are listed
    in a random order, so index order is not name order."""
    n = draw(st.integers(2, max_nodes))
    names = [f"V{i}" for i in range(n)]
    order = draw(st.permutations(names))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    exposure, outcome = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    nodes = draw(st.permutations(names)) if shuffled else names
    return Dag(nodes, [e for e, k in zip(pairs, keep) if k], exposure, outcome)


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


PLAIN = pytest.mark.parametrize("plain", [0, None], ids=["tested-at-once", "default"])


@PLAIN
@settings(max_examples=300, deadline=None)
@given(dag=dags(shuffled=True), data=st.data())
def test_witness_is_first_open_backdoor_path(plain, dag, data):
    # any nodes but the endpoints, so descendants of the exposure can be
    # conditioned on and open colliders from below
    others = [v for v in dag.nodes if v not in (dag.exposure, dag.outcome)]
    given_set = data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    mask = dag._mask(given_set)
    with plain_expansions(plain):
        got = _first_backdoor_path(dag, ~mask, dag._kernel.closure_up(mask))
    assert got == _first_open(dag, given_set)


@PLAIN
@settings(max_examples=200, deadline=None)
@given(dag=dags(), data=st.data())
def test_is_sufficient_witness_matches_enumeration(plain, dag, data):
    pool = dag.covariate_pool
    subset = data.draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    with plain_expansions(plain):
        verdict = is_sufficient(dag, subset)
    assert verdict.open_backdoor_witness == _first_open(dag, subset)
    assert verdict.sufficient == (verdict.open_backdoor_witness is None)


@PLAIN
@settings(max_examples=200, deadline=None)
@given(dag=dags(shuffled=True))
def test_d2_matches_enumeration(plain, dag):
    with plain_expansions(plain):
        for variable in dag.covariate_pool:
            want = _first_d2(dag, variable)
            assert classify_d2(dag, variable) == (want is not None, want)


@PLAIN
@settings(max_examples=200, deadline=None)
@given(dag=sparse_dags())
def test_d2_matches_enumeration_up_to_16_nodes(plain, dag):
    # exposure and outcome are drawn apart from the edges, so the outcome
    # often does not descend from the exposure; past 10 nodes, index order
    # (V0, V1, ..., V10) is not name order (V0, V1, V10, ...)
    with plain_expansions(plain):
        for variable in dag.covariate_pool:
            want = _first_d2(dag, variable)
            assert classify_d2(dag, variable) == (want is not None, want)


@st.composite
def completion_draws(draw):
    """A DAG, an end v other than the outcome, a removed set of nodes
    other than v and the outcome, and a first step: some of v's neighbours
    outside the removed set."""
    dag = draw(dags(max_nodes=8, shuffled=True))
    v = draw(st.sampled_from([name for name in dag.nodes if name != dag.outcome]))
    rest = [name for name in dag.nodes if name not in (v, dag.outcome)]
    removed = draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))
    near = sorted(dag.adjacent(v) - set(removed))
    step = draw(st.lists(st.sampled_from(near), unique=True) if near else st.just([]))
    return dag, v, removed, step


def completions(dag, v, removed, step):
    """Every simple path from v to the outcome, over nodes outside
    `removed`, whose second node is in `step`."""
    sub = dag.subgraph(set(dag.nodes) - set(removed))
    return [p for p in enumerate_paths(sub, v, dag.outcome) if p.nodes[1] in step]


@settings(max_examples=400, deadline=None)
@given(draw=completion_draws(), data=st.data())
def test_the_ball_finds_a_completion_exactly_when_one_is_open(draw, data):
    # open: each interior node other than v passes only outside S and is a
    # collider only among the ancestors of S
    dag, v, removed, step = draw
    others = [name for name in dag.nodes if name not in (v, dag.outcome)]
    given_set = data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    given_mask = dag._mask(given_set)
    hull = dag._kernel.closure_up(given_mask)

    def is_open(path):
        for i in range(1, len(path.nodes) - 1):
            bit = 1 << dag._index[path.nodes[i]]
            if not (hull if path.is_collider_at(i) else ~given_mask) & bit:
                return False
        return True

    want = any(is_open(p) for p in completions(dag, v, removed, step))
    inside = dag._mask(removed) | 1 << dag._index[v]
    got = _ball_reaches(
        dag._pmask, dag._cmask, dag._index[v], dag._mask(step), ~inside,
        dag._index[dag.outcome], ~given_mask, hull,
    )
    assert got == want


@settings(max_examples=400, deadline=None)
@given(draw=completion_draws(), data=st.data())
def test_the_d2_completion_test_matches_enumeration(draw, data):
    dag, v, removed, step = draw
    others = [name for name in dag.nodes if name not in (v, dag.outcome, *removed)]
    if not others:
        return
    c = data.draw(st.sampled_from(others))
    want = any(
        c in p.interior and not p.is_collider_at(p.nodes.index(c))
        for p in completions(dag, v, removed, step)
    )
    got = _d2_completes(dag, dag._index[c], dag._index[v], dag._mask(step), dag._mask(removed))
    assert got == want


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
    # its one-million-expansion cap, since deleted, on 4 negative covariates
    # (about 0.8 s each)
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
def test_derived_graphs_give_their_own_first_open_witness(dag, data):
    # a graph derived after the Dag has searched searches on its own masks
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
    check_witness(dag)
    for graph in (dag.without_exposure_out_edges(), dag.subgraph([*keep, dag.exposure, dag.outcome])):
        check_witness(graph)


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


