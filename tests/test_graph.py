"""Directed-graph layer: construction guards, path enumeration, blocking,
and d-separation checked against an independent path-based oracle."""
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders
from confounders.errors import (
    CycleDetected,
    DuplicateEdge,
    GraphError,
    InvalidNodeName,
    InvalidPath,
    MissingExposureOrOutcome,
    OverlappingConditioningSet,
    OverlappingSets,
    SelfLoop,
    SizeLimit,
    UnknownNode,
)
from confounders.graph import (
    Dag,
    Graph,
    Path,
    _disjoint,
    d_separated,
    enumerate_paths,
    is_blocked,
)
from helpers_oracle import naive_d_separated, naive_descendants, naive_simple_paths

CHAIN = Graph(("A", "B", "C"), (("A", "B"), ("B", "C")))
FORK = Dag(("C1", "A", "Y"), (("C1", "A"), ("C1", "Y"), ("A", "Y")), "A", "Y")


def random_graph(rng, n, p):
    names = tuple(f"N{i}" for i in range(n))
    order = list(names)
    rng.shuffle(order)
    edges = tuple(
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    )
    return Graph(names, edges), edges


# -- construction guards ------------------------------------------------------


def test_duplicate_node_rejected():
    with pytest.raises(GraphError):
        Graph(("A", "A"), ())


def test_bad_name_rejected():
    with pytest.raises(InvalidNodeName):
        Graph(("ok", "has space"), ())


def test_unknown_edge_endpoint():
    with pytest.raises(UnknownNode):
        Graph(("A",), (("A", "B"),))


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        Graph(("A",), (("A", "A"),))


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        Graph(("A", "B"), (("A", "B"), ("A", "B")))


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        Graph(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")))


def test_node_cap():
    names = tuple(f"N{i}" for i in range(65))
    with pytest.raises(SizeLimit):
        Graph(names, ())


def test_dag_needs_exposure_and_outcome():
    with pytest.raises(MissingExposureOrOutcome):
        Dag(("A", "Y"), (("A", "Y"),), "A", "Z")


def test_covariate_pool_excludes_exposure_outcome_and_post():
    dag = Dag(
        ("C", "A", "M", "Y"),
        (("C", "A"), ("A", "M"), ("M", "Y"), ("C", "Y")),
        "A",
        "Y",
    )
    # M is a descendant of the exposure; never a candidate covariate
    assert dag.covariate_pool == ("C",)


def test_declared_pre_narrows_pool():
    dag = Dag(
        ("C", "B", "A", "Y"),
        (("C", "A"), ("B", "Y"), ("C", "Y"), ("A", "Y")),
        "A",
        "Y",
        declared_pre=("C",),
    )
    assert dag.covariate_pool == ("C",)


# -- relatives and graph surgery ----------------------------------------------


def test_relatives_kinds():
    assert CHAIN.parents("B") == frozenset({"A"})
    assert CHAIN.children("A") == frozenset({"B"})
    assert CHAIN.ancestors("C") == frozenset({"A", "B"})
    assert CHAIN.descendants("A") == frozenset({"B", "C"})
    assert CHAIN.nondescendants("C") == frozenset({"A", "B"})


def test_relatives_unknown_node():
    for kind in ("parents", "children", "ancestors", "descendants", "nondescendants"):
        with pytest.raises(UnknownNode):
            getattr(CHAIN, kind)("Q")


def test_subgraph_restrict_drops_edges():
    sub = CHAIN.subgraph(("A", "C"))
    assert sub.nodes == ("A", "C") and sub.edges == ()


def test_remove_into_strips_incoming_edges():
    g = CHAIN.without_edges_into("B")
    assert ("A", "B") not in g.edges and ("B", "C") in g.edges


def test_without_exposure_out_edges():
    g = FORK.without_exposure_out_edges()
    assert ("A", "Y") not in g.edges and ("C1", "Y") in g.edges


def check_relatives(g, edges):
    """Every relative query and has_edge of g against its edge list."""
    edge_set = set(edges)
    reverse = [(v, u) for u, v in edges]
    for v in g.nodes:
        parents = {u for u, w in edges if w == v}
        children = {w for u, w in edges if u == v}
        descendants = naive_descendants(edges, v)
        assert g.parents(v) == parents
        assert g.children(v) == children
        assert g.adjacent(v) == parents | children
        assert g.ancestors(v) == naive_descendants(reverse, v)
        assert g.descendants(v) == descendants
        assert g.nondescendants(v) == set(g.nodes) - descendants - {v}
        for u in g.nodes:
            assert g.has_edge(u, v) == ((u, v) in edge_set)


def check_derived(parent, derived, keep, edges):
    """`derived` is the graph on the nodes of `parent` in `keep`, in the
    parent's order, with exactly `edges`, in the parent's edge order; a Dag
    with the parent's roles and declared_pre & keep when the parent is a
    Dag and keep holds both its ends, a Graph otherwise."""
    assert derived.nodes == tuple(n for n in parent.nodes if n in keep)
    assert derived.edges == tuple(edges)
    checked = Graph(derived.nodes, derived.edges)
    assert (derived._index, derived._pmask, derived._cmask) == (
        checked._index, checked._pmask, checked._cmask
    )
    assert derived.topological_order == checked.topological_order
    roles = isinstance(parent, Dag) and parent.exposure in keep and parent.outcome in keep
    if not roles:
        assert type(derived) is Graph
        return
    assert type(derived) is Dag
    assert (derived.exposure, derived.outcome) == (parent.exposure, parent.outcome)
    if parent.declared_pre is None:
        assert derived.declared_pre is None
    else:
        assert derived.declared_pre == parent.declared_pre & set(keep)
    assert derived.covariate_pool == Dag(
        derived.nodes, derived.edges, derived.exposure, derived.outcome, derived.declared_pre
    ).covariate_pool
    check_relatives(derived, edges)


def check_surgery(g, rng):
    everything = set(g.nodes)
    for v in g.nodes:
        check_derived(
            g, g.without_edges_into(v), everything, [e for e in g.edges if e[1] != v]
        )
        check_derived(
            g, g.without_edges_from(v), everything, [e for e in g.edges if e[0] != v]
        )
    for _ in range(4):
        keep = {n for n in g.nodes if rng.random() < 0.6}
        edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
        check_derived(g, g.subgraph(keep), keep, edges)
    if isinstance(g, Dag):
        back = g.without_exposure_out_edges()
        check_derived(g, back, everything, [e for e in g.edges if e[0] != g.exposure])
        for end in (g.exposure, g.outcome):
            rest = everything - {end}
            edges = [(u, v) for u, v in g.edges if end not in (u, v)]
            check_derived(g, g.subgraph(rest), rest, edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_relatives_and_surgery_match_the_edge_list(seed, n):
    rng = random.Random(seed)
    g, edges = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    edges = list(edges)
    rng.shuffle(edges)
    g = Graph(g.nodes, edges)
    check_relatives(g, edges)
    check_surgery(g, rng)
    exposure, outcome = rng.sample(g.nodes, 2)
    pre = rng.choice((None, {v for v in g.nodes if rng.random() < 0.5}))
    dag = Dag(g.nodes, edges, exposure, outcome, pre)
    check_relatives(dag, edges)
    check_surgery(dag, rng)


def test_relatives_and_surgery_on_a_64_node_chain():
    names = tuple(f"N{i}" for i in range(64))
    edges = list(zip(names, names[1:]))
    chain = Dag(names, edges, "N0", "N63", names[:32])
    check_relatives(chain, edges)
    assert chain.ancestors("N63") == set(names[:63])
    assert chain.descendants("N0") == set(names[1:])
    check_surgery(chain, random.Random(64))


# -- path enumeration ----------------------------------------------------------


def test_paths_lexicographic_and_complete():
    paths = enumerate_paths(FORK, "A", "Y")
    assert [str(p) for p in paths] == ["A <- C1 -> Y", "A -> Y"]


def test_paths_match_naive_enumeration():
    rng = random.Random(21)
    for _ in range(40):
        g, edges = random_graph(rng, rng.randint(2, 7), 0.4)
        a, b = rng.sample(g.nodes, 2)
        got = {p.nodes for p in enumerate_paths(g, a, b)}
        want = {nodes for nodes, _ in naive_simple_paths(edges, a, b)}
        assert got == want


def test_path_same_endpoints_rejected():
    with pytest.raises(GraphError):
        enumerate_paths(CHAIN, "A", "A")


def test_malformed_paths_rejected_at_use():
    with pytest.raises(InvalidPath):
        is_blocked(CHAIN, Path(("A",), ()), ())
    with pytest.raises(InvalidPath):
        is_blocked(CHAIN, Path(("A", "B"), ("->", "->")), ())
    with pytest.raises(InvalidPath):
        is_blocked(CHAIN, Path(("A", "B", "A"), ("->", "<-")), ())
    with pytest.raises(InvalidPath):
        is_blocked(CHAIN, Path(("A", "B"), ("=>",)), ())


def test_is_blocked_rules():
    chain_path = enumerate_paths(CHAIN, "A", "C")[0]
    assert not is_blocked(CHAIN, chain_path, ())
    assert is_blocked(CHAIN, chain_path, ("B",))

    collider = Graph(("A", "B", "S"), (("A", "S"), ("B", "S")))
    path = enumerate_paths(collider, "A", "B")[0]
    assert is_blocked(collider, path, ())
    assert not is_blocked(collider, path, ("S",))


def test_is_blocked_rejects_conditioned_endpoint():
    path = enumerate_paths(CHAIN, "A", "C")[0]
    with pytest.raises(OverlappingConditioningSet):
        is_blocked(CHAIN, path, ("A",))


def test_path_not_in_graph():
    with pytest.raises(InvalidPath):
        is_blocked(CHAIN, Path(("A", "C"), ("->",)), ())


# -- d-separation ---------------------------------------------------------------


def test_dsep_basic():
    assert d_separated(CHAIN, ("A",), ("C",), ("B",))
    assert not d_separated(CHAIN, ("A",), ("C",))


def test_dsep_overlapping_sets_rejected():
    with pytest.raises(OverlappingSets):
        d_separated(CHAIN, ("A",), ("A",), ())
    with pytest.raises(OverlappingSets):
        d_separated(CHAIN, ("A",), ("C",), ("A",))


def test_dsep_unknown_node():
    with pytest.raises(UnknownNode):
        d_separated(CHAIN, ("A",), ("Q",), ())


def test_dsep_names_an_overlap_before_an_unknown_node():
    for args in ((("A", "Q"), ("A",), ()), (("A",), ("C",), ("C", "Q")), ({"Q"}, ["B"], ("B",))):
        with pytest.raises(OverlappingSets, match="more than one argument set"):
            d_separated(CHAIN, *args)


def frozenset_route(graph, set_a, set_b, given=()):
    """d_separated as it read every argument before masks: three
    frozensets, their overlap, then each set's mask."""
    set_a, set_b, given = frozenset(set_a), frozenset(set_b), frozenset(given)
    _disjoint((set_a, set_b, given))
    return graph._kernel.dsep(graph._mask(set_a), graph._mask(set_b), graph._mask(given))


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as error:
        return type(error), str(error)


# the argument forms a caller can pass: collections d_separated reads as
# masks, one-shot iterators, strings (sets of characters), dicts (sets of
# keys) and a non-iterable
ARGUMENT_KINDS = (tuple, list, set, frozenset, iter, "".join, dict.fromkeys, len)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dsep_reads_every_argument_as_the_frozenset_route_does(data):
    # answers and errors alike: class, message and which error comes first
    graph = Graph(("A", "B", "C", "D"), (("A", "B"), ("C", "B"), ("B", "D")))
    names = st.lists(st.sampled_from(["A", "B", "C", "D", "Q", "R"]), max_size=3)
    args = [
        (data.draw(st.sampled_from(ARGUMENT_KINDS)), data.draw(names))
        for _ in range(data.draw(st.integers(2, 3)))
    ]
    fresh = [[kind(members) for kind, members in args] for _ in range(2)]
    assert outcome(d_separated, graph, *fresh[0]) == outcome(frozenset_route, graph, *fresh[1])


# every check that meets several bad names names the first in sorted order,
# whatever order the hash seed gives the sets
ERRORS = """
from confounders.graph import Dag, Graph, Path, d_separated, is_blocked
g = Graph(("A", "B", "C", "D"), (("A", "B"), ("B", "C"), ("C", "D")))
bad = {"S", "R", "Q", "P", "T"}
for call in (
    lambda: d_separated(g, {"B", "C", "D"}, {"D", "C", "B"}),
    lambda: d_separated(g, {"A"}, bad),
    lambda: is_blocked(g, Path(("A", "B", "C"), ("->", "->")), bad),
    lambda: g.subgraph(bad | {"A"}),
    lambda: Dag(g.nodes, g.edges, "A", "D", bad | {"B"}),
):
    try:
        call()
    except Exception as error:
        print(type(error).__name__, error)
"""


def test_error_text_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(confounders.__file__)))
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", ERRORS], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert outputs == {
        "OverlappingSets node 'B' appears in more than one argument set\n"
        + "UnknownNode unknown node 'P'\n" * 4
    }


def test_dsep_empty_side_is_separated():
    assert d_separated(CHAIN, (), ("C",), ())


def test_dsep_agrees_with_naive_oracle():
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        g, edges = random_graph(rng, rng.randint(2, 8), 0.35)
        names = list(g.nodes)
        rng.shuffle(names)
        ka = rng.randint(1, 2)
        kb = rng.randint(1, min(2, len(names) - ka)) if len(names) > ka else 0
        if kb == 0:
            continue
        set_a, rest = names[:ka], names[ka:]
        set_b, rest = rest[:kb], rest[kb:]
        z = [v for v in rest if rng.random() < 0.4]
        want = naive_d_separated(edges, set_a, set_b, z)
        assert d_separated(g, set_a, set_b, z) == want
        checked += 1


def test_dsep_matches_path_blocking():
    # the reachability answer must equal "every enumerated path is blocked"
    rng = random.Random(31)
    for _ in range(60):
        g, _ = random_graph(rng, rng.randint(3, 7), 0.4)
        a, b = rng.sample(g.nodes, 2)
        z = [v for v in g.nodes if v not in (a, b) and rng.random() < 0.3]
        by_paths = all(is_blocked(g, p, z) for p in enumerate_paths(g, a, b))
        assert d_separated(g, (a,), (b,), z) == by_paths
