"""The sliced pass, checked against the subset scans it replaced.

Every reader of a lane vector must give exactly what one separation query
per subset gives, in the same canonical order: the catalog, minimality of
one set, the D1 verdict and witness, the distinguishing context, the
conditional confounder and the fuzzer's per-subset sufficiency. The scans
live in helpers_oracle and ask the scalar kernel one subset at a time.
"""
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders.adjust as adjust_module
import confounders.graph as graph_module
from confounders.adjust import (
    MAX_POOL,
    _is_minimal,
    _sufficiency_vector,
    is_sufficient,
    minimal_sufficient_sets,
    subsets_canonical,
)
from confounders.classify import (
    _connectable_mask,
    _d1_contexts,
    _d1_holds,
    classify_d1_graphical,
    classify_variable,
    conditional_confounder,
)
from confounders.errors import SizeLimit
from confounders.fuzz import random_dag
from confounders.graph import Dag, _lane_sets, _sliced_dsep, d_separated
from confounders.properties import distinguishing_context
from helpers_oracle import (
    all_subsets,
    scan_conditional,
    scan_d1,
    scan_distinguishing_context,
    scan_is_minimal,
    scan_minimal_sets,
)
from test_path_search import complete_dag


@st.composite
def dags(draw, min_nodes=2, max_nodes=16, min_pool=0, max_pool=12):
    """A random DAG whose covariate pool has min_pool..max_pool members.

    The exposure sits at least min_pool + 1 places into the topological
    order, so at least min_pool nodes precede it; the pool is every
    nondescendant of the exposure when that fits, else a declared
    pre-exposure subset of them."""
    n = draw(st.integers(max(min_nodes, min_pool + 2), max_nodes))
    names = [f"V{i:02d}" for i in range(n)]
    order = draw(st.permutations(names))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    density = draw(st.sampled_from((0.15, 0.3, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [e for e in pairs if rng.random() < density]
    exposure = order[n - 1 - draw(st.integers(0, n - 2 - min_pool if min_pool else n - 1))]
    outcome = draw(st.sampled_from([v for v in names if v != exposure]))
    dag = Dag(names, edges, exposure, outcome)
    eligible = dag.covariate_pool
    if len(eligible) <= max_pool and draw(st.booleans()):
        return dag
    top = min(max_pool, len(eligible))
    size = top - draw(st.integers(0, top - min(min_pool, top)))
    keep = draw(st.permutations(eligible))[:size]
    return Dag(names, edges, exposure, outcome, declared_pre=keep)


def sufficient_scan(dag):
    """The single-set test of the subset scans: the exposure and the
    outcome d-separated in the backdoor graph, not `_sufficient`, which
    asks the Dag's own kernel."""
    back = dag.without_exposure_out_edges()
    return lambda names: d_separated(back, {dag.exposure}, {dag.outcome}, names)


def separated_scan(dag):
    return lambda a, b, given: d_separated(dag, {a}, {b}, given)


def others(dag, variable):
    return [c for c in dag.covariate_pool if c != variable]


def d1_by_passes(dag, variable):
    """C's D1 contexts read off the two sliced passes over every context,
    lane 0 included: the oracle of `classify._d1_contexts`."""
    rest = others(dag, variable)
    c, a, y = (dag._index[name] for name in (variable, dag.exposure, dag.outcome))
    members = [dag._index[name] for name in rest]
    vector = (1 << (1 << len(rest))) - 1
    vector &= ~_sliced_dsep(dag, 1 << c, 1 << a, 0, members)
    vector &= ~_sliced_dsep(dag, 1 << c, 1 << y, 1 << a, members)
    return list(_lane_sets(vector, rest))


def check_d1_against_the_passes(dag):
    """Check each covariate's D1 verdict, witness and contexts against the
    passes, read before and after the Dag keeps a lane vector, and return
    the number of coordinated negatives: covariates with no D1 context
    that the connectability filter leaves open."""
    twin = Dag(dag.nodes, dag.edges, dag.exposure, dag.outcome, dag.declared_pre)
    coordinated = 0
    for variable in dag.covariate_pool:
        want = d1_by_passes(dag, variable)
        assert _d1_holds(dag, variable) == bool(want)
        assert classify_d1_graphical(twin, variable) == (bool(want), want[0] if want else None)
        assert list(_d1_contexts(dag, variable)) == want
        assert list(_d1_contexts(dag, variable)) == want
        coordinated += bool(_connectable_mask(dag) >> dag._index[variable] & 1) and not want
    return coordinated


@settings(max_examples=200, deadline=None)
@given(dag=dags(max_nodes=14))
def test_d1_matches_the_passes(dag):
    check_d1_against_the_passes(dag)


def check_multi_node_source(dag, data):
    """A pass from a source mask of 1-3 nodes, which may be members or in
    `fixed`, against one query per lane: the source nodes outside the
    lane's conditioning set Z, d-separated from the target given Z."""
    nodes = range(len(dag.nodes))
    target = data.draw(st.sampled_from(nodes))
    rest = [i for i in nodes if i != target]
    if not rest:
        return
    source = data.draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))
    members = data.draw(st.lists(st.sampled_from(rest), max_size=6, unique=True))
    free = [i for i in rest if i not in members]
    fixed = data.draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []
    vector = _sliced_dsep(dag, dag._mask(dag.nodes[i] for i in source), 1 << target,
                          dag._mask(dag.nodes[i] for i in fixed), members)
    for lane in range(1 << len(members)):
        given = {dag.nodes[i] for i in fixed}
        given |= {dag.nodes[m] for j, m in enumerate(members) if lane >> j & 1}
        ends = {dag.nodes[i] for i in source} - given
        assert vector >> lane & 1 == d_separated(dag, ends, {dag.nodes[target]}, given)


def check_every_reader(dag, data):
    check_multi_node_source(dag, data)
    pool = dag.covariate_pool
    sufficient = sufficient_scan(dag)
    catalog = minimal_sufficient_sets(dag)
    assert catalog.sets == scan_minimal_sets(pool, sufficient)

    # minimal means sufficient with no sufficient strict subset
    subset = data.draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    for covariates in (tuple(sorted(subset)), catalog.union) + catalog.sets:
        assert is_sufficient(dag, covariates).minimal == (
            sufficient(covariates) and scan_is_minimal(covariates, sufficient)
        )

    if not pool:
        return
    variable = data.draw(st.sampled_from(pool))
    rest = others(dag, variable)
    assert classify_d1_graphical(dag, variable) == scan_d1(
        variable, rest, dag.exposure, dag.outcome, separated_scan(dag)
    )
    assert distinguishing_context(dag, variable) == scan_distinguishing_context(
        variable, rest, sufficient
    )
    conditioning = tuple(sorted(data.draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))))
    free = [c for c in rest if c not in conditioning]
    assert conditional_confounder(dag, variable, conditioning) == scan_conditional(
        variable, free, conditioning, sufficient
    )


@settings(max_examples=150, deadline=None)
@given(dag=dags(), data=st.data())
def test_every_reader_matches_its_scan(dag, data):
    check_every_reader(dag, data)


@settings(max_examples=40, deadline=None)
@given(dag=dags(min_nodes=8, min_pool=9, max_pool=12), data=st.data())
def test_every_reader_matches_its_scan_on_large_pools(dag, data):
    check_every_reader(dag, data)


@settings(max_examples=60, deadline=None)
@given(dag=dags(min_nodes=7, max_nodes=12, min_pool=5, max_pool=8), data=st.data())
def test_readers_match_when_passes_cross_blocks(dag, data):
    # blocks of 2**2 lanes: pools of 5-8 members span 2-64 blocks each
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_LANE_BITS", 2)
        check_every_reader(dag, data)
        assert dag._sufficiency is not None


@settings(max_examples=100, deadline=None)
@given(dag=dags(max_nodes=10, max_pool=8))
def test_fuzz_pool_loop_reads_the_scanned_verdicts(dag):
    pool = dag.covariate_pool
    lanes = _sufficiency_vector(dag)
    lane_of = {c: 1 << i for i, c in enumerate(pool)}
    got = [(s, bool(lanes >> sum(lane_of[c] for c in s) & 1)) for s in subsets_canonical(pool)]
    sufficient = sufficient_scan(dag)
    assert got == [(s, sufficient(s)) for s in all_subsets(pool)]


@pytest.mark.parametrize("pool_size", [0, 1, 12])
def test_empty_and_full_pools(pool_size):
    # a fork per covariate, chained so that conditioning matters
    names = [f"C{i:02d}" for i in range(pool_size)]
    edges = [(c, v) for c in names for v in ("A", "Y")] + [("A", "Y")]
    edges += [(a, b) for a, b in zip(names, names[1:])]
    dag = Dag(names + ["A", "Y"], edges, "A", "Y")
    assert dag.covariate_pool == tuple(names)
    sufficient = sufficient_scan(dag)
    assert minimal_sufficient_sets(dag).sets == scan_minimal_sets(names, sufficient)
    for variable in names:
        rest = others(dag, variable)
        assert classify_d1_graphical(dag, variable) == scan_d1(
            variable, rest, "A", "Y", separated_scan(dag)
        )
        assert distinguishing_context(dag, variable) == scan_distinguishing_context(
            variable, rest, sufficient
        )


def test_fuzz_dags_match_their_scans():
    rng = random.Random(5)
    for _ in range(200):
        dag = random_dag(rng, 9, 0.4)
        sufficient = sufficient_scan(dag)
        assert minimal_sufficient_sets(dag).sets == scan_minimal_sets(dag.covariate_pool, sufficient)
        for variable in dag.covariate_pool:
            rest = others(dag, variable)
            assert classify_d1_graphical(dag, variable) == scan_d1(
                variable, rest, dag.exposure, dag.outcome, separated_scan(dag)
            )
            assert distinguishing_context(dag, variable) == scan_distinguishing_context(
                variable, rest, sufficient
            )


# -- the complete DAG and the widest pool ---------------------------------------


def test_complete_dag_catalog_matches_the_scan():
    dag = complete_dag()
    catalog = minimal_sufficient_sets(dag)
    assert catalog.sets == scan_minimal_sets(dag.covariate_pool, sufficient_scan(dag))
    for variable in dag.covariate_pool:
        report = classify_variable(dag, variable)
        assert report.lattice_ok
        assert report.verdicts["D4"] == any(variable in s for s in catalog.sets)


def forks(size):
    """`size` independent common causes of A and Y: the whole pool is the
    one minimal sufficient set."""
    names = [f"C{i:02d}" for i in range(size)]
    edges = [(c, v) for c in names for v in ("A", "Y")] + [("A", "Y")]
    return Dag(names + ["A", "Y"], edges, "A", "Y"), names


def test_no_pass_holds_a_mask_wider_than_a_block(monkeypatch):
    dag, names = forks(MAX_POOL)
    widths, vectors = [], []
    real_patterns, real_pass = graph_module._lane_patterns, graph_module._sliced_dsep

    def patterns(k):
        widths.append(k)
        return real_patterns(k)

    def sliced(*args):
        vector = real_pass(*args)
        vectors.append(vector)
        return vector

    monkeypatch.setattr(graph_module, "_lane_patterns", patterns)
    monkeypatch.setattr(adjust_module, "_sliced_dsep", sliced)
    assert minimal_sufficient_sets(dag).sets == (tuple(names),)
    # the lane masks of one block span the low _LANE_BITS members only
    assert widths and max(widths) <= graph_module._LANE_BITS
    # one pass, whose vector holds the whole set's lane only
    assert vectors == [1 << ((1 << MAX_POOL) - 1)]


def test_the_sufficiency_vector_is_capped_on_the_pool():
    # 25 forks: the pool minus C fits the cap, the pool does not, and the
    # vector enumerates the pool; the refusal comes before any pass
    dag, names = forks(MAX_POOL + 1)
    start = time.process_time()
    with pytest.raises(SizeLimit, match="sufficiency vector .* 25 covariates"):
        distinguishing_context(dag, names[0])
    assert time.process_time() - start < 0.05
    assert dag._sufficiency is None


def one_confounder(size, confounder):
    """A pool of `size` pre-exposure covariates in which `confounder`
    alone is a common cause of A and Y; the others have no edges."""
    names = [f"C{i:02d}" for i in range(size)]
    edges = [(confounder, "A"), (confounder, "Y"), ("A", "Y")]
    return Dag(names + ["A", "Y"], edges, "A", "Y"), tuple(names)


def test_a_wide_sufficient_set_is_checked_in_bounded_memory():
    # 30 members: a lane vector over the whole set would be 2**30 bits
    dag, names = one_confounder(30, "C00")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = is_sufficient(dag, names)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.sufficient and not verdict.minimal
    assert peak < 16 << 20
    assert elapsed < 5


def test_minimality_is_answered_past_the_pool_cap():
    # one kernel query per member: the widest sets take well under 0.1 s
    def timed(dag, names):
        start = time.process_time()
        verdict = is_sufficient(dag, names)
        assert time.process_time() - start < 0.1
        return verdict

    # 62 forks and A and Y fill the 64-node kernel
    for size in (MAX_POOL + 1, 40, 62):
        verdict = timed(*forks(size))
        assert verdict.sufficient and verdict.minimal
    # {C39} alone is sufficient, so dropping any other member keeps it so
    dag, names = one_confounder(40, "C39")
    verdict = timed(dag, names)
    assert verdict.sufficient and not verdict.minimal
    assert _is_minimal(dag, ("C39",))
