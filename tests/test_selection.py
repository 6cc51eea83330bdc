"""Selection procedures: exact traces on the worked examples, sufficiency
preservation on random DAGs, graphical traces against a replay that asks
`d_separated` once per step, and the unfaithfulness caveat for numeric
oracles."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders.graph as graph_module
import confounders.selection as selection_module
from confounders.adjust import is_sufficient, subsets_canonical
from confounders.errors import (
    InvalidConfig,
    NonCovariateInSet,
    OverlappingSets,
    SizeLimit,
)
from confounders.graph import Dag, d_separated
from confounders.model import Cpt, DiscreteModel
from confounders.fuzz import random_dag
from confounders.registry import get_entry
from confounders.selection import (
    IndependenceOracle,
    SelectionTrace,
    backward_select,
    forward_select,
    robins_reduction,
)
from test_sliced import dags

F = Fraction

TWO_ROUTES = get_entry("Fig3")


def graphical():
    return IndependenceOracle.graphical(TWO_ROUTES.dag)


# -- oracle basics ---------------------------------------------------------------


def test_oracle_kind_validated():
    with pytest.raises(InvalidConfig):
        IndependenceOracle("psychic", TWO_ROUTES.dag)


def test_oracle_dag_property():
    assert graphical().dag is TWO_ROUTES.dag
    numeric = IndependenceOracle.numeric(TWO_ROUTES.model)
    assert numeric.dag is TWO_ROUTES.dag


def test_oracle_empty_side_independent():
    assert graphical().independent((), ("Y",))


def test_oracles_agree_on_faithful_example():
    g, n = graphical(), IndependenceOracle.numeric(TWO_ROUTES.model)
    for a, b, z in [
        (("Y",), ("C2",), ("A", "C1")),
        (("Y",), ("C1",), ("A",)),
        (("A",), ("C1",), ("C2",)),
    ]:
        assert g.independent(a, b, z) == n.independent(a, b, z)


# -- the split reduction ------------------------------------------------------------


def test_robins_reduction_discards_the_mediator():
    assert robins_reduction(graphical(), ("C1",), ("C2",)) == (True, ((), ("C2",)))


def test_robins_reduction_other_direction():
    # {C2} screens A off from C1, so C1 lands in the exposure-ignorable part
    assert robins_reduction(graphical(), ("C2",), ("C1",)) == (True, (("C1",), ()))


def test_robins_reduction_cannot_reach_empty_base():
    assert robins_reduction(graphical(), (), ("C1",)) == (False, None)


def test_robins_reduction_numeric_agrees():
    oracle = IndependenceOracle.numeric(TWO_ROUTES.model)
    assert robins_reduction(oracle, ("C1",), ("C2",)) == (True, ((), ("C2",)))


def test_robins_reduction_overlap_rejected():
    with pytest.raises(OverlappingSets):
        robins_reduction(graphical(), ("C1",), ("C1",))


def test_robins_reduction_non_covariate_rejected():
    with pytest.raises(NonCovariateInSet):
        robins_reduction(graphical(), ("A",), ("C2",))


def test_robins_reduction_size_cap():
    k = 17
    names = tuple(f"C{i:02d}" for i in range(k)) + ("A", "Y")
    edges = tuple((c, "A") for c in names[:k]) + tuple((c, "Y") for c in names[:k]) + (
        ("A", "Y"),
    )
    dag = Dag(names, edges, "A", "Y")
    with pytest.raises(SizeLimit):
        robins_reduction(IndependenceOracle.graphical(dag), (), names[:k])


def test_robins_reduction_soundness_on_random_dags():
    # whenever a split certifies S1, S1 must actually be sufficient
    rng = random.Random(61)
    for _ in range(40):
        dag = random_dag(rng, rng.randint(3, 6), 0.4)
        oracle = IndependenceOracle.graphical(dag)
        pool = dag.covariate_pool
        for s in subsets_canonical(pool):
            if not is_sufficient(dag, s).sufficient:
                continue
            for s1 in subsets_canonical(s):
                s2 = tuple(v for v in s if v not in set(s1))
                found, _split = robins_reduction(oracle, s1, s2)
                if found:
                    assert is_sufficient(dag, s1).sufficient


# -- backward and forward ---------------------------------------------------------------


def test_backward_trace_exact():
    trace = backward_select(graphical(), ("C1", "C2"))
    assert isinstance(trace, SelectionTrace)
    assert trace.initial == ("C1", "C2")
    assert trace.steps == (
        ("C1", "Y _|_ C1 | A, C2", False),
        ("C2", "Y _|_ C2 | A, C1", True),
        ("C1", "Y _|_ C1 | A", False),
    )
    assert trace.final == ("C1",)
    assert trace.caveats == ()


def test_forward_trace_exact():
    trace = forward_select(graphical(), ("C1", "C2"))
    assert trace.steps == (
        ("C1", "Y _|_ C1 | A", False),
        ("C2", "Y _|_ C2 | A, C1", True),
    )
    assert trace.final == ("C1",)


def test_selection_rejects_non_covariates():
    with pytest.raises(NonCovariateInSet):
        backward_select(graphical(), ("Y",))
    with pytest.raises(NonCovariateInSet):
        forward_select(graphical(), ("nope",))


def test_every_covariate_set_check_says_the_same():
    # selection, adjustment and the model share one check and one message
    entry = TWO_ROUTES
    calls = (
        lambda: backward_select(graphical(), ("C1", "Y")),
        lambda: forward_select(graphical(), ("Y",)),
        lambda: robins_reduction(graphical(), ("Y",), ("C2",)),
        lambda: is_sufficient(entry.dag, ("Y", "C1")),
        lambda: entry.model.standardized_rd(("Y",)),
        lambda: entry.model.cf_unconfounded(("Y",)),
    )
    for call in calls:
        with pytest.raises(NonCovariateInSet) as info:
            call()
        assert str(info.value) == "'Y' is not in the covariate pool"


def test_selection_from_empty_set():
    assert backward_select(graphical(), ()).final == ()
    assert forward_select(graphical(), ()).final == ()


def test_selection_preserves_sufficiency_on_random_dags():
    rng = random.Random(67)
    for _ in range(30):
        dag = random_dag(rng, rng.randint(3, 6), 0.4)
        oracle = IndependenceOracle.graphical(dag)
        for s in subsets_canonical(dag.covariate_pool):
            if not is_sufficient(dag, s).sufficient:
                continue
            assert is_sufficient(dag, backward_select(oracle, s).final).sufficient
            assert is_sufficient(dag, forward_select(oracle, s).final).sufficient


# -- graphical scans against a replay, one d_separated query per step -------------------


def query_text(y, variable, given):
    return f"{y} _|_ {variable} | {', '.join(given)}"


def replay_backward(dag, start):
    """(steps, final) of backward selection from `start`, asking
    `d_separated` for each step."""
    a, y = dag.exposure, dag.outcome
    current, steps = sorted(start), []
    changed = True
    while changed:
        changed = False
        for variable in list(current):
            given = [a] + [v for v in current if v != variable]
            verdict = d_separated(dag, {y}, {variable}, set(given))
            steps.append((variable, query_text(y, variable, given), verdict))
            if verdict:
                current.remove(variable)
                changed = True
                break
    return tuple(steps), tuple(current)


def replay_forward(dag, candidates):
    """(steps, final) of forward selection over `candidates`, asking
    `d_separated` for each step."""
    a, y = dag.exposure, dag.outcome
    current, steps = [], []
    changed = True
    while changed:
        changed = False
        for variable in sorted(candidates):
            if variable in current:
                continue
            given = [a] + current
            verdict = d_separated(dag, {y}, {variable}, set(given))
            steps.append((variable, query_text(y, variable, given), verdict))
            if not verdict:
                current = sorted(current + [variable])
                changed = True
                break
    return tuple(steps), tuple(current)


def check_against_replay(dag, start):
    """The number of steps of the backward and the forward trace from
    `start`; each must equal its replay."""
    oracle = IndependenceOracle.graphical(dag)
    steps = 0
    for select, replay in ((backward_select, replay_backward), (forward_select, replay_forward)):
        trace = select(oracle, start)
        assert (trace.steps, trace.final) == replay(dag, start)
        assert trace.initial == tuple(sorted(start)) and trace.caveats == ()
        steps += len(trace.steps)
    return steps


@settings(max_examples=200, deadline=None)
@given(dag=dags(max_nodes=20, max_pool=18), data=st.data())
def test_graphical_traces_match_a_replay_of_d_separated(dag, data):
    # declared pools half the time; any subset of the pool as the start set
    pool = dag.covariate_pool
    keep = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    check_against_replay(dag, [v for v, k in zip(pool, keep) if k])


def counted_queries(monkeypatch):
    """The name of every query asked of the kernel of a graph built from
    here on."""
    calls = []
    base = graph_module.BitDag

    class Counting(base):
        pass

    for name in ("closure_up", "closure_down", "reachable", "landing", "dsep"):
        def query(self, *args, _name=name):
            calls.append(_name)
            return getattr(base, _name)(self, *args)

        setattr(Counting, name, query)
    monkeypatch.setattr(graph_module, "BitDag", Counting)
    return calls


def forward_scans(trace):
    """The number of scans of a forward trace that read a verdict: each but
    the last ends at the candidate it adds, and the last reads one unless
    the scan before it added the last candidate."""
    verdicts = [verdict for _, _, verdict in trace.steps]
    return verdicts.count(False) + (bool(verdicts) and verdicts[-1])


def test_a_graphical_backward_run_is_one_ball(monkeypatch):
    # one landing ball for a whole backward run, one reachable ball per
    # forward scan, and no d_separated call
    calls = counted_queries(monkeypatch)

    def no_d_separated(*args):
        raise AssertionError("a graphical scan asked d_separated")

    monkeypatch.setattr(selection_module, "d_separated", no_d_separated)
    monkeypatch.setattr(graph_module, "d_separated", no_d_separated)
    example = Dag(TWO_ROUTES.dag.nodes, TWO_ROUTES.dag.edges, "A", "Y")
    example.covariate_pool
    del calls[:]
    assert len(backward_select(IndependenceOracle.graphical(example), ("C1", "C2")).steps) == 3
    assert calls == ["landing"]
    rng = random.Random(71)
    for _ in range(40):
        dag = random_dag(rng, rng.randint(4, 12), 0.35)
        oracle = IndependenceOracle.graphical(dag)
        pool = dag.covariate_pool
        del calls[:]
        backward_select(oracle, pool)
        assert calls == ["landing"] * bool(pool)
        del calls[:]
        trace = forward_select(oracle, pool)
        assert calls == ["reachable"] * forward_scans(trace)


def test_a_reused_ball_gives_the_verdicts_of_a_fresh_one(monkeypatch):
    # one oracle asked backward scans whose conditioning sets shrink, by
    # members the last ball did or did not land on, or change at random:
    # every verdict is d_separated's, and the unlanded drops reuse the ball
    calls = counted_queries(monkeypatch)
    rng = random.Random(73)
    scanned = 0
    for _ in range(200):
        dag = random_dag(rng, rng.randint(3, 10), rng.choice((0.2, 0.4, 0.6)))
        target = rng.choice(dag.nodes)
        names = [v for v in dag.nodes if v != target]
        oracle = IndependenceOracle.graphical(dag)
        given = [v for v in names if rng.random() < 0.6]
        for _ in range(6):
            if rng.random() < 0.2:
                given = [v for v in names if rng.random() < 0.6]
            if not given:
                break
            verdicts = list(oracle._scan(target, tuple(given), given))
            assert verdicts == [d_separated(dag, {target}, {v}, set(given) - {v}) for v in given]
            scanned += 1
            unlanded = [v for v, free in zip(given, verdicts) if free]
            drop = set(rng.sample(unlanded, min(len(unlanded), rng.randint(0, 2))))
            if rng.random() < 0.3:
                drop.add(rng.choice(given))  # may be landed: a new ball
            given = [v for v in given if v not in drop]
    assert scanned > 500 and calls.count("landing") < 0.8 * scanned


# -- unfaithful models -------------------------------------------------------------------


def unfaithful_model():
    # Y's rows ignore C, so Y _|_ C | A exactly though C -> Y is an edge
    dag = Dag(("C", "A", "Y"), (("C", "A"), ("C", "Y"), ("A", "Y")), "A", "Y")
    spaces = {n: (0, 1) for n in dag.nodes}
    rows = {
        (0, 0): (F(3, 4), F(1, 4)),
        (0, 1): (F(1, 2), F(1, 2)),
        (1, 0): (F(3, 4), F(1, 4)),
        (1, 1): (F(1, 2), F(1, 2)),
    }
    cpts = {
        "C": Cpt("C", (), {(): (F(1, 2), F(1, 2))}),
        "A": Cpt("A", ("C",), {(0,): (F(2, 3), F(1, 3)), (1,): (F(1, 3), F(2, 3))}),
        "Y": Cpt("Y", ("A", "C"), {(a, c): rows[(c, a)] for a in (0, 1) for c in (0, 1)}),
    }
    return DiscreteModel(dag, spaces, cpts)


def test_backward_numeric_caveat_on_unfaithful_model():
    model = unfaithful_model()
    trace = backward_select(IndependenceOracle.numeric(model), ("C",))
    assert trace.final == ()
    assert len(trace.caveats) == 1
    assert "d-connected" in trace.caveats[0]
    # the graphical oracle keeps C
    assert backward_select(IndependenceOracle.graphical(model.dag), ("C",)).final == ("C",)


def test_forward_numeric_caveat_on_unfaithful_model():
    trace = forward_select(IndependenceOracle.numeric(unfaithful_model()), ("C",))
    assert trace.final == ()
    assert len(trace.caveats) == 1
    assert "Y _|_ C | A" in trace.caveats[0]
