"""Exact discrete inference: every probability is a Fraction, and every
estimand is cross-checked against an independent flat-joint evaluator."""
import random
from collections import Counter
from fractions import Fraction
from importlib.resources import files
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confounders.errors import (
    BadProbability,
    ConfounderError,
    IncompleteAssignment,
    ModelError,
    NonBinaryExposure,
    NonCovariateInSet,
    OverlappingSets,
    PositivityViolation,
    SizeLimit,
    UnknownNode,
    UnknownState,
    ZeroProbabilityCondition,
)
from confounders.classify import (
    _d1_contexts,
    classify_d1_graphical,
    classify_d1_numeric,
    classify_d5,
    classify_d6,
    classify_variable,
)
from confounders.formats import parse_graph, parse_model
from confounders.graph import Dag, Graph
from confounders.model import MAX_JOINT, Cpt, DiscreteModel, as_fraction
from confounders.registry import get_entry
from confounders.fuzz import FuzzConfig, _run_trial, fuzz, random_dag, random_model
from helpers_oracle import (
    NaiveModel,
    _marginal,
    all_subsets,
    naive_cf_independent,
    naive_cf_joint,
    naive_descendants,
    naive_forced_mean,
    naive_independent,
    naive_joint,
    naive_standardized_rd,
)

F = Fraction

FORK = Dag(("C", "A", "Y"), (("C", "A"), ("C", "Y"), ("A", "Y")), "A", "Y")


def binary_model(dag, p_one):
    """p_one: node -> {sorted-parent-states tuple: P(node=1)}."""
    spaces = {n: (0, 1) for n in dag.nodes}
    cpts = {}
    for node in dag.nodes:
        parents = tuple(sorted(dag.parents(node)))
        table = {
            key: (1 - F(p), F(p)) for key, p in p_one[node].items()
        }
        cpts[node] = Cpt(node, parents, table)
    return DiscreteModel(dag, spaces, cpts)


# the running example: one common cause, zero crude bias by construction
CANCEL = binary_model(
    FORK,
    {
        "C": {(): F(1, 2)},
        "A": {(0,): F(1, 4), (1,): F(3, 4)},
        "Y": {(0, 0): F(2, 5), (0, 1): F(0), (1, 0): F(1, 10), (1, 1): F(1, 2)},
    },
)


def to_naive(model):
    return NaiveModel(
        model.dag.nodes,
        {
            n: (c.parent_order, {k: v[1] for k, v in c.table.items()})
            for n, c in model.cpts.items()
        },
    )


# -- as_fraction ----------------------------------------------------------------


def test_as_fraction_accepts_rationals():
    assert as_fraction("1/2") == F(1, 2)
    assert as_fraction("0.25") == F(1, 4)
    assert as_fraction(1) == F(1)
    assert as_fraction(F(3, 7)) == F(3, 7)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(BadProbability):
        as_fraction(0.5)
    with pytest.raises(BadProbability):
        as_fraction(True)


def test_as_fraction_rejects_garbage():
    with pytest.raises(BadProbability):
        as_fraction("pear")
    with pytest.raises(BadProbability):
        as_fraction("1/0")
    with pytest.raises(BadProbability):
        as_fraction([1, 2])


def test_cpt_entry_out_of_range_rejected():
    # range checks live in row validation, not in the coercion itself
    with pytest.raises(BadProbability, match="out of"):
        binary_model(
            Dag(("A", "Y"), (("A", "Y"),), "A", "Y"),
            {"A": {(): F(1, 2)}, "Y": {(0,): F(-1, 2), (1,): F(3, 2)}},
        )


# -- construction guards ----------------------------------------------------------


def test_cpt_parents_must_match_graph():
    with pytest.raises(ModelError):
        DiscreteModel(
            FORK,
            {n: (0, 1) for n in FORK.nodes},
            {
                "C": Cpt("C", (), {(): (F(1, 2), F(1, 2))}),
                "A": Cpt("A", (), {(): (F(1, 2), F(1, 2))}),
                "Y": Cpt("Y", ("A", "C"), {k: (F(1, 2), F(1, 2)) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]}),
            },
        )


def test_row_must_sum_to_one():
    with pytest.raises(BadProbability):
        binary_model(
            Dag(("A", "Y"), (("A", "Y"),), "A", "Y"),
            {"A": {(): F(1, 2)}, "Y": {(0,): F(3, 2), (1,): F(1, 2)}},
        )


def test_missing_parent_row_rejected():
    with pytest.raises(ModelError, match="missing parent combination"):
        binary_model(
            FORK,
            {
                "C": {(): F(1, 2)},
                "A": {(0,): F(1, 4)},
                "Y": {k: F(1, 2) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]},
            },
        )


def test_unexpected_row_rejected():
    with pytest.raises(ModelError, match="unexpected parent combination"):
        binary_model(
            Dag(("A", "Y"), (("A", "Y"),), "A", "Y"),
            {"A": {(): F(1, 2)}, "Y": {(0,): F(1, 2), (1,): F(1, 2), (2,): F(1, 2)}},
        )


def test_state_spaces_must_cover_all_nodes():
    with pytest.raises(ModelError, match="no state space"):
        DiscreteModel(FORK, {"C": (0, 1)}, {})
    with pytest.raises(UnknownNode):
        DiscreteModel(FORK, {**{n: (0, 1) for n in FORK.nodes}, "Q": (0, 1)}, {})


def test_missing_cpt_rejected():
    with pytest.raises(ModelError, match="no cpt"):
        DiscreteModel(FORK, {n: (0, 1) for n in FORK.nodes}, {})


# -- probabilities -----------------------------------------------------------------


def test_joint_probability_exact():
    assert CANCEL.joint_probability({"C": 1, "A": 1, "Y": 1}) == F(3, 16)


def test_joint_probability_requires_full_assignment():
    with pytest.raises(IncompleteAssignment):
        CANCEL.joint_probability({"C": 1, "A": 1})


def test_unknown_state_rejected():
    with pytest.raises(UnknownState):
        CANCEL.probability({"C": 7})
    with pytest.raises(UnknownState):
        CANCEL.intervene("A", 7)


def test_marginals():
    assert CANCEL.probability({"Y": 1}) == F(7, 20)
    assert CANCEL.probability({"A": 1}) == F(1, 2)
    assert CANCEL.probability({}) == F(1)


def test_cond_expectation():
    assert CANCEL.cond_expectation("Y", {"A": 1}) == F(2, 5)
    assert CANCEL.cond_expectation("Y", {"A": 0}) == F(3, 10)
    assert CANCEL.cond_expectation("Y") == F(7, 20)
    # target fixed by the conditioning event
    assert CANCEL.cond_expectation("Y", {"Y": 1}) == F(1)


def test_cond_expectation_zero_condition():
    zero_c = binary_model(
        FORK,
        {
            "C": {(): F(0)},
            "A": {(0,): F(1, 2), (1,): F(1, 2)},
            "Y": {k: F(1, 2) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]},
        },
    )
    with pytest.raises(ZeroProbabilityCondition):
        zero_c.cond_expectation("Y", {"C": 1})


def test_cond_probability():
    assert CANCEL.cond_probability({"Y": 1}, {"A": 1}) == F(2, 5)
    assert CANCEL.cond_probability({"A": 1}, {"A": 0}) == F(0)


def test_cond_probability_checks_the_event_before_answering():
    # 7 is not a state of A, so no answer, not even 0 for the clash with A=1
    model = get_entry("Prop5").model
    with pytest.raises(UnknownState, match="7 is not a state of 'A'"):
        model.cond_probability({"A": 7}, {"A": 1})


# -- independence -------------------------------------------------------------------


def test_ci_test_matches_graph_structure():
    chain = Dag(("A", "M", "Y"), (("A", "M"), ("M", "Y")), "A", "Y")
    m = binary_model(
        chain,
        {
            "A": {(): F(1, 3)},
            "M": {(0,): F(1, 4), (1,): F(3, 4)},
            "Y": {(0,): F(1, 5), (1,): F(4, 5)},
        },
    )
    assert m.ci_test(("A",), ("Y",), ("M",))
    assert not m.ci_test(("A",), ("Y",))


def test_ci_test_rejects_overlap():
    with pytest.raises(OverlappingSets):
        CANCEL.ci_test(("A",), ("A",))


def test_ci_test_empty_side_true():
    assert CANCEL.ci_test((), ("Y",))


# -- interventions and estimands ------------------------------------------------------


def test_intervene_point_mass():
    forced = CANCEL.intervene("A", 1)
    assert forced.probability({"A": 1}) == F(1)
    assert forced.probability({"C": 1}) == F(1, 2)
    assert forced.cond_expectation("Y") == F(3, 10)
    assert CANCEL.intervene("A", 0).cond_expectation("Y") == F(1, 5)


def test_ace_exact():
    assert CANCEL.ace() == F(1, 10)


def test_ace_requires_binary_exposure():
    # the exposure is checked before the outcome's states
    dag = Dag(("A", "Y"), (("A", "Y"),), "A", "Y")
    for y_states in ((0, 1), ("no", "yes")):
        m = DiscreteModel(
            dag,
            {"A": (0, 1, 2), "Y": y_states},
            {
                "A": Cpt("A", (), {(): (F(1, 3), F(1, 3), F(1, 3))}),
                "Y": Cpt("Y", ("A",), {(s,): (F(1, 2), F(1, 2)) for s in (0, 1, 2)}),
            },
        )
        with pytest.raises(NonBinaryExposure):
            m.ace()


def test_standardized_rd():
    assert CANCEL.standardized_rd() == F(1, 10)
    assert CANCEL.standardized_rd(("C",)) == F(1, 10)
    assert CANCEL.bias() == F(0)
    assert CANCEL.bias(("C",)) == F(0)


def test_standardized_rd_rejects_non_covariate():
    with pytest.raises(NonCovariateInSet):
        CANCEL.standardized_rd(("Y",))


def test_positivity_violation():
    m = binary_model(
        FORK,
        {
            "C": {(): F(1, 2)},
            "A": {(0,): F(1, 4), (1,): F(1)},  # no untreated subjects at C=1
            "Y": {k: F(1, 2) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]},
        },
    )
    with pytest.raises(PositivityViolation):
        m.standardized_rd(("C",))


# -- counterfactual joint ---------------------------------------------------------------


def test_cf_joint_totals_and_means():
    for arm, want in ((1, F(3, 10)), (0, F(1, 5))):
        joint = CANCEL.cf_joint(arm)
        assert joint.total() == F(1)
        assert joint.mean_y() == want
        assert sum(joint.marginal_y().values(), F(0)) == F(1)


def test_cf_joint_views_are_keyed_by_states():
    # "mid" and "hi" are state indices 1 and 2, and A=1 is not code 1:
    # a packed key leaking into a view would not compare equal
    m = DiscreteModel(
        Dag(("C", "A", "Y"), (("C", "A"), ("C", "Y"), ("A", "Y")), "A", "Y"),
        {"C": ("lo", "mid", "hi"), "A": (0, 1), "Y": ("no", "yes")},
        {
            "C": Cpt("C", (), {(): (F(1, 3), F(1, 3), F(1, 3))}),
            "A": Cpt("A", ("C",), {("lo",): (F(1, 2), F(1, 2)), ("mid",): (F(1), F(0)),
                                   ("hi",): (F(1, 4), F(3, 4))}),
            "Y": Cpt("Y", ("A", "C"), {
                (0, "lo"): (F(1, 2), F(1, 2)), (1, "lo"): (F(2, 3), F(1, 3)),
                (0, "mid"): (F(4, 5), F(1, 5)), (1, "mid"): (F(0), F(1)),
                (0, "hi"): (F(1), F(0)), (1, "hi"): (F(1, 2), F(1, 2)),
            }),
        },
    )
    joint = m.cf_joint(1)
    assert joint.w_nodes == ("C",)
    assert joint.table == {
        ("no", 0, ("lo",)): F(1, 9), ("no", 1, ("lo",)): F(1, 9),
        ("yes", 0, ("lo",)): F(1, 18), ("yes", 1, ("lo",)): F(1, 18),
        ("yes", 0, ("mid",)): F(1, 3),
        ("no", 0, ("hi",)): F(1, 24), ("yes", 0, ("hi",)): F(1, 24),
        ("no", 1, ("hi",)): F(1, 8), ("yes", 1, ("hi",)): F(1, 8),
    }
    assert joint.marginal_y() == {"no": F(7, 18), "yes": F(11, 18)}


def test_cf_unconfounded():
    assert not CANCEL.cf_unconfounded(())
    assert CANCEL.cf_unconfounded(("C",))


def test_cf_unconfounded_rejects_non_covariate():
    with pytest.raises(NonCovariateInSet):
        CANCEL.cf_unconfounded(("Y",))


def test_cf_joint_rejects_unknown_arm():
    with pytest.raises(UnknownState):
        CANCEL.cf_joint(2)


def test_cf_independence_given_unknown_covariate():
    with pytest.raises(UnknownNode):
        CANCEL.cf_joint(1).independent_given(("Q",))


@pytest.mark.parametrize("y_states", [("no", "yes"), ("0", "1")])
def test_counterfactual_mean_needs_numeric_outcome_states(y_states):
    # strings that look like numbers are no more numeric than words
    m = DiscreteModel(
        Dag(("A", "Y"), (("A", "Y"),), "A", "Y"),
        {"A": (0, 1), "Y": y_states},
        {
            "A": Cpt("A", (), {(): (F(1, 2), F(1, 2))}),
            "Y": Cpt("Y", ("A",), {(0,): (F(3, 4), F(1, 4)), (1,): (F(1, 4), F(3, 4))}),
        },
    )
    for call in (m.cf_joint(1).mean_y, m.ace, lambda: m.cond_expectation("Y")):
        with pytest.raises(ModelError, match="non-numeric state") as info:
            call()
        assert type(info.value) is ModelError
    assert m.cf_unconfounded(())  # the joint itself needs no numbers


def test_ace_rejects_a_non_numeric_outcome_state_of_probability_zero():
    dag = Dag(("A", "Y"), (("A", "Y"),), "A", "Y")
    m = DiscreteModel(
        dag,
        {"A": (0, 1), "Y": (0, 1, "x")},
        {
            "A": Cpt("A", (), {(): (F(1, 2), F(1, 2))}),
            "Y": Cpt("Y", ("A",), {(0,): (F(1, 2), F(1, 2), F(0)), (1,): (F(1, 4), F(3, 4), F(0))}),
        },
    )
    for call in (m.ace, lambda: m.cond_expectation("Y"), m.cf_joint(1).mean_y):
        with pytest.raises(ModelError, match="non-numeric state 'x'"):
            call()


def test_single_world_joints_are_capped_by_the_full_state_space():
    # A -> Y plus 19 three-state children of A: the single-world graph
    # keeps only A and Y, but the cap counts every node's states
    children = [f"C{i}" for i in range(19)]
    dag = Dag(("A", "Y", *children), (("A", "Y"), *(("A", c) for c in children)), "A", "Y")
    half, third = (F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))
    m = DiscreteModel(
        dag,
        {"A": (0, 1), "Y": (0, 1), **{c: (0, 1, 2) for c in children}},
        {
            "A": Cpt("A", (), {(): half}),
            "Y": Cpt("Y", ("A",), {(0,): half, (1,): half}),
            **{c: Cpt(c, ("A",), {(0,): third, (1,): third}) for c in children},
        },
    )
    total = 2 * 2 * 3**19
    assert total > MAX_JOINT
    message = f"joint state space has {total} assignments, over the cap of {MAX_JOINT}"
    for call in (m.ace, lambda: m.cf_joint(1), lambda: m.cf_unconfounded(()), lambda: m.probability({})):
        with pytest.raises(SizeLimit) as info:
            call()
        assert str(info.value) == message


# -- random cross-checks against the flat evaluator ----------------------------------------


def test_estimands_match_naive_evaluator():
    rng = random.Random(41)
    for _ in range(30):
        dag = random_dag(rng, rng.randint(3, 5), 0.5)
        model = random_model(rng, dag)
        naive = to_naive(model)
        assert model.ace() == naive.ace(dag.exposure, dag.outcome)
        pool = dag.covariate_pool
        subset = tuple(v for v in pool if rng.random() < 0.5)
        try:
            got_rd = model.standardized_rd(subset)
        except PositivityViolation:
            continue
        assert got_rd == naive.standardized_rd(dag.exposure, dag.outcome, subset)
        assert model.bias(subset) == naive.bias(dag.exposure, dag.outcome, subset)


def test_probabilities_match_naive_evaluator():
    rng = random.Random(43)
    for _ in range(20):
        dag = random_dag(rng, rng.randint(3, 5), 0.5)
        model = random_model(rng, dag)
        naive = to_naive(model)
        picks = rng.sample(dag.nodes, rng.randint(1, len(dag.nodes)))
        partial = {n: rng.randint(0, 1) for n in picks}
        assert model.probability(partial) == naive.prob(partial)


def test_ci_test_matches_naive_evaluator():
    rng = random.Random(47)
    for _ in range(25):
        dag = random_dag(rng, rng.randint(3, 5), 0.5)
        model = random_model(rng, dag)
        naive = to_naive(model)
        names = list(dag.nodes)
        rng.shuffle(names)
        a, b = names[0], names[1]
        z = [v for v in names[2:] if rng.random() < 0.5]
        assert model.ci_test((a,), (b,), z) == naive.independent((a,), (b,), z)


def test_cf_mean_matches_forced_model():
    rng = random.Random(53)
    for _ in range(20):
        dag = random_dag(rng, rng.randint(3, 5), 0.5)
        model = random_model(rng, dag)
        for arm in (0, 1):
            want = model.intervene(dag.exposure, arm).cond_expectation(dag.outcome)
            assert model.cf_joint(arm).mean_y() == want


def small_row(rng, size):
    """A CPT row of small integer weights over their sum, zeros allowed."""
    weights = [rng.choice((0, 1, 2, 3)) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    return tuple(F(w, sum(weights)) for w in weights)


# rows over these denominators are pairwise co-prime, so a node's scale is
# the product of its rows' denominators
PRIMES = (2, 3, 5, 7, 11, 13, 101, 499, 983, 991, 997)


def prime_row(rng, size):
    """A CPT row over one prime denominator of up to 997, zeros allowed."""
    den = rng.choice(PRIMES)
    cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
    return tuple(F(hi - lo, den) for lo, hi in zip([0, *cuts], [*cuts, den]))


def raw_model(rng, n_nodes, row=small_row, outcome_states=None):
    """Random DAG and CPTs as raw data: any exposure/outcome pair, states
    (0, 1) or (0, 1, 2) off the exposure, rows drawn by `row`. The
    outcome's states are drawn from `outcome_states` when given."""
    names = [f"V{i}" for i in range(n_nodes)]
    order = rng.sample(names, n_nodes)
    edges = [
        (order[i], order[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < 0.45
    ]
    exposure, outcome = rng.sample(names, 2)
    spaces = {v: (0, 1) if v == exposure else rng.choice(((0, 1), (0, 1, 2))) for v in names}
    if outcome_states is not None:
        spaces[outcome] = rng.choice(outcome_states)
    cpts = {}
    for v in names:
        parents = tuple(sorted(u for u, w in edges if w == v))
        table = {key: row(rng, len(spaces[v])) for key in product(*(spaces[q] for q in parents))}
        cpts[v] = (parents, table)
    return names, edges, exposure, outcome, spaces, cpts


def test_cf_joint_matches_naive_identification():
    rng = random.Random(59)
    seen = {"outcome_not_downstream": 0, "zero_entry": 0, "three_states": 0}
    for _ in range(150):
        names, edges, exposure, outcome, spaces, cpts = raw_model(rng, rng.randint(2, 5))
        dag = Dag(names, edges, exposure, outcome)
        model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
        seen["outcome_not_downstream"] += outcome not in naive_descendants(edges, exposure)
        seen["zero_entry"] += any(0 in row for _, t in cpts.values() for row in t.values())
        seen["three_states"] += any(len(s) == 3 for s in spaces.values())
        tables = {}
        for arm in (0, 1):
            w_nodes, table = naive_cf_joint(names, edges, spaces, cpts, exposure, outcome, arm)
            joint = model.cf_joint(arm)
            assert joint.w_nodes == w_nodes
            assert joint.table == table
            tables[arm] = table
        for subset in all_subsets(dag.covariate_pool):
            want = all(naive_cf_independent(w_nodes, tables[arm], subset) for arm in (0, 1))
            assert model.cf_unconfounded(subset) == want
        want_ace = naive_forced_mean(names, spaces, cpts, outcome, (exposure, 1)) - naive_forced_mean(
            names, spaces, cpts, outcome, (exposure, 0)
        )
        assert model.ace() == want_ace
    assert min(seen.values()) >= 20, seen


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_exact_queries_match_the_flat_joint(seed, n_nodes):
    # zero CPT entries make empty strata and empty arms; three-state nodes
    # make strata and sets that binary models never have
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = raw_model(rng, n_nodes)
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)

    picks = tuple(rng.sample(names, rng.randint(0, n_nodes)))
    partial = {v: rng.choice(spaces[v]) for v in picks}
    want = _marginal(names, joint, picks).get(tuple(partial[v] for v in picks), 0)
    assert model.probability(partial) == want

    shuffled = rng.sample(names, n_nodes)
    cut_a = rng.randint(1, n_nodes - 1)
    cut_b = rng.randint(cut_a + 1, n_nodes)
    set_a, set_b = shuffled[:cut_a], shuffled[cut_a:cut_b]
    z = [v for v in shuffled[cut_b:] if rng.random() < 0.7]
    want = naive_independent(names, spaces, joint, set_a, set_b, z)
    assert model.ci_test(set_a, set_b, z) == want

    subset = tuple(v for v in dag.covariate_pool if rng.random() < 0.6)
    want = naive_standardized_rd(names, spaces, joint, exposure, outcome, subset)
    if want is None:
        with pytest.raises(PositivityViolation):
            model.standardized_rd(subset)
    else:
        assert model.standardized_rd(subset) == want

    want = all(
        naive_cf_independent(*naive_cf_joint(names, edges, spaces, cpts, exposure, outcome, a), subset)
        for a in (0, 1)
    )
    assert model.cf_unconfounded(subset) == want


# outcome states that are numbers but not 0/1: Fractions, negatives
NUMERIC_OUTCOMES = ((0, 1), (0, 1, 2), (-2, F(1, 3)), (F(-5, 2), 0, 7), (-1, F(3, 4), F(-7, 5)))


def naive_mean(names, joint, target, given):
    """E[target | given] in a flat joint, or None when P(given) = 0."""
    picks = tuple(given)
    key = tuple(given[v] for v in picks)
    den = _marginal(names, joint, picks).get(key, 0)
    if den == 0:
        return None
    cells = _marginal(names, joint, picks + (target,))
    return sum((y * p for (*k, y), p in cells.items() if tuple(k) == key), F(0)) / den


def outcome_of(call):
    """(value, None) or (None, (exception class, message)) of one call."""
    try:
        return call(), None
    except ConfounderError as exc:
        return None, (type(exc), str(exc))


def rd_outcome(model, subset):
    return outcome_of(lambda: model.standardized_rd(subset))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_integer_weights_match_the_flat_joint(seed, n_nodes):
    # co-prime row denominators up to 997 make each node's scale a product
    # of several primes; zero entries and three-state nodes as above;
    # numeric outcome states off 0/1
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = raw_model(
        rng, n_nodes, row=prime_row, outcome_states=NUMERIC_OUTCOMES
    )
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)

    full = tuple(rng.choice(spaces[v]) for v in names)
    assert model.joint_probability(dict(zip(names, full))) == joint.get(full, 0)
    picks = tuple(rng.sample(names, rng.randint(0, n_nodes)))
    partial = {v: rng.choice(spaces[v]) for v in picks}
    assert model.probability(partial) == _marginal(names, joint, picks).get(tuple(partial.values()), 0)
    given_ = {v: x for v, x in partial.items() if v != outcome}
    want = naive_mean(names, joint, outcome, given_)
    if want is None:
        with pytest.raises(ZeroProbabilityCondition):
            model.cond_expectation(outcome, given_)
    else:
        assert model.cond_expectation(outcome, given_) == want

    shuffled = rng.sample(names, n_nodes)
    cut = rng.randint(1, n_nodes - 1)
    set_a, set_b, z = shuffled[:cut], shuffled[cut:cut + 1], shuffled[cut + 1:]
    assert model.ci_test(set_a, set_b, z) == naive_independent(names, spaces, joint, set_a, set_b, z)

    ace = naive_forced_mean(names, spaces, cpts, outcome, (exposure, 1)) - naive_forced_mean(
        names, spaces, cpts, outcome, (exposure, 0)
    )
    assert model.ace() == ace
    for subset in all_subsets(dag.covariate_pool):
        want = naive_standardized_rd(names, spaces, joint, exposure, outcome, subset)
        first = rd_outcome(model, subset)
        if want is None:
            assert first[1][0] is PositivityViolation
        else:
            assert first == (want, None)
            assert model.bias(subset) == want - ace
        # the second call answers from the cache, a violation included
        assert rd_outcome(model, subset) == first

    arm = rng.choice((0, 1))
    forced = model.intervene(exposure, arm)
    forced_joint = naive_joint(names, spaces, cpts, (exposure, arm))
    assert forced.probability(partial) == _marginal(names, forced_joint, picks).get(
        tuple(partial.values()), 0
    )
    assert forced.cond_expectation(outcome) == naive_mean(names, forced_joint, outcome, {})
    want = naive_mean(names, forced_joint, outcome, given_)
    if want is None:
        with pytest.raises(ZeroProbabilityCondition):
            forced.cond_expectation(outcome, given_)
    else:
        assert forced.cond_expectation(outcome, given_) == want
    # intervening on the exposure again replaces the point mass: same ace
    assert forced.ace() == ace


def naive_first_stratum_positive(names, spaces, joint, exposure, subset):
    """Whether the first stratum of positive probability, in the order of
    the covariates' state spaces, has both exposure arms."""
    p_xa = _marginal(names, joint, tuple(subset) + (exposure,))
    for x in product(*(spaces[v] for v in subset)):
        arms = [p_xa.get(x + (arm,), 0) for arm in (0, 1)]
        if any(arms):
            return all(arms)
    raise AssertionError("no stratum of positive probability")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_non_numeric_outcome_raises_past_positivity(seed, n_nodes):
    # positivity is checked first, stratum by stratum; the outcome's states
    # are read as numbers at the first stratum that has both arms
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = raw_model(
        rng, n_nodes, outcome_states=((0, "x"), ("no", "yes"), (F(1, 2), "1", 2))
    )
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)
    bad = next(y for y in spaces[outcome] if isinstance(y, str))
    for subset in all_subsets(dag.covariate_pool):
        first = rd_outcome(model, subset)
        if naive_first_stratum_positive(names, spaces, joint, exposure, subset):
            assert first == (None, (ModelError, f"node {outcome!r} has non-numeric state {bad!r}"))
        else:
            assert first[1][0] is PositivityViolation
        assert rd_outcome(model, subset) == first


# one-state nodes have empty fields, 3 to 5 states leave codes unused,
# and states need not be ints
LAYOUT_STATES = (
    ("only",), ("no", "yes"), (F(1, 2), F(1, 3), F(1, 4)), ("a", "b", "c", "d"), (0, 1, 2, 3, 4)
)
LAYOUT_OUTCOMES = ((F(5, 2),), (0, 1), (F(-1, 2), 0, 3, F(7, 3)), (0, 1, 2, 3, 4))


def layout_model(rng, n_nodes, row=small_row):
    """A raw_model DAG with the exposure's states in either order and
    every other node's states drawn from LAYOUT_STATES (the outcome's
    from LAYOUT_OUTCOMES), CPT rows drawn by `row`."""
    names, edges, exposure, outcome, _, _ = raw_model(rng, n_nodes)
    spaces = {v: rng.choice(LAYOUT_STATES) for v in names}
    spaces[exposure] = rng.choice(((0, 1), (1, 0)))
    spaces[outcome] = rng.choice(LAYOUT_OUTCOMES)
    cpts = {}
    for v in names:
        parents = tuple(sorted(u for u, w in edges if w == v))
        keys = product(*(spaces[q] for q in parents))
        cpts[v] = (parents, {key: row(rng, len(spaces[v])) for key in keys})
    return names, edges, exposure, outcome, spaces, cpts


def positive_row(rng, size):
    """A small_row with no zero entry."""
    weights = [rng.choice((1, 2, 3)) for _ in range(size)]
    return tuple(F(w, sum(weights)) for w in weights)


def unfaithful_model(rng, n_nodes, row=small_row):
    """A layout_model in which each node reads only some of its parents:
    the row of the first key that agrees on the parents it reads is copied
    to every other such key. So the model holds exact independences that
    its graph does not show."""
    names, edges, exposure, outcome, spaces, cpts = layout_model(rng, n_nodes, row)
    for v, (parents, table) in cpts.items():
        read = [i for i in range(len(parents)) if rng.random() < 0.5]
        first = {}
        for key, vector in table.items():
            first.setdefault(tuple(key[i] for i in read), vector)
        cpts[v] = (parents, {key: first[tuple(key[i] for i in read)] for key in table})
    return names, edges, exposure, outcome, spaces, cpts


def naive_positivity_message(names, spaces, joint, exposure, subset):
    """The PositivityViolation message of the first stratum, in the order
    of the covariates' state spaces, that has positive probability and
    lacks an exposure arm (arm 0 checked first); None if there is none."""
    p_xa = _marginal(names, joint, tuple(subset) + (exposure,))
    for x in product(*(spaces[v] for v in subset)):
        arms = [p_xa.get(x + (arm,), 0) for arm in (0, 1)]
        if any(arms) and not all(arms):
            arm = arms.index(0)
            return f"stratum {dict(zip(subset, x))!r}: P({exposure}={arm}, stratum) = 0"
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_packed_layout_edge_cases_match_the_flat_joint(seed, n_nodes):
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = layout_model(rng, n_nodes)
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)

    def draw():
        picks = rng.sample(names, rng.randint(0, n_nodes))
        return {v: rng.choice(spaces[v]) for v in picks}

    def prob(partial):
        return _marginal(names, joint, tuple(partial)).get(tuple(partial.values()), 0)

    event, given_ = draw(), draw()
    assert model.probability(event) == prob(event)
    if prob(given_) == 0:
        with pytest.raises(ZeroProbabilityCondition):
            model.cond_probability(event, given_)
    elif any(event[v] != given_[v] for v in set(event) & set(given_)):
        assert model.cond_probability(event, given_) == 0
    else:
        assert model.cond_probability(event, given_) == prob({**given_, **event}) / prob(given_)

    shuffled = rng.sample(names, n_nodes)
    cut_a = rng.randint(1, n_nodes - 1)
    cut_b = rng.randint(cut_a + 1, n_nodes)
    set_a, set_b = shuffled[:cut_a], shuffled[cut_a:cut_b]
    z = [v for v in shuffled[cut_b:] if rng.random() < 0.7]
    assert model.ci_test(set_a, set_b, z) == naive_independent(names, spaces, joint, set_a, set_b, z)

    tables = {}
    for arm in (0, 1):
        w_nodes, tables[arm] = naive_cf_joint(names, edges, spaces, cpts, exposure, outcome, arm)
        assert model.cf_joint(arm).w_nodes == w_nodes
        assert model.cf_joint(arm).table == tables[arm]
    for subset in all_subsets(dag.covariate_pool):
        want = naive_standardized_rd(names, spaces, joint, exposure, outcome, subset)
        if want is None:
            message = naive_positivity_message(names, spaces, joint, exposure, subset)
            assert rd_outcome(model, subset) == (None, (PositivityViolation, message))
        else:
            assert model.standardized_rd(subset) == want
        want = all(naive_cf_independent(w_nodes, tables[arm], subset) for arm in (0, 1))
        assert model.cf_unconfounded(subset) == want


# -- D5 and D6 against a naive scan ---------------------------------------------------


def naive_d5_d6(names, spaces, cpts, exposure, outcome, pool, variable):
    """(D5, D6) outcomes of `variable` by a scan over its contexts in
    canonical order, every risk difference and |bias| taken afresh from
    the flat joint; a stratum without an arm raises the package's
    PositivityViolation message."""
    joint = naive_joint(names, spaces, cpts)
    ace = naive_forced_mean(names, spaces, cpts, outcome, (exposure, 1)) - naive_forced_mean(
        names, spaces, cpts, outcome, (exposure, 0)
    )

    def rd(subset):
        subset = tuple(sorted(subset))
        value = naive_standardized_rd(names, spaces, joint, exposure, outcome, subset)
        if value is None:
            raise PositivityViolation(naive_positivity_message(names, spaces, joint, exposure, subset))
        return value

    contexts = all_subsets([v for v in pool if v != variable])

    def d5():
        for context in contexts:
            with_c, without = abs(rd(context + (variable,)) - ace), abs(rd(context) - ace)
            if with_c < without:
                return True, (context, (with_c, without))
        return False, None

    def d6():
        for context in contexts:
            if rd(context + (variable,)) != rd(context):
                return True, context
        return False, None

    return outcome_of(d5), outcome_of(d6)


def d5_d6_case(seed, n_nodes, draw=layout_model, row=small_row):
    """Compare classify_d5 and classify_d6 with the naive scan for every
    covariate of one drawn model; returns the kinds of case it met. With
    positive rows every risk difference is defined, so the scans test the
    graphical D1 contexts only."""
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = draw(rng, n_nodes, row)
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    assert model._rd_defined or row is not positive_row
    kinds = set()
    for variable in dag.covariate_pool:
        want = naive_d5_d6(names, spaces, cpts, exposure, outcome, dag.covariate_pool, variable)
        got = (
            outcome_of(lambda: classify_d5(model, variable)),
            outcome_of(lambda: classify_d6(model, variable)),
        )
        assert got == want
        for value, error in want:
            kinds.add((spaces[exposure], "raises" if error else value[0]))
    return kinds


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5))
def test_d5_and_d6_match_a_naive_scan(seed, n_nodes):
    d5_d6_case(seed, n_nodes)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.sampled_from((layout_model, unfaithful_model)))
def test_pruned_d5_and_d6_match_a_naive_scan(seed, n_nodes, draw):
    d5_d6_case(seed, n_nodes, draw, positive_row)


def test_d5_and_d6_scan_meets_every_case():
    # both exposure orders, each with verdicts held, failed and raised;
    # with positive rows, held and failed, in the pruned scan
    kinds, pruned = set(), set()
    for seed in range(120):
        kinds |= d5_d6_case(seed, 3 + seed % 3)
        pruned |= d5_d6_case(seed, 3 + seed % 3, unfaithful_model if seed % 2 else layout_model, positive_row)
    orders = ((0, 1), (1, 0))
    assert kinds == {(order, kind) for order in orders for kind in (True, False, "raises")}
    assert pruned == {(order, kind) for order in orders for kind in (True, False)}


# -- numeric D1 against a naive scan -----------------------------------------------------


def naive_d1_numeric(names, spaces, joint, exposure, outcome, pool, variable):
    """Numeric D1 of `variable` by a scan over all of its contexts in
    canonical order, each independence tested in the flat joint."""
    for context in all_subsets([v for v in pool if v != variable]):
        if naive_independent(names, spaces, joint, (variable,), (exposure,), context):
            continue
        if naive_independent(names, spaces, joint, (variable,), (outcome,), context + (exposure,)):
            continue
        return True, context
    return False, None


def d1_numeric_case(seed, n_nodes, draw):
    """Compare classify_d1_numeric with the naive scan for every covariate
    of one drawn model; returns the kinds of case it met, each numeric
    verdict beside the graphical one."""
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = draw(rng, n_nodes)
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)
    kinds = set()
    for variable in dag.covariate_pool:
        want = naive_d1_numeric(names, spaces, joint, exposure, outcome, dag.covariate_pool, variable)
        assert classify_d1_numeric(model, variable) == want
        graphical = classify_d1_graphical(dag, variable)
        kinds.add((want[0], graphical[0], want == graphical))
    return kinds


def fuzz_draw(rng, n_nodes):
    """A model fuzz draw, random_dag and random_model, as raw data: its
    pools are wider than raw_model's."""
    dag = random_dag(rng, n_nodes, 0.4)
    model = random_model(rng, dag)
    cpts = {v: (c.parent_order, c.table) for v, c in model.cpts.items()}
    return dag.nodes, dag.edges, dag.exposure, dag.outcome, model.state_spaces, cpts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.sampled_from((layout_model, unfaithful_model)))
def test_d1_numeric_matches_a_naive_scan(seed, n_nodes, draw):
    # zero entries, 3-state nodes and both exposure orders (layout_model),
    # and exact cancellations (unfaithful_model)
    d1_numeric_case(seed, n_nodes, draw)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 8))
def test_d1_numeric_matches_a_naive_scan_on_fuzz_draws(seed, n_nodes):
    d1_numeric_case(seed, n_nodes, fuzz_draw)


def test_d1_numeric_scan_meets_every_case():
    # numeric and graphical D1 agree; numeric fails where the graph holds;
    # both hold with different witnesses (rarer: seeds 285 and 127 draw it)
    kinds = set()
    for seed, n_nodes in [(seed, 3 + seed % 4) for seed in range(80)] + [(285, 5), (127, 6)]:
        kinds |= d1_numeric_case(seed, n_nodes, unfaithful_model)
    assert kinds == {(True, True, True), (False, False, True), (False, True, False), (True, True, False)}


# -- counterfactual tests -------------------------------------------------------------------


def declared_pre_draw(rng, n_nodes):
    """A raw_model draw with a covariate besides the outcome, and a
    declared pre-exposure set that leaves out one such covariate and may
    name descendants of the exposure."""
    while True:
        names, edges, exposure, outcome, spaces, cpts = raw_model(rng, n_nodes)
        down = naive_descendants(edges, exposure) | {exposure, outcome}
        covariates = [v for v in names if v not in down]
        if covariates:
            break
    left_out = rng.choice(covariates)
    pre = {v for v in names if v != left_out and rng.random() < 0.6}
    return names, edges, exposure, outcome, spaces, cpts, pre


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6))
def test_a_declared_pre_exposure_set_matches_the_flat_joint(seed, n_nodes):
    # the pool is narrower than W, but counterfactual tests take any
    # subset of W, members outside the pool included
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts, pre = declared_pre_draw(rng, n_nodes)
    dag = Dag(names, edges, exposure, outcome, declared_pre=pre)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)
    arms = [naive_cf_joint(names, edges, spaces, cpts, exposure, outcome, a) for a in (0, 1)]
    w_nodes, pool = arms[0][0], dag.covariate_pool
    assert set(pool) < set(w_nodes) - {outcome}

    for subset in all_subsets(pool):
        want = naive_standardized_rd(names, spaces, joint, exposure, outcome, subset)
        if want is None:
            message = naive_positivity_message(names, spaces, joint, exposure, subset)
            assert rd_outcome(model, subset) == (None, (PositivityViolation, message))
        else:
            assert rd_outcome(model, subset) == (want, None)
        want = all(naive_cf_independent(*arm, subset) for arm in arms)
        assert outcome_of(lambda: model.cf_unconfounded(subset)) == (want, None)
    for name in sorted(set(w_nodes) - set(pool)):
        rejected = (None, (NonCovariateInSet, f"{name!r} is not in the covariate pool"))
        assert rd_outcome(model, (name,)) == rejected
        assert outcome_of(lambda: model.cf_unconfounded((name,))) == rejected

    outside = [s for s in all_subsets(w_nodes) if not set(s) <= set(pool)]
    for arm, (_, table) in zip((0, 1), arms):
        cf = model.cf_joint(arm)
        for subset in outside:
            assert cf.independent_given(subset) == naive_cf_independent(w_nodes, table, subset)
        for name in sorted(set(names) - set(w_nodes)):
            unknown = (None, (UnknownNode, f"{name!r} is not among the joint's covariates"))
            assert outcome_of(lambda: cf.independent_given((name,))) == unknown


def cf_test_case(seed, n_nodes, draw):
    """Compare, on both arms of one drawn model and every subset S of W,
    the table test of Y_a ⟂ A | S with the per-set test of the arm's
    model; returns the kinds of case it met: the exposure's states and
    each answer."""
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = draw(rng, n_nodes)
    dag = Dag(names, edges, exposure, outcome)
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    kinds = set()
    for arm in (0, 1):
        cf = model.cf_joint(arm)
        for subset in all_subsets(cf.w_nodes):
            want = cf.model._ci((outcome,), (exposure,), subset)
            assert cf.independent_given(subset) == want
            kinds.add((spaces[exposure], want))
    for subset in all_subsets(dag.covariate_pool):
        want = all(model.cf_joint(arm).independent_given(subset) for arm in (0, 1))
        assert model.cf_unconfounded(subset) == want
    return kinds


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from((layout_model, unfaithful_model)))
def test_the_counterfactual_table_test_matches_the_per_set_test(seed, n_nodes, draw):
    # zero entries, 3-5-state nodes and both exposure orders
    # (layout_model), and exact independences the graph does not show
    # (unfaithful_model)
    cf_test_case(seed, n_nodes, draw)


def test_the_counterfactual_table_test_meets_every_case():
    kinds = set()
    for seed in range(40):
        kinds |= cf_test_case(seed, 3 + seed % 3, (layout_model, unfaithful_model)[seed % 2])
    assert kinds == {(states, want) for states in ((0, 1), (1, 0)) for want in (False, True)}


# -- the extension loop ------------------------------------------------------------------


def extension_model(rng, n_nodes):
    """A layout_model with at least one edge, its nodes listed in an order
    that is not a topological order: the list is reversed when every edge
    points forward in it."""
    while True:
        names, edges, *rest = layout_model(rng, n_nodes)
        if edges:
            break
    if all(names.index(u) < names.index(v) for u, v in edges):
        names.reverse()
    return (names, edges, *rest)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_extension_loop_matches_the_flat_joint(seed, n_nodes):
    rng = random.Random(seed)
    names, edges, exposure, outcome, spaces, cpts = extension_model(rng, n_nodes)
    dag = Dag(names, edges, exposure, outcome)
    assert dag.topological_order != dag.nodes
    model = DiscreteModel(dag, spaces, {v: Cpt(v, *cpts[v]) for v in names})
    joint = naive_joint(names, spaces, cpts)

    got = Counter((key, F(w, model._den)) for key, w in model._joint_items())
    want = Counter((model._key(dict(zip(names, vals))), p) for vals, p in joint.items())
    assert got == want
    for vals in product(*(spaces[v] for v in names)):
        assert model.joint_probability(dict(zip(names, vals))) == joint.get(vals, 0)
    for arm in (0, 1):
        w_nodes, table = naive_cf_joint(names, edges, spaces, cpts, exposure, outcome, arm)
        assert model.cf_joint(arm).w_nodes == w_nodes
        assert model.cf_joint(arm).table == table


def derived_case(rng, n_nodes):
    """A raw_model DAG whose nodes have 2-4 states, the exposure's listed
    as (0, 1) or (1, 0), with small_row CPT rows (zeros allowed)."""
    names, edges, exposure, outcome, _, _ = raw_model(rng, n_nodes)
    spaces = {v: tuple(range(rng.randint(2, 4))) for v in names}
    spaces[exposure] = rng.choice(((0, 1), (1, 0)))
    cpts = {}
    for v in names:
        parents = tuple(sorted(u for u, w in edges if w == v))
        keys = product(*(spaces[q] for q in parents))
        cpts[v] = Cpt(v, parents, {key: small_row(rng, len(spaces[v])) for key in keys})
    return DiscreteModel(Dag(names, edges, exposure, outcome), spaces, cpts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_derived_models_pass_the_checked_constructor(seed, n_nodes):
    # single-world and intervened models skip the checks; rebuilt with the
    # checked constructor from their own Dag, states and CPTs, each must be
    # accepted and give the same probability to every full assignment
    m = derived_case(random.Random(seed), n_nodes)
    dag = m.dag
    edges, exposure, outcome = dag.edges, dag.exposure, dag.outcome
    single_world = set(dag.nodes) - naive_descendants(edges, exposure)
    single_world |= naive_descendants([(v, u) for u, v in edges], outcome) | {outcome}
    derived = [m.cf_joint(arm).model for arm in (0, 1)]
    for model in derived:
        assert set(model.dag.nodes) == single_world
    derived += [m.intervene(n, v) for n in dag.nodes for v in m.state_spaces[n]]
    for model in derived:
        nodes = model.dag.nodes
        rebuilt = DiscreteModel(model.dag, {n: model.state_spaces[n] for n in nodes}, model.cpts)
        for states in product(*(model.state_spaces[n] for n in nodes)):
            assignment = dict(zip(nodes, states))
            assert model.joint_probability(assignment) == rebuilt.joint_probability(assignment)


# -- work done per model -------------------------------------------------------------------


def one_model_trial():
    """Run the one trial of a 6-node model fuzz run (seed 5; its Dag has a
    four-member pool and graphical D1 contexts for every member), then ask its model again: every covariate's report,
    and every subset's risk difference with its members in reverse order.
    The trial's scans ask each set once; the second round must be answered
    from what the first one kept. Last, the probability of one pool cell
    is asked with its nodes in two orders."""
    rng = random.Random(5)
    dag = random_dag(rng, 6, 0.35)
    model = random_model(rng, dag)
    failures = []
    _run_trial(0, dag, model, failures, Counter())
    assert failures == []
    for variable in dag.covariate_pool:
        classify_variable(dag, variable, model)
    for subset in all_subsets(dag.covariate_pool):
        model.standardized_rd(subset[::-1])
    cell = {n: model.state_spaces[n][0] for n in dag.covariate_pool}
    assert model.probability(cell) == model.probability(dict(reversed(cell.items())))


def test_each_risk_difference_is_computed_once_per_set(monkeypatch):
    # `_rd_of` is the one cached entry: standardized_rd, D6 and the
    # fuzzer's subset loop all go through it
    asked, computed, models = Counter(), Counter(), []
    kept, body = DiscreteModel._rd_of, DiscreteModel._standardized_rd

    def counted_kept(self, covariates):
        asked[id(self), covariates] += 1
        models.append(self)  # keeps ids unique for the run
        return kept(self, covariates)

    def counted_body(self, covariates):
        computed[id(self), covariates] += 1
        return body(self, covariates)

    monkeypatch.setattr(DiscreteModel, "_rd_of", counted_kept)
    monkeypatch.setattr(DiscreteModel, "_standardized_rd", counted_body)
    one_model_trial()
    assert set(computed) == set(asked)
    assert set(computed.values()) == {1}
    assert sum(asked.values()) > len(asked)  # the cache was asked again


def test_each_abs_bias_is_taken_once_per_set(monkeypatch):
    # D5 asks |bias| of two sets per context; each set's Fraction
    # subtraction and abs run once per model
    asked, taken, models = Counter(), [], []
    kept, fraction_abs = DiscreteModel._abs_bias, Fraction.__abs__

    def counted_kept(self, covariates):
        asked[id(self), covariates] += 1
        models.append(self)
        return kept(self, covariates)

    def counted_abs(self):
        taken.append(self)
        return fraction_abs(self)

    monkeypatch.setattr(DiscreteModel, "_abs_bias", counted_kept)
    monkeypatch.setattr(Fraction, "__abs__", counted_abs)
    one_model_trial()
    assert asked and len(taken) == len(asked)
    assert sum(asked.values()) > len(asked)


def test_each_node_set_is_summed_once_per_model(monkeypatch):
    # margins serve probabilities and numeric D1; risk differences and
    # counterfactual tests read one table per model, built once: the
    # observed model's `_rd_cells` and each arm's `_arm_cells`
    summed, orders, models = Counter(), {}, []
    built = Counter()
    margin = DiscreteModel._margin
    tables = {"_rd_cells": "_rd_table", "_arm_cells": "_arm_table"}

    def counted(self, names):
        before = len(self._margins)
        out = margin(self, names)
        key = (id(self), frozenset(names))
        summed[key] += len(self._margins) - before
        orders.setdefault(key, set()).add(tuple(names))
        models.append(self)
        return out

    def counted_table(method, slot):
        build = getattr(DiscreteModel, method)

        def table(self):
            built[id(self), method] += getattr(self, slot) is None
            models.append(self)
            return build(self)

        return table

    monkeypatch.setattr(DiscreteModel, "_margin", counted)
    for method, slot in tables.items():
        monkeypatch.setattr(DiscreteModel, method, counted_table(method, slot))
    one_model_trial()
    assert set(summed.values()) == {1}
    assert any(len(seen) > 1 for seen in orders.values())  # asked in two orders
    # one observed model and its two arms, each table built once
    assert Counter(method for _, method in built) == {"_rd_cells": 1, "_arm_cells": 2}
    assert set(built.values()) == {1}


def scanned_sets(contexts, variable, witness_context):
    """The sets whose risk differences a D5 or D6 scan over `contexts`
    asks for: each context and the context plus `variable`, up to the
    witness's context."""
    out = set()
    for context in contexts:
        out |= {context, tuple(sorted(context + (variable,)))}
        if context == witness_context:
            break
    return out


def test_d5_and_d6_ask_only_the_graphical_d1_contexts(monkeypatch):
    # strictly positive CPTs: only the graphical D1 contexts are tested;
    # one zero entry in the outcome's CPT leaves every risk difference
    # defined, but the scans then test every context
    asked = []
    kept = DiscreteModel._rd_of

    def counted(self, covariates):
        asked.append(covariates)
        return kept(self, covariates)

    monkeypatch.setattr(DiscreteModel, "_rd_of", counted)
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        dag = random_dag(rng, 6, 0.35)
        positive = random_model(rng, dag)
        cpts = dict(positive.cpts)
        y = cpts[dag.outcome]
        first = next(iter(y.table))
        cpts[dag.outcome] = Cpt(dag.outcome, y.parent_order, {**y.table, first: (F(1), F(0))})
        for model in (positive, DiscreteModel(dag, positive.state_spaces, cpts)):
            assert model._rd_defined == (model is positive)
            for variable in dag.covariate_pool:
                others = [c for c in dag.covariate_pool if c != variable]
                contexts = list(
                    _d1_contexts(dag, variable) if model is positive else all_subsets(others)
                )
                for classify in (classify_d5, classify_d6):
                    fresh = DiscreteModel(dag, model.state_spaces, model.cpts)
                    del asked[:]
                    held, witness = classify(fresh, variable)
                    context = witness[0] if classify is classify_d5 and held else witness
                    assert set(asked) == scanned_sets(contexts, variable, context)
                    seen[model is positive, bool(asked), len(contexts) < 2 ** len(others)] += 1
    # positive models whose scans ask nothing, or fewer than every context
    assert seen[True, False, True] and seen[True, True, True]
    assert seen[False, True, False] and not seen[False, False, False]


def test_every_random_model_has_every_risk_difference_defined():
    # model fuzz keeps the pruned D5 and D6 scans
    rng = random.Random(4)
    for n_nodes in (2, 4, 6, 8, 10):
        for _ in range(20):
            assert random_model(rng, random_dag(rng, n_nodes, 0.4))._rd_defined


def test_a_model_past_the_joint_cap_answers_when_the_graph_leaves_no_context():
    # C causes Y alone, so no context leaves C d-connected to A: numeric
    # D1, D5 and D6 answer without the joint, which is over the cap. The
    # confounder Z's scans need it, and raise.
    isolated = [f"N{i:02d}" for i in range(12)]
    dag = Dag(
        ["A", "Y", "C", "Z"] + isolated,
        [("C", "Y"), ("Z", "A"), ("Z", "Y"), ("A", "Y")],
        "A",
        "Y",
    )
    spaces = {v: (0, 1) for v in ("A", "Y", "C", "Z")} | {v: ("a", "b", "c") for v in isolated}
    cpts = {v: Cpt(v, (), {(): (F(1, 3),) * 3}) for v in isolated}
    cpts["C"] = Cpt("C", (), {(): (F(1, 2), F(1, 2))})
    cpts["Z"] = Cpt("Z", (), {(): (F(1, 4), F(3, 4))})
    cpts["A"] = Cpt("A", ("Z",), {(0,): (F(1, 3), F(2, 3)), (1,): (F(3, 4), F(1, 4))})
    cpts["Y"] = Cpt(
        "Y",
        ("A", "C", "Z"),
        {k: (F(2, 5 + sum(k)), F(3 + sum(k), 5 + sum(k))) for k in product((0, 1), repeat=3)},
    )
    model = DiscreteModel(dag, spaces, cpts)
    assert 16 * 3**12 > MAX_JOINT and model._rd_defined
    assert classify_d1_numeric(model, "C") == (False, None)
    assert classify_d5(model, "C") == (False, None)
    assert classify_d6(model, "C") == (False, None)
    report = classify_variable(dag, "C", model)
    assert report.d1_numeric is False and not report.verdicts["D5"] and not report.verdicts["D6"]
    assert model._joint is None
    for classify in (classify_d1_numeric, classify_d5, classify_d6):
        with pytest.raises(SizeLimit, match="joint state space"):
            classify(model, "Z")


@pytest.mark.parametrize("stem", ["fig1", "fig2", "fig3", "fig4", "prop5"])
def test_counterfactual_joints_build_no_graph_and_no_intervened_model(monkeypatch, stem):
    # each arm is a single-world model derived from the model itself: one
    # Dag, the single-world graph, is built for both arms (no graph per arm
    # or per query), no model is intervened on, and each arm's joint is
    # built once. The model is parsed afresh, with no joint built yet.
    fixtures = files("confounders").joinpath("fixtures")
    dag = parse_graph(fixtures.joinpath(f"{stem}.graph").read_text(encoding="utf-8"))
    model = parse_model(fixtures.joinpath(f"{stem}.json").read_text(encoding="utf-8"), dag)
    graphs, intervened, built = [], [], Counter()
    graph_build, intervene, joint_items = Graph._build, DiscreteModel.intervene, DiscreteModel._joint_items

    def counted_graph(self, *args):
        graphs.append(type(self))
        graph_build(self, *args)

    def counted_intervene(self, *args):
        intervened.append(args)
        return intervene(self, *args)

    def counted_joint_items(self):
        built[id(self)] += self._joint is None
        return joint_items(self)

    monkeypatch.setattr(Graph, "_build", counted_graph)
    monkeypatch.setattr(DiscreteModel, "intervene", counted_intervene)
    monkeypatch.setattr(DiscreteModel, "_joint_items", counted_joint_items)
    model.ace()
    for arm in (0, 1):
        model.cf_joint(arm)
    for subset in all_subsets(dag.covariate_pool):
        model.cf_unconfounded(subset)
    arms = [model.cf_joint(arm).model for arm in (0, 1)]
    assert graphs == [Dag] and intervened == []
    assert arms[0].dag is arms[1].dag
    assert built == {id(arms[0]): 1, id(arms[1]): 1}
