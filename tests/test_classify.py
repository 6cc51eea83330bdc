"""The six confounder definitions, their witnesses, the implication lattice,
and the conditional/surrogate variants."""
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confounders.classify as classify_module
import confounders.graph as graph_module
from confounders.classify import (
    DASHED_EDGES,
    SOLID_GRAPH_EDGES,
    SOLID_MODEL_EDGES,
    _connectable_mask,
    _d1_contexts,
    check_implications,
    classify_d1_graphical,
    classify_d1_numeric,
    classify_d2,
    classify_d3,
    classify_d4,
    classify_d5,
    classify_d6,
    classify_variable,
    conditional_confounder,
    dashed_observations,
    surrogate_confounder,
)
from confounders.errors import (
    IncompleteReport,
    InvalidConfig,
    MissingModel,
    NonCovariateInSet,
    NotACovariate,
    OverlappingSets,
    SizeLimit,
)
from confounders.fuzz import random_dag, random_model
from confounders.graph import Dag
from confounders.model import DiscreteModel
from confounders.registry import get_entry
from test_sliced import dags

F = Fraction

COLLIDER_CHILD = get_entry("Fig1")  # C3 descends from a collider-free pair
TWO_ROUTES = get_entry("Fig3")  # C1, C2 each sufficient alone
SURROGATE = get_entry("Fig4")  # C2 helps numerically, never graphically
SINGLE = get_entry("Prop5")  # one common cause C


# -- individual definitions -----------------------------------------------------


def test_d1_graphical_witnesses():
    dag = COLLIDER_CHILD.dag
    held, ctx = classify_d1_graphical(dag, "C1")
    assert held and ctx == ("C3",)
    held, ctx = classify_d1_graphical(dag, "C3")
    assert held and ctx == ()


def test_d1_fails_for_isolated_covariate():
    dag = Dag(("B", "A", "Y"), (("B", "A"), ("A", "Y")), "A", "Y")
    held, ctx = classify_d1_graphical(dag, "B")
    assert not held and ctx is None


def test_d2_backdoor_membership():
    held, path = classify_d2(get_entry("Fig2").dag, "C2")
    assert held and str(path) == "A <- C2 <- C1 -> Y"
    held, path = classify_d2(COLLIDER_CHILD.dag, "C3")
    assert not held and path is None


def test_d3_and_d4_on_two_routes():
    dag = TWO_ROUTES.dag
    assert not classify_d3(dag, "C1")
    assert not classify_d3(dag, "C2")
    assert classify_d4(dag, "C1") == (True, ("C1",))
    assert classify_d4(dag, "C2") == (True, ("C2",))


def test_d3_on_collapsed_chain():
    dag = Dag(("C1", "A", "Y"), (("C1", "A"), ("C1", "Y"), ("A", "Y")), "A", "Y")
    assert classify_d3(dag, "C1")


def test_d5_strict_bias_reduction():
    held, witness = classify_d5(SURROGATE.model, "C2")
    assert held
    context, (with_c, without) = witness
    assert context == ()
    assert with_c == F(122, 2583) and without == F(6, 119)
    assert abs(with_c) < abs(without)


def test_d5_fails_when_no_context_helps():
    held, witness = classify_d5(SINGLE.model, "C")
    assert not held and witness is None


def test_d6_effect_change():
    held, ctx = classify_d6(SURROGATE.model, "C2")
    assert held
    held, _ = classify_d6(COLLIDER_CHILD.model, "C3")
    assert held  # harmful to adjust for, yet it moves the estimate


def test_covariate_guard():
    with pytest.raises(NotACovariate):
        classify_d1_graphical(SINGLE.dag, "A")
    with pytest.raises(NotACovariate):
        classify_d4(SINGLE.dag, "Y")
    with pytest.raises(NotACovariate):
        classify_variable(SINGLE.dag, "missing")


# -- assembled reports ------------------------------------------------------------


def test_report_graph_only():
    report = classify_variable(SINGLE.dag, "C")
    assert report.verdicts == {"D1": True, "D2": True, "D3": True, "D4": True}
    assert report.surrogate is None and report.d1_numeric is None
    assert report.lattice_ok


def test_report_with_model():
    report = classify_variable(SINGLE.dag, "C", SINGLE.model)
    assert report.verdicts == {
        "D1": True,
        "D2": True,
        "D3": True,
        "D4": True,
        "D5": False,
        "D6": False,
    }
    assert report.d1_numeric is True
    assert report.surrogate is False
    assert report.lattice_ok


def test_surrogate_report():
    report = classify_variable(SURROGATE.dag, "C2", SURROGATE.model)
    assert report.verdicts["D4"] is False and report.verdicts["D5"] is True
    assert report.surrogate is True
    assert surrogate_confounder(SURROGATE.model, "C2") is True
    assert surrogate_confounder(SINGLE.model, "C") is False


def test_witnesses_only_for_held_definitions():
    report = classify_variable(SURROGATE.dag, "C2", SURROGATE.model)
    assert set(report.witnesses) >= {"D1", "D5", "D6"}
    assert report.witnesses["D2"] is None
    assert report.witnesses["D5"][0] == ()


# -- reports on the definitions asked for ---------------------------------------------


def ordered_subsets(ids):
    """Every nonempty subset of `ids`, forwards and reversed."""
    for bits in range(1, 1 << len(ids)):
        chosen = tuple(d for i, d in enumerate(ids) if bits >> i & 1)
        yield chosen
        yield chosen[::-1]


def both_ends_in(arrow, defs):
    return all(end in defs for end in arrow.replace("=>", "->").split("->"))


@pytest.mark.parametrize("with_model", [False, True])
def test_a_partial_report_is_the_full_report_restricted(with_model):
    for name in ("Fig1", "Fig2", "Fig3", "Fig4", "Prop5"):
        entry = get_entry(name)
        model = entry.model if with_model else None
        for variable in entry.dag.covariate_pool:
            full = classify_variable(entry.dag, variable, model)
            assert classify_variable(entry.dag, variable, model, defs=tuple(full.verdicts)) == full
            for defs in ordered_subsets(tuple(full.verdicts)):
                report = classify_variable(entry.dag, variable, model, defs=defs)
                assert list(report.verdicts) == list(defs)
                assert report.verdicts == {d: full.verdicts[d] for d in defs}
                assert report.witnesses == {
                    k: w for k, w in full.witnesses.items() if k.split("_")[0] in defs
                }
                assert report.d1_numeric == (full.d1_numeric if "D1" in defs else None)
                both = {"D4", "D5"} <= set(defs)
                assert report.surrogate == (full.surrogate if both else None)
                assert report.lattice_ok and full.lattice_ok
                assert report.dashed_observations == tuple(
                    a for a in full.dashed_observations if both_ends_in(a, defs)
                )


def test_a_verdict_table_breaks_only_arrows_with_both_ends_in_it():
    assert classify_module._broken_arrows({"D5": True, "D6": False}, None) == ("D5=>D6",)
    assert classify_module._broken_arrows({"D5": True, "D1": False}, None) == ("D5=>D1",)
    # model-layer arrows read numeric D1 when it is given
    assert classify_module._broken_arrows({"D5": True, "D1": False}, True) == ()
    assert classify_module._broken_arrows({"D4": True, "D1": False}, True) == ("D4=>D1",)
    assert classify_module._dashed_arrows({"D2": True, "D1": False, "D6": False}) == ("D2->D1", "D2->D6")


def test_a_d1_d2_model_report_runs_no_catalog_and_no_model_scan(monkeypatch):
    calls = []
    for name in ("classify_d3", "classify_d4", "classify_d5", "classify_d6",
                 "minimal_sufficient_sets"):
        real = getattr(classify_module, name)

        def wrapper(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(classify_module, name, wrapper)
    rng = random.Random(3)
    models = [get_entry(n).model for n in ("Fig1", "Fig2", "Fig3", "Fig4", "Prop5")]
    models += [random_model(rng, random_dag(rng, 7, 0.35)) for _ in range(20)]
    for model in models:
        for variable in model.dag.covariate_pool:
            report = classify_variable(model.dag, variable, model, defs=("D1", "D2"))
            assert set(report.verdicts) == {"D1", "D2"} and report.d1_numeric is not None
    assert calls == []
    classify_variable(SINGLE.dag, "C", SINGLE.model)
    assert {"classify_d5", "classify_d6", "minimal_sufficient_sets"} <= set(calls)


def test_definition_lists_are_checked():
    with pytest.raises(InvalidConfig, match="names no definition id"):
        classify_variable(SINGLE.dag, "C", defs=())
    with pytest.raises(InvalidConfig, match="unknown definition ids"):
        classify_variable(SINGLE.dag, "C", SINGLE.model, defs=("D1", "D9"))
    with pytest.raises(MissingModel):
        classify_variable(SINGLE.dag, "C", defs=("D1", "D5"))
    assert classify_variable(SINGLE.dag, "C", defs=["D2"]).verdicts == {"D2": True}


# -- one D1 lane vector per covariate -------------------------------------------------


def counted_passes(monkeypatch):
    """{(Dag, covariate index): sliced passes classify ran from it}, keyed
    on the node of the one-node source mask; the Dags are kept alive, so
    their ids stay unique."""
    passes, graphs = Counter(), []
    real = classify_module._sliced_dsep

    def counted(graph, source, *rest):
        passes[id(graph), source.bit_length() - 1] += 1
        graphs.append(graph)
        return real(graph, source, *rest)

    monkeypatch.setattr(classify_module, "_sliced_dsep", counted)
    return passes


def test_a_model_report_runs_at_most_two_sliced_passes_per_covariate(monkeypatch):
    # graphical D1, numeric D1, D5 and D6 read one lane vector, kept on
    # the Dag per covariate: a second report on the same Dag runs no pass,
    # and each report is the one a fresh Dag and model give. A covariate
    # the connectability filter settles runs none.
    passes = counted_passes(monkeypatch)
    rng = random.Random(7)
    settled = 0
    for _ in range(30):
        dag = random_dag(rng, 7, 0.4)
        model = random_model(rng, dag)
        for variable in dag.covariate_pool:
            report = classify_variable(dag, variable, model)
            assert classify_variable(dag, variable, model) == report
            fresh = Dag(dag.nodes, dag.edges, dag.exposure, dag.outcome)
            fresh_model = DiscreteModel(fresh, model.state_spaces, model.cpts)
            assert classify_variable(fresh, variable, fresh_model) == report
            c = dag._index[variable]
            if not _connectable_mask(dag) >> c & 1:
                assert not report.verdicts["D1"]
                assert passes[id(dag), c] == passes[id(fresh), c] == 0
                settled += 1
    assert settled and passes and set(passes.values()) <= {1, 2}


# C's first D1 context is {M1, M2}: C -> M1 <- P -> M2 <- Q -> A opens only
# when both colliders are conditioned on
TWO_MEMBER = Dag(
    ("C", "M1", "P", "M2", "Q", "A", "Y"),
    (("C", "M1"), ("P", "M1"), ("P", "M2"), ("Q", "M2"), ("Q", "A"), ("C", "Y"), ("A", "Y")),
    "A",
    "Y",
)
# V2 passes the filter yet has no D1 context: V3 is a collider on every
# V2-V1 connection and a non-collider on the V2-V4 one
COORDINATED = Dag(
    ("V0", "V1", "V2", "V3", "V4"),
    (("V0", "V1"), ("V0", "V3"), ("V1", "V4"), ("V2", "V3"), ("V3", "V4")),
    "V1",
    "V4",
)


def test_a_graph_report_runs_sliced_passes_only_past_the_one_member_contexts(monkeypatch):
    # the probe answers the empty context, the filter most negatives, and
    # two kernel queries per member each one-member context: a graph report
    # runs the passes only when its D1 witness has two or more members, or
    # for a negative the filter leaves open
    assert classify_d1_graphical(TWO_MEMBER, "C") == (True, ("M1", "M2"))
    assert classify_d1_graphical(COORDINATED, "V2") == (False, None)
    passes = counted_passes(monkeypatch)
    rng = random.Random(8)
    draws = [random_dag(rng, 7, 0.4) for _ in range(30)]
    seen = Counter()
    for dag in draws + [TWO_MEMBER, COORDINATED]:
        dag = Dag(dag.nodes, dag.edges, dag.exposure, dag.outcome)
        for variable in dag.covariate_pool:
            witness = classify_variable(dag, variable).witnesses["D1"]
            c = dag._index[variable]
            if witness is None:
                kind = "coordinated" if _connectable_mask(dag) >> c & 1 else "settled"
            else:
                kind = min(len(witness), 2)
            ran = passes[id(dag), c]
            assert ran <= 2 and (ran > 0) == (kind in ("coordinated", 2))
            seen[kind] += 1
    assert set(seen) == {"settled", "coordinated", 0, 1, 2}


# -- one D1 probe per Dag ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(dag=dags(max_nodes=12))
def test_d1_probe_mask_answers_the_two_scalar_probes(dag):
    # C's bit in the probe mask: C d-connected to A, and to Y given A
    kernel = dag._kernel
    a, y = (1 << dag._index[name] for name in (dag.exposure, dag.outcome))
    for variable in dag.covariate_pool:
        c = 1 << dag._index[variable]
        empty = not kernel.dsep(c, a, 0) and not kernel.dsep(c, y, a)
        assert (next(_d1_contexts(dag, variable), None) == ()) == empty
        assert bool(dag._d1_probe & c) == empty


def counted_kernel_calls(monkeypatch):
    """[(query, kernel, args)] for every `reachable` and `dsep` asked of
    the kernel of a graph built from here on."""
    calls = []

    class Counting(graph_module.BitDag):
        def reachable(self, src, z, *opened):
            calls.append(("reachable", self, (src, z, *opened)))
            return super().reachable(src, z, *opened)

        def dsep(self, a, b, z):
            calls.append(("dsep", self, (a, b, z)))
            return super().dsep(a, b, z)

    monkeypatch.setattr(graph_module, "BitDag", Counting)
    return calls


@pytest.mark.parametrize("with_model", [False, True])
def test_classifying_a_pool_reads_the_probe_and_filter_masks_once_per_dag(monkeypatch, with_model):
    # two reachable queries for the probe, and two more, with the pool
    # opening colliders, for the filter once a covariate misses the probe
    calls = counted_kernel_calls(monkeypatch)
    rng = random.Random(3)
    probed = filtered = 0
    for _ in range(20):
        dag = random_dag(rng, 7, 0.4)
        model = random_model(rng, dag) if with_model else None
        del calls[:]
        for variable in dag.covariate_pool:
            classify_variable(dag, variable, model)
        a, y = (1 << dag._index[name] for name in (dag.exposure, dag.outcome))
        reachable = [(kernel, args) for query, kernel, args in calls if query == "reachable"]
        if not dag.covariate_pool:
            assert reachable == []
            continue
        probed += 1
        expected = [(dag._kernel, (a, 0)), (dag._kernel, (y, a))]
        if not all(dag._d1_probe >> dag._index[name] & 1 for name in dag.covariate_pool):
            filtered += 1
            pool = dag._mask(dag.covariate_pool)
            expected += [(dag._kernel, (a, 0, pool)), (dag._kernel, (y, a, pool))]
        assert reachable == expected
        scalar_probes = {
            probe
            for c in (1 << dag._index[name] for name in dag.covariate_pool)
            for probe in ((c, a, 0), (c, y, a))
        }
        assert not [
            args for query, kernel, args in calls
            if query == "dsep" and kernel is dag._kernel and args in scalar_probes
        ]
    assert probed >= 10 and filtered


# -- implication lattice ------------------------------------------------------------


def test_edge_tables_are_the_documented_lattice():
    assert set(SOLID_GRAPH_EDGES) == {
        ("D3", "D4"),
        ("D4", "D2"),
        ("D4", "D1"),
        ("D3", "D2"),
        ("D3", "D1"),
    }
    assert set(SOLID_MODEL_EDGES) == {("D5", "D6"), ("D6", "D1"), ("D5", "D1")}
    assert len(DASHED_EDGES) == 7


def test_check_implications_passes_on_registry_reports():
    for name in ("Fig1", "Fig2", "Fig3", "Fig4", "Prop5"):
        entry = get_entry(name)
        for c in entry.dag.covariate_pool:
            report = classify_variable(entry.dag, c, entry.model)
            ok, violated = check_implications(report, has_model=True)
            assert ok and violated == ()


def test_check_implications_flags_synthetic_violation():
    report = classify_variable(TWO_ROUTES.dag, "C1")
    broken = replace(report, verdicts={**report.verdicts, "D2": False})
    ok, violated = check_implications(broken, has_model=False)
    assert not ok and "D4=>D2" in violated


def test_check_implications_requires_complete_report():
    report = classify_variable(TWO_ROUTES.dag, "C1")
    with pytest.raises(IncompleteReport):
        check_implications(report, has_model=True)
    broken = replace(report, verdicts={"D1": True})
    with pytest.raises(IncompleteReport):
        check_implications(broken, has_model=False)


def test_check_implications_refuses_a_partial_report():
    report = classify_variable(SURROGATE.dag, "C2", SURROGATE.model, defs=("D1", "D2", "D5"))
    for has_model in (False, True):
        with pytest.raises(IncompleteReport):
            check_implications(report, has_model)
        with pytest.raises(IncompleteReport):
            dashed_observations(report, has_model)


def test_dashed_observations_reported_not_failed():
    # C is a non-collider on the backdoor path A <- C -> D <- Y, but that
    # path stays collider-blocked, so D2 holds while graphical D1 fails.
    # A dashed arrow in the lattice: recorded, never a violation.
    dag = Dag(
        ("C", "D", "A", "Y"),
        (("C", "A"), ("C", "D"), ("A", "Y"), ("Y", "D")),
        "A",
        "Y",
    )
    report = classify_variable(dag, "C")
    assert report.verdicts["D2"] is True
    assert report.verdicts["D1"] is False
    assert "D2->D1" in report.dashed_observations
    assert report.lattice_ok
    ok, _ = check_implications(report, has_model=False)
    assert ok
    assert "D2->D1" in dashed_observations(report, has_model=False)


def assert_report_matches_the_public_checks(report, has_model):
    ok, violated = check_implications(report, has_model)
    assert report.lattice_ok == ok and ok == (violated == ())
    assert report.dashed_observations == dashed_observations(report, has_model)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
def test_graph_report_lattice_fields_match_the_public_checks(seed, n):
    rng = random.Random(seed)
    dag = random_dag(rng, n, rng.choice((0.2, 0.35, 0.5)))
    for variable in dag.covariate_pool:
        assert_report_matches_the_public_checks(classify_variable(dag, variable), False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_model_report_lattice_fields_match_the_public_checks(seed, n):
    rng = random.Random(seed)
    model = random_model(rng, random_dag(rng, n, rng.choice((0.2, 0.35, 0.5))))
    for variable in model.dag.covariate_pool:
        report = classify_variable(model.dag, variable, model)
        assert_report_matches_the_public_checks(report, True)


@pytest.mark.parametrize(
    "name",
    ["classify_d1_graphical", "classify_d1_numeric", "classify_d2", "classify_d3",
     "classify_d4", "classify_d5", "classify_d6"],
)
def test_report_lattice_fields_follow_verdicts_that_break_the_lattice(monkeypatch, name):
    # one definition answers the opposite: the report must still agree with
    # the public checks, and some arrow must break
    real = getattr(classify_module, name)

    def flipped(*args):
        out = real(*args)
        return not out if isinstance(out, bool) else (not out[0], out[1])

    monkeypatch.setattr(classify_module, name, flipped)
    broken = 0
    for entry in (COLLIDER_CHILD, get_entry("Fig2"), TWO_ROUTES, SURROGATE, SINGLE):
        for variable in entry.dag.covariate_pool:
            report = classify_variable(entry.dag, variable, entry.model)
            assert_report_matches_the_public_checks(report, True)
            broken += not report.lattice_ok
    assert broken


# -- conditional confounders ------------------------------------------------------------


def test_conditional_reduces_to_d4_when_unconditioned():
    dag = TWO_ROUTES.dag
    for c in dag.covariate_pool:
        assert conditional_confounder(dag, c)[0] == classify_d4(dag, c)[0]


def test_conditional_given_sufficient_base_fails():
    held, _ = conditional_confounder(TWO_ROUTES.dag, "C2", ("C1",))
    assert not held


def test_conditional_holds_past_collider_block():
    dag = COLLIDER_CHILD.dag
    # conditioning on C3 opens C1 - C3 - C2 paths: each parent then needed
    assert conditional_confounder(dag, "C1", ("C3",)) == (True, ())
    assert conditional_confounder(dag, "C2", ("C3",)) == (True, ())
    # without that conditioning nothing needs adjustment
    assert conditional_confounder(dag, "C1") == (False, None)


def test_conditional_answers_no_at_once_outside_r_of_l():
    # 25 forks C_i -> A, C_i -> Y put 25 members in R, past the minimal-set
    # search's cap; the leaf D under C0 lies outside R and is in no minimal
    # set, so it is answered without that search
    forks = [f"C{i:02d}" for i in range(25)]
    edges = [(c, v) for c in forks for v in ("A", "Y")] + [("C00", "D"), ("A", "Y")]
    dag = Dag(forks + ["D", "A", "Y"], edges, "A", "Y")
    assert "D" in dag.covariate_pool
    assert conditional_confounder(dag, "D") == (False, None)
    assert conditional_confounder(dag, "D", ("C03",)) == (False, None)
    with pytest.raises(SizeLimit):
        conditional_confounder(dag, "C00")


def test_conditional_rejects_overlap_and_non_covariates():
    with pytest.raises(OverlappingSets):
        conditional_confounder(TWO_ROUTES.dag, "C1", ("C1",))
    with pytest.raises(NotACovariate):
        conditional_confounder(TWO_ROUTES.dag, "A", ("C1",))
    with pytest.raises(NonCovariateInSet, match="'Y' is not in the covariate pool"):
        conditional_confounder(TWO_ROUTES.dag, "C1", ("Y",))
