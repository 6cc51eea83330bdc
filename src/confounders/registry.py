"""The bundled counterexample registry and the claim suite over it.

Five frozen graph/model pairs, each the smallest structure separating
some pair of confounder definitions:

  Fig1   m-structure. Nothing needs adjustment; conditioning on the
         collider C3 opens the only backdoor path. Separates D1/D2/D6
         from D3/D4 and defeats Properties 2A/2B for D1 and D6.
  Fig2   confounder C1 with a descendant proxy C2 that also feeds the
         exposure. Adjusting for the proxy alone shifts the estimate and
         strictly increases |bias|: D2 without Property 2B.
  Fig3   two-step backdoor chain C1 -> C2. Either link alone blocks the
         path, so there are two minimal sets and D3 marks nothing.
  Fig4   confounder C1 with an off-path child C2. With the pinned CPTs
         (seeded search, seed 7, first accepted draw) adjusting for C2
         strictly shrinks |bias|: a surrogate confounder, D5 without D4.
  Prop5  single-confounder triangle whose two confounding channels
         cancel exactly: zero bias at the empty set while the exposure
         stays counterfactually confounded, and D5/D6 mark nothing.

Every expected value below was computed with an independent brute-force
evaluator before being frozen; run_paper_suite re-derives each one from
the package and reports any mismatch as a failing row.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib.resources import files

from .adjust import backdoor_paths, is_sufficient, minimal_sufficient_sets
from .classify import (
    classify_d1_graphical,
    classify_d1_numeric,
    classify_d2,
    classify_d3,
    classify_d4,
    classify_d5,
    classify_d6,
    classify_variable,
    conditional_confounder,
    surrogate_confounder,
)
from .errors import UnknownNode
from .formats import format_3dec, json_ready, parse_graph, parse_model
from .graph import Dag, enumerate_paths
from .properties import (
    check_property1,
    check_property2a,
    check_property2b,
    positive_covariates,
)
from .selection import IndependenceOracle, backward_select, forward_select, robins_reduction

@dataclass(frozen=True)
class Claim:
    claim: str
    expected: object
    observe: object

    def row(self, entry):
        try:
            observed = self.observe(entry)
        except Exception as exc:  # a broken claim is a failing row, not a crash
            observed = f"error: {type(exc).__name__}: {exc}"
        return SuiteRow(self.claim, self.expected, observed, observed == self.expected)


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    summary: str
    dag: Dag
    model: object
    expected: tuple


@dataclass(frozen=True)
class SuiteRow:
    claim: str
    expected: object
    observed: object
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    rows: tuple

    @property
    def passed(self):
        return all(row.passed for row in self.rows)

    def failures(self):
        return tuple(row for row in self.rows if not row.passed)

    def to_text(self):
        lines = []
        for row in self.rows:
            tag = "PASS" if row.passed else "FAIL"
            lines.append(
                f"{tag} {row.claim} | expected {_show(row.expected)} | "
                f"observed {_show(row.observed)}"
            )
        lines.append(
            f"{'OK' if self.passed else 'MISMATCH'}: "
            f"{sum(r.passed for r in self.rows)}/{len(self.rows)} claims hold"
        )
        return "\n".join(lines) + "\n"

    def to_json(self):
        doc = {
            "rows": [json_ready(row) for row in self.rows],
            "passed": self.passed,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _show(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_show(v) for v in value) + ")"
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value) if isinstance(value, str) else str(value)
    return str(value)


def _fixture(name):
    return files("confounders").joinpath("fixtures", name).read_text(encoding="utf-8")


def _load(name):
    dag = parse_graph(_fixture(f"{name}.graph"))
    model = parse_model(_fixture(f"{name}.json"), dag)
    return dag, model


def _paths_text(dag):
    return tuple(str(p) for p in enumerate_paths(dag, dag.exposure, dag.outcome))


def _backdoors_text(dag):
    return tuple(str(p) for p in backdoor_paths(dag))


def _d2_text(dag, variable):
    verdict, witness = classify_d2(dag, variable)
    return verdict, (str(witness) if witness is not None else None)


def _collapsed_chain():
    # Fig3 with the chain C1 -> C2 contracted to a single covariate
    return Dag(("C1", "A", "Y"), (("C1", "A"), ("C1", "Y"), ("A", "Y")), "A", "Y")


def _fig1_claims():
    return (
        Claim(
            "Fig1: the exposure-outcome paths are the collider bridge and the direct edge",
            ("A <- C1 -> C3 <- C2 -> Y", "A -> Y"),
            lambda e: _paths_text(e.dag),
        ),
        Claim(
            "Fig1: the only minimally sufficient set is the empty set",
            ((),),
            lambda e: minimal_sufficient_sets(e.dag).sets,
        ),
        Claim(
            "Fig1: the empty set is sufficient",
            True,
            lambda e: is_sufficient(e.dag, ()).sufficient,
        ),
        Claim(
            "Prop1: D1 marks every covariate",
            ("C1", "C2", "C3"),
            lambda e: positive_covariates(e.dag, "D1"),
        ),
        Claim(
            "Prop1: the D1-positive set passes Property 1 on graph and model",
            True,
            lambda e: check_property1(e.dag, e.model, "D1").holds,
        ),
        Claim(
            "Prop1: D1 fails Property 2A at C3",
            False,
            lambda e: check_property2a(e.dag, "D1", "C3").holds,
        ),
        Claim(
            "Prop1: D1 fails Property 2B at C3",
            False,
            lambda e: check_property2b(e.model, "D1", "C3").holds,
        ),
        Claim(
            "Fig1: D2 marks the backdoor non-colliders C1 and C2 only",
            ("C1", "C2"),
            lambda e: positive_covariates(e.dag, "D2"),
        ),
        Claim(
            "Fig1: D3 and D4 mark nothing",
            ((), ()),
            lambda e: (positive_covariates(e.dag, "D3"), positive_covariates(e.dag, "D4")),
        ),
        Claim(
            "Fig1: the ace and the unadjusted risk difference are both 1/5",
            (Fraction(1, 5), Fraction(1, 5)),
            lambda e: (e.model.ace(), e.model.standardized_rd(())),
        ),
        Claim(
            "Prop6: adjusting for the collider C3 biases the estimate by -1248240/26920801",
            Fraction(-1248240, 26920801),
            lambda e: e.model.bias(("C3",)),
        ),
        Claim(
            "Prop6: D6 marks C3 with the empty context",
            (True, ()),
            lambda e: classify_d6(e.model, "C3"),
        ),
        Claim(
            "Prop6: D6 fails Property 2A at C3",
            False,
            lambda e: check_property2a(e.dag, "D6", "C3").holds,
        ),
        Claim(
            "Prop6: D6 fails Property 2B at C3",
            False,
            lambda e: check_property2b(e.model, "D6", "C3").holds,
        ),
        Claim(
            "Cond: C1 and C2 are conditional confounders given the collider C3",
            ((True, ()), (True, ())),
            lambda e: (
                conditional_confounder(e.dag, "C1", ("C3",)),
                conditional_confounder(e.dag, "C2", ("C3",)),
            ),
        ),
        Claim(
            "Cond: no covariate is a confounder outright (D4 all false)",
            (False, False, False),
            lambda e: tuple(classify_d4(e.dag, c)[0] for c in ("C1", "C2", "C3")),
        ),
        Claim(
            "Prop1: numeric and graphical D1 agree on every covariate",
            (True, True, True),
            lambda e: tuple(
                classify_d1_numeric(e.model, c)[0] == classify_d1_graphical(e.dag, c)[0]
                for c in ("C1", "C2", "C3")
            ),
        ),
        Claim(
            "Fig1: no solid-arrow violations in any covariate report",
            (True, True, True),
            lambda e: tuple(
                classify_variable(e.dag, c, model=e.model).lattice_ok
                for c in ("C1", "C2", "C3")
            ),
        ),
    )


def _fig2_claims():
    return (
        Claim(
            "Prop2: the backdoor paths are the direct one and the proxy path",
            ("A <- C1 -> Y", "A <- C2 <- C1 -> Y"),
            lambda e: _backdoors_text(e.dag),
        ),
        Claim(
            "Prop2: the only minimally sufficient set is {C1}",
            (("C1",),),
            lambda e: minimal_sufficient_sets(e.dag).sets,
        ),
        Claim("Prop2: the ace is exactly 1/4", Fraction(1, 4), lambda e: e.model.ace()),
        Claim(
            "Prop2: the unadjusted risk difference displays as 0.266",
            "0.266",
            lambda e: format_3dec(e.model.standardized_rd(())),
        ),
        Claim(
            "Prop2: the unadjusted risk difference is exactly 4/15",
            Fraction(4, 15),
            lambda e: e.model.standardized_rd(()),
        ),
        Claim(
            "Prop2: the risk difference given the proxy C2 displays as 0.269",
            "0.269",
            lambda e: format_3dec(e.model.standardized_rd(("C2",))),
        ),
        Claim(
            "Prop2: the risk difference given the proxy C2 is exactly 10475/38896",
            Fraction(10475, 38896),
            lambda e: e.model.standardized_rd(("C2",)),
        ),
        Claim(
            "Prop2: adjusting for C1 recovers the ace",
            Fraction(1, 4),
            lambda e: e.model.standardized_rd(("C1",)),
        ),
        Claim(
            "Prop2: adjusting for both covariates recovers the ace",
            Fraction(1, 4),
            lambda e: e.model.standardized_rd(("C1", "C2")),
        ),
        Claim(
            "Prop2: |bias| rises from 0.016 to 0.019 when C2 is added",
            ("0.016", "0.019"),
            lambda e: (
                format_3dec(abs(e.model.bias(()))),
                format_3dec(abs(e.model.bias(("C2",)))),
            ),
        ),
        Claim(
            "Prop2: the |bias| values are exactly 1/60 and 751/38896",
            (Fraction(1, 60), Fraction(751, 38896)),
            lambda e: (abs(e.model.bias(())), abs(e.model.bias(("C2",)))),
        ),
        Claim(
            "Prop2: C2 is a D2 confounder via the proxy path",
            (True, "A <- C2 <- C1 -> Y"),
            lambda e: _d2_text(e.dag, "C2"),
        ),
        Claim(
            "Prop2: C2 belongs to no minimal set",
            False,
            lambda e: classify_d4(e.dag, "C2")[0],
        ),
        Claim(
            "Prop2: no context makes C2 reduce |bias| (D5 false)",
            False,
            lambda e: classify_d5(e.model, "C2")[0],
        ),
        Claim(
            "Prop2: D2 fails Property 2A at C2",
            False,
            lambda e: check_property2a(e.dag, "D2", "C2").holds,
        ),
        Claim(
            "Prop2: D2 fails Property 2B at C2",
            False,
            lambda e: check_property2b(e.model, "D2", "C2").holds,
        ),
        Claim(
            "Prop2: the D2-positive set passes Property 1",
            True,
            lambda e: check_property1(e.dag, e.model, "D2").holds,
        ),
        Claim(
            "Prop2: D6 marks the proxy C2",
            True,
            lambda e: classify_d6(e.model, "C2")[0],
        ),
        Claim(
            "Prop2: D5 marks the true confounder C1",
            True,
            lambda e: classify_d5(e.model, "C1")[0],
        ),
    )


def _fig3_claims():
    return (
        Claim(
            "Prop3: one backdoor path, threading both covariates",
            ("A <- C2 <- C1 -> Y",),
            lambda e: _backdoors_text(e.dag),
        ),
        Claim(
            "Prop3: the minimal catalog is {{C1}, {C2}}",
            (("C1",), ("C2",)),
            lambda e: minimal_sufficient_sets(e.dag).sets,
        ),
        Claim(
            "Prop3: D3 marks nothing",
            (False, False),
            lambda e: tuple(classify_d3(e.dag, c) for c in ("C1", "C2")),
        ),
        Claim(
            "Prop3: D4 marks both covariates",
            (True, True),
            lambda e: tuple(classify_d4(e.dag, c)[0] for c in ("C1", "C2")),
        ),
        Claim(
            "Prop3: the (empty) D3-positive set fails Property 1",
            False,
            lambda e: check_property1(e.dag, e.model, "D3").holds,
        ),
        Claim(
            "Prop4: the D4-positive set passes Property 1",
            True,
            lambda e: check_property1(e.dag, e.model, "D4").holds,
        ),
        Claim(
            "Prop4: D4 passes Property 2A at C1 and at C2",
            (True, True),
            lambda e: tuple(check_property2a(e.dag, "D4", c).holds for c in ("C1", "C2")),
        ),
        Claim(
            "Prop4: the union of the minimal sets is sufficient",
            True,
            lambda e: is_sufficient(e.dag, minimal_sufficient_sets(e.dag).union).sufficient,
        ),
        Claim("Prop3: the ace is 2/5", Fraction(2, 5), lambda e: e.model.ace()),
        Claim(
            "Prop3: the unadjusted risk difference is 13/25",
            Fraction(13, 25),
            lambda e: e.model.standardized_rd(()),
        ),
        Claim(
            "Prop3: either covariate alone recovers the ace",
            (Fraction(2, 5), Fraction(2, 5)),
            lambda e: (e.model.standardized_rd(("C1",)), e.model.standardized_rd(("C2",))),
        ),
        Claim(
            "Prop3: C2 is exactly independent of Y given A and C1",
            True,
            lambda e: e.model.ci_test({"C2"}, {"Y"}, {"A", "C1"}),
        ),
        Claim(
            "Cond: C2 is not a conditional confounder given C1",
            (False, None),
            lambda e: conditional_confounder(e.dag, "C2", ("C1",)),
        ),
        Claim(
            "Cond: with nothing held fixed, conditional confounding reduces to D4",
            ((True, ()), (True, ())),
            lambda e: (
                conditional_confounder(e.dag, "C1"),
                conditional_confounder(e.dag, "C2"),
            ),
        ),
        Claim(
            "Cond: collapsing the chain into one covariate makes it a D3 confounder",
            True,
            lambda e: classify_d3(_collapsed_chain(), "C1"),
        ),
        Claim(
            "Prop3: the split test discards C2 on top of C1",
            (True, ((), ("C2",))),
            lambda e: robins_reduction(IndependenceOracle.graphical(e.dag), ("C1",), ("C2",)),
        ),
        Claim(
            "Prop3: backward selection from both covariates keeps C1",
            ("C1",),
            lambda e: backward_select(IndependenceOracle.graphical(e.dag), ("C1", "C2")).final,
        ),
        Claim(
            "Prop3: forward selection also lands on C1",
            ("C1",),
            lambda e: forward_select(IndependenceOracle.graphical(e.dag), ("C1", "C2")).final,
        ),
    )


def _fig4_claims():
    return (
        Claim(
            "Fig4: the only minimally sufficient set is {C1}",
            (("C1",),),
            lambda e: minimal_sufficient_sets(e.dag).sets,
        ),
        Claim(
            "Prop7: C2 satisfies D1 but not D2",
            (True, False),
            lambda e: (classify_d1_graphical(e.dag, "C2")[0], classify_d2(e.dag, "C2")[0]),
        ),
        Claim(
            "Fig4: C2 belongs to no minimal set",
            False,
            lambda e: classify_d4(e.dag, "C2")[0],
        ),
        Claim(
            "Prop5: adding C2 to the empty context strictly shrinks |bias|",
            (True, ((), (Fraction(122, 2583), Fraction(6, 119)))),
            lambda e: classify_d5(e.model, "C2"),
        ),
        Claim(
            "Prop5: D5 passes Property 2B at C2",
            True,
            lambda e: check_property2b(e.model, "D5", "C2").holds,
        ),
        Claim(
            "Prop5: D5 fails Property 2A at C2",
            False,
            lambda e: check_property2a(e.dag, "D5", "C2").holds,
        ),
        Claim(
            "Surrogate: C2 is a surrogate confounder and C1 is not",
            (True, False),
            lambda e: (surrogate_confounder(e.model, "C2"), surrogate_confounder(e.model, "C1")),
        ),
        Claim("Fig4: the ace is exactly -1/21", Fraction(-1, 21), lambda e: e.model.ace()),
        Claim(
            "Fig4: the unadjusted risk difference is exactly -5/51",
            Fraction(-5, 51),
            lambda e: e.model.standardized_rd(()),
        ),
        Claim(
            "Fig4: the risk difference given the surrogate C2 is exactly -35/369",
            Fraction(-35, 369),
            lambda e: e.model.standardized_rd(("C2",)),
        ),
        Claim(
            "Fig4: adjusting for C1 zeroes the bias, with or without C2",
            (Fraction(0), Fraction(0)),
            lambda e: (e.model.bias(("C1",)), e.model.bias(("C1", "C2"))),
        ),
        Claim("Fig4: D6 marks C2", True, lambda e: classify_d6(e.model, "C2")[0]),
        Claim(
            "Prop7: no solid-arrow violations despite the surrogate",
            (True, True),
            lambda e: tuple(
                classify_variable(e.dag, c, model=e.model).lattice_ok for c in ("C1", "C2")
            ),
        ),
    )


def _prop5_claims():
    return (
        Claim(
            "Prop5: the full joint puts 3/16 on (C=1, A=1, Y=1)",
            Fraction(3, 16),
            lambda e: e.model.joint_probability({"C": 1, "A": 1, "Y": 1}),
        ),
        Claim(
            "Prop5: E(Y | do(A=1)) = 3/10 by truncated factorization",
            Fraction(3, 10),
            lambda e: e.model.intervene("A", 1).cond_expectation("Y"),
        ),
        Claim(
            "Prop5: E(Y | do(A=0)) = 1/5 by truncated factorization",
            Fraction(1, 5),
            lambda e: e.model.intervene("A", 0).cond_expectation("Y"),
        ),
        Claim(
            "Prop5: the counterfactual means match the interventional ones",
            (Fraction(3, 10), Fraction(1, 5)),
            lambda e: (e.model.cf_joint(1).mean_y(), e.model.cf_joint(0).mean_y()),
        ),
        Claim(
            "Prop5: E(Y|A=1) = 2/5 and E(Y|A=0) = 3/10",
            (Fraction(2, 5), Fraction(3, 10)),
            lambda e: (
                e.model.cond_expectation("Y", {"A": 1}),
                e.model.cond_expectation("Y", {"A": 0}),
            ),
        ),
        Claim("Prop5: the ace is 1/10", Fraction(1, 10), lambda e: e.model.ace()),
        Claim(
            "Prop5: the unadjusted bias cancels to exactly zero",
            Fraction(0),
            lambda e: e.model.bias(()),
        ),
        Claim(
            "Prop5: yet the exposure stays counterfactually confounded at the empty set",
            False,
            lambda e: e.model.cf_unconfounded(()),
        ),
        Claim(
            "Prop5: adjusting for C restores counterfactual independence",
            True,
            lambda e: e.model.cf_unconfounded(("C",)),
        ),
        Claim(
            "Prop5: C satisfies D1 through D4",
            (True, True, True, True),
            lambda e: (
                classify_d1_graphical(e.dag, "C")[0],
                classify_d2(e.dag, "C")[0],
                classify_d3(e.dag, "C"),
                classify_d4(e.dag, "C")[0],
            ),
        ),
        Claim(
            "Prop5: exact dependence backs D1 numerically",
            True,
            lambda e: classify_d1_numeric(e.model, "C")[0],
        ),
        Claim(
            "Prop5: C fails D5 and D6",
            (False, False),
            lambda e: (classify_d5(e.model, "C")[0], classify_d6(e.model, "C")[0]),
        ),
        Claim(
            "Prop5: with the D5-positive set empty, Property 1 fails",
            False,
            lambda e: check_property1(e.dag, e.model, "D5").holds,
        ),
        Claim(
            "Prop6: with the D6-positive set empty here, Property 1 fails too",
            False,
            lambda e: check_property1(e.dag, e.model, "D6").holds,
        ),
        Claim(
            "Prop5: C is not a surrogate confounder",
            False,
            lambda e: surrogate_confounder(e.model, "C"),
        ),
        Claim(
            "Prop5: the minimal catalog is {{C}}",
            (("C",),),
            lambda e: minimal_sufficient_sets(e.dag).sets,
        ),
        Claim(
            "Prop5: P(Y=1) = 7/20",
            Fraction(7, 20),
            lambda e: e.model.cond_expectation("Y"),
        ),
        Claim(
            "Prop5: no solid-arrow violations",
            (True,),
            lambda e: (classify_variable(e.dag, "C", model=e.model).lattice_ok,),
        ),
    )


# (name, summary, claims), in registry order; each fixture stem is name.lower()
_ENTRIES = (
    ("Fig1", "m-structure; nothing needs adjustment, conditioning on the collider hurts",
     _fig1_claims),
    ("Fig2", "confounder with a descendant proxy; the proxy strictly worsens bias",
     _fig2_claims),
    ("Fig3", "two-step backdoor chain; two disjoint minimal adjustment sets", _fig3_claims),
    ("Fig4", "off-path surrogate whose adjustment shrinks but cannot remove bias",
     _fig4_claims),
    ("Prop5", "cancellation triangle: zero bias yet counterfactually confounded",
     _prop5_claims),
)

REGISTRY_NAMES = tuple(name for name, _, _ in _ENTRIES)


@lru_cache(maxsize=1)
def registry_entries():
    """The five frozen entries, fixtures parsed once per process."""
    return tuple(
        RegistryEntry(name, summary, *_load(name.lower()), expected=claims())
        for name, summary, claims in _ENTRIES
    )


def get_entry(name):
    for entry in registry_entries():
        if entry.name == name:
            return entry
    raise UnknownNode(f"no registry entry named {name!r}; have {REGISTRY_NAMES}")


def run_paper_suite():
    """Re-derive every frozen claim; mismatches come back as failing rows."""
    rows = []
    for entry in registry_entries():
        for claim in entry.expected:
            rows.append(claim.row(entry))
    return SuiteResult(tuple(rows))
