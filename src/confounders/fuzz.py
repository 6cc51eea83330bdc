"""Randomized verification of the theorems the package relies on.

Each trial draws a DAG (random topological order, independent edge
coin-flips, exposure and outcome placed so a directed path joins them)
and, optionally, random strictly-positive binary CPTs with denominators
up to 64. On every draw the checker re-proves, building no witness:

  hard (a failure is an implementation bug):
    - the union of all minimally sufficient sets is itself sufficient
    - every minimal set lives inside ancestors(A) u ancestors(Y)
    - the solid implication arrows D3=>D4=>D2, D4=>D1, D3=>D1 per covariate
    - the D1-positive set and the D2-positive set are each sufficient
    with models:
    - sufficiency implies counterfactual unconfoundedness (every subset)
    - the standardized risk difference equals the ace on every sufficient
      subset
    - the solid model arrows D5=>D6, D6=>D1, D5=>D1 (D1 numeric)

  counted, never failed (these CAN happen and the counts are the data):
    - dashed-arrow violations per arrow
    - covariates whose graphical and numeric D1 verdicts disagree
    - DAGs where the D3-positive set is insufficient
    - DAGs where the set of covariates with a distinguishing context
      (the 2A predicate read as a definition) is insufficient
    - subsets that are counterfactually unconfounded yet not sufficient
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from numbers import Real

from .adjust import (
    _sufficiency_vector,
    _sufficient,
    minimal_sufficient_sets,
    subsets_canonical,
)
from .classify import (
    DASHED_EDGES,
    SOLID_MODEL_EDGES,
    _TABLE,
    _broken_arrows,
    _dashed_arrows,
    _definitions,
    classify_d1_numeric,
)
from .errors import InvalidConfig
from .graph import Dag
from .model import Cpt, DiscreteModel
from .properties import _distinguishing_lanes

MAX_FUZZ_NODES = 10
MAX_DENOMINATOR = 64
_PLACEMENT_ATTEMPTS = 10000

_COUNTER_KEYS = (
    "cf_unconfounded_insufficient",
    "d1_graphical_numeric_gaps",
    "p1_d3_failures",
    "p2a_as_definition_p1_failures",
) + tuple(f"dashed_{p}_to_{q}" for p, q in DASHED_EDGES)


@dataclass(frozen=True)
class FuzzConfig:
    n_nodes: int
    edge_prob: float
    n_trials: int
    seed: int
    with_models: bool = False

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidConfig("seed is mandatory and must be an int")
        if not isinstance(self.n_nodes, int) or not 2 <= self.n_nodes <= MAX_FUZZ_NODES:
            raise InvalidConfig(f"n_nodes must be an int in [2, {MAX_FUZZ_NODES}]")
        if isinstance(self.n_trials, bool) or not isinstance(self.n_trials, int) or self.n_trials < 0:
            raise InvalidConfig("n_trials must be a nonnegative int")
        if isinstance(self.edge_prob, bool) or not isinstance(self.edge_prob, Real):
            raise InvalidConfig("edge_prob must be a real number")
        if not 0 < self.edge_prob <= 1:
            raise InvalidConfig("edge_prob must lie in (0, 1]")


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    trials: int
    hard_failures: tuple[str, ...]
    counters: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.hard_failures

    def to_text(self):
        lines = [
            f"fuzz: seed={self.config.seed} n_nodes={self.config.n_nodes} "
            f"edge_prob={self.config.edge_prob} n_trials={self.config.n_trials} "
            f"with_models={self.config.with_models}",
            f"trials: {self.trials}",
            f"hard_failures: {len(self.hard_failures)}",
        ]
        for key in sorted(self.counters):
            lines.append(f"counter {key}: {self.counters[key]}")
        lines.extend(f"FAIL {line}" for line in self.hard_failures)
        return "\n".join(lines) + "\n"

    def to_json(self):
        doc = {
            "config": {
                "n_nodes": self.config.n_nodes,
                "edge_prob": self.config.edge_prob,
                "n_trials": self.config.n_trials,
                "seed": self.config.seed,
                "with_models": self.config.with_models,
            },
            "trials": self.trials,
            "hard_failures": list(self.hard_failures),
            "counters": dict(sorted(self.counters.items())),
            "ok": self.ok,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def random_dag(rng, n_nodes, edge_prob):
    """One random DAG with a guaranteed directed exposure-outcome path.

    Draws a topological order, flips a coin per forward pair, places
    exposure and outcome at random, and redraws until the outcome
    descends from the exposure. The edges come out sorted by their
    sources' places in the order, so one pass over them, growing the set
    reached from the exposure, finds its descendants, and only the draw
    that is kept is built into a Dag, without the constructor's checks,
    which a forward-edge draw passes.
    """
    names = [f"V{i}" for i in range(n_nodes)]
    for _ in range(_PLACEMENT_ATTEMPTS):
        order = rng.sample(names, n_nodes)
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < edge_prob:
                    edges.append((order[i], order[j]))
        exposure, outcome = rng.sample(names, 2)
        reached = {exposure}
        for u, v in edges:
            if u in reached:
                reached.add(v)
        if outcome in reached:
            return Dag._trusted(tuple(names), tuple(edges), exposure, outcome)
    raise InvalidConfig(
        "could not draw a DAG with a directed exposure-outcome path; raise edge_prob"
    )


def random_model(rng, dag):
    """Strictly positive binary CPTs with rational entries num/den, den <=
    MAX_DENOMINATOR; positivity holds by construction. Every row sums to 1
    and lists the node's sorted parents, so the model is built without the
    constructor's checks."""
    spaces = {name: (0, 1) for name in dag.nodes}
    cpts = {}
    for node in dag.nodes:
        parents = tuple(sorted(dag.parents(node)))
        table = {}
        for key in product((0, 1), repeat=len(parents)):
            den = rng.randint(2, MAX_DENOMINATOR)
            num = rng.randint(1, den - 1)
            table[key] = (Fraction(den - num, den), Fraction(num, den))
        cpts[node] = Cpt(node, parents, table)
    return DiscreteModel._trusted(dag, spaces, cpts)


def _run_trial(index, dag, model, failures, counters):
    def fail(msg):
        failures.append(f"trial {index}: {msg}")

    pool = dag.covariate_pool
    catalog = minimal_sufficient_sets(dag)

    anc = dag.ancestors(dag.exposure) | dag.ancestors(dag.outcome)
    for s in catalog.sets:
        stray = set(s) - anc
        if stray:
            fail(f"minimal set {s} reaches outside the ancestor hull via {sorted(stray)}")
    if not _sufficient(dag, catalog.union):
        fail(f"union of minimal sets {catalog.union} is not sufficient")

    has_model = model is not None
    defs = _definitions(None, has_model)
    verdicts = {c: {d: _TABLE[d].holds(dag, model, c) for d in defs} for c in pool}
    numeric_failures = []
    for c in pool:
        d1_numeric = classify_d1_numeric(model, c)[0] if has_model else None
        for arrow in _broken_arrows(verdicts[c], d1_numeric):
            if tuple(arrow.split("=>")) in SOLID_MODEL_EDGES:
                numeric_failures.append(f"solid arrow {arrow} broken at {c} (numeric layer)")
            else:
                fail(f"solid arrow {arrow} broken at {c}")
        for arrow in _dashed_arrows(verdicts[c]):
            counters["dashed_" + arrow.replace("->", "_to_")] += 1
        if has_model and d1_numeric != verdicts[c]["D1"]:
            counters["d1_graphical_numeric_gaps"] += 1

    for def_id in ("D1", "D2"):
        marked = tuple(c for c in pool if verdicts[c][def_id])
        if not _sufficient(dag, marked):
            fail(f"{def_id}-positive set {marked} is not sufficient")

    d3_marked = tuple(c for c in pool if verdicts[c]["D3"])
    if not _sufficient(dag, d3_marked):
        counters["p1_d3_failures"] += 1

    p2a_marked = tuple(c for i, c in enumerate(pool) if _distinguishing_lanes(dag, i))
    if not _sufficient(dag, p2a_marked):
        counters["p2a_as_definition_p1_failures"] += 1

    if not has_model:
        return

    ace = model.ace()
    lanes = _sufficiency_vector(dag)
    lane_of = {c: 1 << i for i, c in enumerate(pool)}
    for subset in subsets_canonical(pool):
        sufficient = lanes >> sum(lane_of[c] for c in subset) & 1
        unconfounded = model._cf_unconfounded(subset)
        if sufficient:
            if not unconfounded:
                fail(f"sufficient set {subset} is counterfactually confounded")
            if model._rd_of(subset) != ace:
                fail(f"standardized rd over sufficient {subset} misses the ace")
        elif unconfounded:
            counters["cf_unconfounded_insufficient"] += 1

    for msg in numeric_failures:
        fail(msg)


def fuzz(config):
    """Run the randomized checker; deterministic for a fixed config."""
    if not isinstance(config, FuzzConfig):
        config = FuzzConfig(**config)
    rng = random.Random(config.seed)
    failures = []
    counters = {key: 0 for key in _COUNTER_KEYS}
    trials = 0
    for index in range(config.n_trials):
        dag = random_dag(rng, config.n_nodes, config.edge_prob)
        model = random_model(rng, dag) if config.with_models else None
        _run_trial(index, dag, model, failures, counters)
        trials += 1
    return FuzzReport(config=config, trials=trials, hard_failures=tuple(failures), counters=counters)
