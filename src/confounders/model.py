"""Exact discrete probability over a Dag, in rational arithmetic.

A DiscreteModel attaches finite state spaces and CPTs to a Dag; the joint
factorizes over the graph. Everything downstream is computed by exact
marginalization with `fractions.Fraction`, so equality tests are honest
equalities: no tolerances anywhere.

Interventions follow truncated factorization (replace the node's CPT by a
point mass, drop its incoming edges). Counterfactual quantities are
confined to identified joints: for the exposure A, the joint of
(Y_a, A, W) with W the nondescendants of A is read off the joint of the
model under do(A=a), and conditional unconfoundedness Y_a ⟂ A | S is
tested inside it. The average causal effect is the difference of the two
counterfactual means, E(Y_1) - E(Y_0), taken from those same joints.

One loop multiplies CPT entries (`_product`); the joint, the intervened
joints and every quantity above are built from it. One loop sums a table
by some key entries (`_sum_by`); probabilities and risk differences read
the marginal table of their node set (`_margin`, one per set), and one
exact test (`_independent`) serves `ci_test` and `independent_given`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    BadProbability,
    IncompleteAssignment,
    ModelError,
    NonBinaryExposure,
    OverlappingSets,
    PositivityViolation,
    SizeLimit,
    UnknownNode,
    UnknownState,
    ZeroProbabilityCondition,
)

MAX_JOINT = 1 << 20


def _numeric_value(node, state):
    """The state as a number; expectations need int (or Fraction) states."""
    if isinstance(state, bool) or not isinstance(state, (int, Fraction)):
        raise ModelError(f"node {node!r} has non-numeric state {state!r}")
    return Fraction(state)


def _sum_by(items, positions):
    """{sub-key: total P} of (key, P) pairs, the sub-key being the key's
    entries at `positions`."""
    out = {}
    for key, p in items:
        sub = tuple([key[i] for i in positions])
        out[sub] = out[sub] + p if sub in out else p
    return out


def _independent(table, na, nb):
    """Exact test, in a table {key: P >= 0}, that the first `na` key
    entries are independent of the next `nb` given the rest.

    P(a, b, z) P(z) = P(a, z) P(b, z) is checked on the table's keys only.
    Where it holds on all of them, the right sides summed over the keys and
    over every cell with P(a, z) P(b, z) > 0 both give the sum of P(z)^2,
    so no such cell is missing from the table."""
    width = len(next(iter(table)))
    ab = na + nb
    p_z = _sum_by(table.items(), range(ab, width))
    p_az = _sum_by(table.items(), [*range(na), *range(ab, width)])
    p_bz = _sum_by(table.items(), range(na, width))
    return all(
        p * p_z[key[ab:]] == p_az[key[:na] + key[ab:]] * p_bz[key[na:]]
        for key, p in table.items()
    )


def as_fraction(value, where="probability"):
    """Coerce to Fraction; ints and 'p/q'/finite-decimal strings allowed,
    floats rejected (they rarely mean what their decimal print shows)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise BadProbability(f"{where}: bool is not a probability")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise BadProbability(
            f"{where}: float {value!r} not accepted; write the exact value as a string"
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadProbability(f"{where}: cannot parse {value!r} as a rational") from exc
    raise BadProbability(f"{where}: unsupported type {type(value).__name__}")


@dataclass(frozen=True)
class Cpt:
    """One node's conditional table.

    table maps a tuple of parent states (ordered by parent_order) to a
    probability vector aligned with the node's state list.
    """

    node: str
    parent_order: tuple[str, ...]
    table: dict


class DiscreteModel:
    """A Dag with exact CPTs. Immutable once constructed."""

    def __init__(self, dag, state_spaces, cpts):
        self.dag = dag
        spaces = {}
        for node in state_spaces:
            if node not in dag._index:
                raise UnknownNode(f"states given for unknown node {node!r}")
        for node in dag.nodes:
            if node not in state_spaces:
                raise ModelError(f"no state space for node {node!r}")
            states = tuple(state_spaces[node])
            if not states:
                raise ModelError(f"empty state space for node {node!r}")
            if len(set(states)) != len(states):
                raise ModelError(f"duplicate states for node {node!r}")
            spaces[node] = states
        self.state_spaces = spaces

        normalized = {}
        for node in cpts:
            if node not in dag._index:
                raise UnknownNode(f"cpt given for unknown node {node!r}")
        for node in dag.nodes:
            if node not in cpts:
                raise ModelError(f"no cpt for node {node!r}")
            normalized[node] = self._check_cpt(node, cpts[node])
        self.cpts = normalized

        self._joint = None
        self._margins = {}
        self._cf_cache = {}
        self._ace = None

    def _check_cpt(self, node, cpt):
        if isinstance(cpt, Cpt):
            parent_order, table = tuple(cpt.parent_order), cpt.table
        else:
            raise ModelError(f"cpt for {node!r} must be a Cpt, got {type(cpt).__name__}")
        if set(parent_order) != self.dag.parents(node) or len(set(parent_order)) != len(
            parent_order
        ):
            raise ModelError(
                f"cpt parents {parent_order!r} for {node!r} do not match the graph "
                f"parents {tuple(sorted(self.dag.parents(node)))!r}"
            )
        states = self.state_spaces[node]
        expected_keys = set(product(*(self.state_spaces[p] for p in parent_order)))
        fixed = {}
        for key, vector in table.items():
            key = tuple(key) if isinstance(key, (list, tuple)) else (key,)
            if key not in expected_keys:
                raise ModelError(f"cpt for {node!r}: unexpected parent combination {key!r}")
            if key in fixed:
                raise ModelError(f"cpt for {node!r}: duplicate parent combination {key!r}")
            vector = tuple(
                as_fraction(p, f"cpt {node!r} row {key!r}") for p in vector
            )
            if len(vector) != len(states):
                raise ModelError(
                    f"cpt for {node!r} row {key!r}: {len(vector)} entries for "
                    f"{len(states)} states"
                )
            for p in vector:
                if p < 0 or p > 1:
                    raise BadProbability(f"cpt for {node!r} row {key!r}: entry {p} out of [0,1]")
            if sum(vector) != 1:
                raise BadProbability(
                    f"cpt for {node!r} row {key!r}: entries sum to {sum(vector)}, not 1"
                )
            fixed[key] = vector
        missing = expected_keys - set(fixed)
        if missing:
            raise ModelError(
                f"cpt for {node!r}: missing parent combination {sorted(missing)[0]!r}"
            )
        return Cpt(node, parent_order, fixed)

    # -- state helpers ------------------------------------------------------

    def _require_state(self, node, value):
        if node not in self.dag._index:
            raise UnknownNode(f"unknown node {node!r}")
        if value not in self.state_spaces[node]:
            raise UnknownState(f"{value!r} is not a state of {node!r}")
        return value

    def _cpt_entry(self, node, own_state, assignment):
        cpt = self.cpts[node]
        key = tuple(assignment[p] for p in cpt.parent_order)
        return cpt.table[key][self.state_spaces[node].index(own_state)]

    def _product(self, assignment):
        """P of a full assignment: the product of one CPT entry per node,
        stopping at the first zero."""
        p = Fraction(1)
        for node in self.dag.nodes:
            p *= self._cpt_entry(node, assignment[node], assignment)
            if p == 0:
                break
        return p

    # -- joint table ---------------------------------------------------------

    def _joint_items(self):
        if self._joint is None:
            total = 1
            for node in self.dag.nodes:
                total *= len(self.state_spaces[node])
            if total > MAX_JOINT:
                raise SizeLimit(
                    f"joint state space has {total} assignments, over the cap of {MAX_JOINT}"
                )
            nodes = self.dag.nodes
            items = []
            for vals in product(*(self.state_spaces[n] for n in nodes)):
                p = self._product(dict(zip(nodes, vals)))
                if p != 0:
                    items.append((vals, p))
            self._joint = items
        return self._joint

    def _margin(self, nodes):
        """{states of `nodes`: P > 0}, one pass over the joint per node tuple."""
        if nodes not in self._margins:
            index = self.dag._index
            self._margins[nodes] = _sum_by(self._joint_items(), [index[n] for n in nodes])
        return self._margins[nodes]

    def probability(self, partial):
        """Exact marginal probability of a partial assignment."""
        for node, value in partial.items():
            self._require_state(node, value)
        nodes = tuple(sorted(partial, key=self.dag._index.__getitem__))
        return self._margin(nodes).get(tuple([partial[n] for n in nodes]), Fraction(0))

    # -- queries -------------------------------------------------------------

    def joint_probability(self, assignment):
        """P of a full assignment: the product of CPT rows."""
        missing = [n for n in self.dag.nodes if n not in assignment]
        if missing:
            raise IncompleteAssignment(f"assignment misses {missing[0]!r}")
        for node, value in assignment.items():
            self._require_state(node, value)
        return self._product(assignment)

    def cond_probability(self, event, given):
        den = self.probability(given)
        if den == 0:
            raise ZeroProbabilityCondition(f"conditioning event {given!r} has probability 0")
        overlap = set(event) & set(given)
        for node in overlap:
            if event[node] != given[node]:
                return Fraction(0)
        return self.probability({**given, **event}) / den

    def cond_expectation(self, target, given=None):
        """Exact E[target | given]; target's states must be numeric."""
        given = dict(given or {})
        if target not in self.dag._index:
            raise UnknownNode(f"unknown node {target!r}")
        den = self.probability(given)
        if den == 0:
            raise ZeroProbabilityCondition(f"conditioning event {given!r} has probability 0")
        if target in given:
            return _numeric_value(target, given[target])
        out = Fraction(0)
        for state in self.state_spaces[target]:
            value = _numeric_value(target, state)
            out += value * self.probability({**given, target: state})
        return out / den

    def ci_test(self, set_a, set_b, z=()):
        """Exact conditional independence of two node sets given a third."""
        set_a, set_b, z = sorted(set(set_a)), sorted(set(set_b)), sorted(set(z))
        flat = set_a + set_b + z
        if len(set(flat)) != len(flat):
            raise OverlappingSets("ci_test sets must be pairwise disjoint")
        for node in flat:
            if node not in self.dag._index:
                raise UnknownNode(f"unknown node {node!r}")
        if not set_a or not set_b:
            return True
        return _independent(self._margin(tuple(flat)), len(set_a), len(set_b))

    # -- interventions ---------------------------------------------------------

    def intervene(self, node, value):
        """Truncated factorization: point-mass CPT, incoming edges dropped."""
        self._require_state(node, value)
        states = self.state_spaces[node]
        point = Cpt(node, (), {(): tuple(Fraction(int(s == value)) for s in states)})
        cpts = {n: (point if n == node else c) for n, c in self.cpts.items()}
        return DiscreteModel(self.dag.without_edges_into(node), self.state_spaces, cpts)

    def _require_binary_exposure(self):
        if set(self.state_spaces[self.dag.exposure]) != {0, 1}:
            raise NonBinaryExposure(
                f"exposure {self.dag.exposure!r} must have states {{0, 1}}, "
                f"got {self.state_spaces[self.dag.exposure]!r}"
            )

    def ace(self):
        """E(Y_1) - E(Y_0): the difference of the counterfactual means.

        Every outcome state must be numeric, including states of
        probability zero, as for `cond_expectation`.
        """
        if self._ace is None:
            self._require_binary_exposure()
            outcome = self.dag.outcome
            for state in self.state_spaces[outcome]:
                _numeric_value(outcome, state)
            self._ace = self.cf_joint(1).mean_y() - self.cf_joint(0).mean_y()
        return self._ace

    def standardized_rd(self, covariates=()):
        """Risk difference standardized over strata of the covariates.

        Sum over x of P(x) * (E[Y | A=1, x] - E[Y | A=0, x]). Every stratum
        with positive probability must have both exposure arms represented.
        """
        self._require_binary_exposure()
        covariates = self.dag._require_pool(covariates)
        a, y = self.dag.exposure, self.dag.outcome
        cells = self._margin(covariates + (a, y))
        arms = _sum_by(cells.items(), range(len(covariates) + 1))
        out = Fraction(0)
        for x in product(*(self.state_spaces[n] for n in covariates)):
            p_arm = [arms.get(x + (arm,), 0) for arm in (0, 1)]
            if not any(p_arm):
                continue
            for arm in (0, 1):
                if p_arm[arm] == 0:
                    raise PositivityViolation(
                        f"stratum {dict(zip(covariates, x))!r}: P({a}={arm}, stratum) = 0"
                    )
            # sums[a] = sum over y of y * P(x, a, y), so E[Y | a, x] = sums[a] / P(x, a)
            sums = [Fraction(0), Fraction(0)]
            for state in self.state_spaces[y]:
                value = _numeric_value(y, state)
                for arm in (0, 1):
                    sums[arm] += value * cells.get(x + (arm, state), 0)
            out += (p_arm[0] + p_arm[1]) * (sums[1] / p_arm[1] - sums[0] / p_arm[0])
        return out

    def bias(self, covariates=()):
        """standardized_rd minus ace; signed."""
        return self.standardized_rd(covariates) - self.ace()

    # -- identified counterfactual joint ---------------------------------------

    def cf_joint(self, a):
        """Joint of (Y_a, A, W), W = nondescendants of the exposure.

        P(Y_a=y, A=a', W=w) = P(w) * P(a' | pa_A(w)) * Q(y | do(A=a), w).
        The joint of the model under do(A=a) already holds
        P(w) * Q(y | do(A=a), w): W is ancestrally closed and holds neither
        A nor a descendant of A, so its CPTs, and the parents pa_A ⊆ W, are
        untouched by the intervention, and summing the remaining nodes out
        leaves Q. One pass over that joint, with each entry multiplied by
        the exposure's own CPT row P(a' | pa_A), gives the table; an
        outcome inside W needs no special case.
        """
        self._require_binary_exposure()
        self._require_state(self.dag.exposure, a)
        if a in self._cf_cache:
            return self._cf_cache[a]
        dag = self.dag
        w_set = dag.nondescendants(dag.exposure)
        w_idx = [i for i, n in enumerate(dag.nodes) if n in w_set]
        a_cpt = self.cpts[dag.exposure]
        pa_idx = [dag._index[n] for n in a_cpt.parent_order]
        y_idx = dag._index[dag.outcome]
        a_states = self.state_spaces[dag.exposure]
        cells = (
            ((vals[y_idx], a_prime, tuple([vals[i] for i in w_idx])), p * pa)
            for vals, p in self.intervene(dag.exposure, a)._joint_items()
            for a_prime, pa in zip(a_states, a_cpt.table[tuple([vals[i] for i in pa_idx])])
            if pa != 0
        )
        table = _sum_by(cells, range(3))
        w_nodes = tuple(dag.nodes[i] for i in w_idx)
        joint = CounterfactualJoint(a, dag.exposure, dag.outcome, w_nodes, table)
        self._cf_cache[a] = joint
        return joint

    def cf_unconfounded(self, covariates=()):
        """True iff Y_a ⟂ A | covariates inside cf_joint, for both arms."""
        covariates = self.dag._require_pool(covariates)
        return all(
            self.cf_joint(arm).independent_given(covariates)
            for arm in self.state_spaces[self.dag.exposure]
        )


@dataclass(frozen=True)
class CounterfactualJoint:
    """Distribution of (Y_a, A, W): keys (y, a_observed, w_states)."""

    a: object
    exposure: str
    outcome: str
    w_nodes: tuple[str, ...]
    table: dict

    def total(self):
        return sum(self.table.values(), Fraction(0))

    def marginal_y(self):
        return {y: p for (y,), p in _sum_by(self.table.items(), (0,)).items()}

    def mean_y(self):
        """E(Y_a); every outcome state in the table must be numeric."""
        return sum(
            (_numeric_value(self.outcome, y) * p for y, p in self.marginal_y().items()),
            Fraction(0),
        )

    def independent_given(self, covariates):
        """Exact test of Y_a ⟂ A | covariates (covariates ⊆ W)."""
        covariates = sorted(set(covariates))
        for name in covariates:
            if name not in self.w_nodes:
                raise UnknownNode(f"{name!r} is not among the joint's covariates")
        flat = (((y, a_obs, *w), p) for (y, a_obs, w), p in self.table.items())
        positions = [0, 1] + [2 + self.w_nodes.index(name) for name in covariates]
        return _independent(_sum_by(flat, positions), 1, 1)
