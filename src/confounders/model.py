"""Exact discrete probability over a Dag, in integer arithmetic.

A DiscreteModel attaches finite state spaces and CPTs to a Dag; the joint
factorizes over the graph. CPT entries are given as rationals. Each node's
table is scaled by the LCM of its entries' denominators, taken over all of
its rows, so every entry becomes an integer weight and the joint has one
denominator: the product of those LCMs. Everything downstream is exact
integer marginalization over that denominator, so equality tests are
honest equalities: no tolerances anywhere. Weights turn into
`fractions.Fraction` only at the public boundary (`probability`,
`joint_probability`, `cond_*`, `standardized_rd`, `ace` and the views of
`CounterfactualJoint`).

Interventions follow truncated factorization (replace the node's CPT by a
point mass, drop its incoming edges). Counterfactual quantities are
confined to identified joints: for the exposure A, the joint of
(Y_a, A, W) with W the nondescendants of A is the joint of the
single-world intervention graph of do(A=a) (Richardson & Robins, 2013).
That graph is an ordinary model (`_swig`), so each counterfactual
question is a query of it: Y_a ⟂ A | S reads its table (below), E(Y_a)
is `cond_expectation`, and the average causal effect is E(Y_1) - E(Y_0).
Intervened and single-world models are derived from a checked model
(`_derived`): same state spaces and key layout, CPTs and integer rows
reused, nothing checked twice. The fuzzer's draws are valid by
construction and skip the checks as well (`_trusted`).

One loop multiplies integer CPT entries (`_joint_items`), with no modes:
it walks the Dag in topological order and grows every partial assignment
by one node, its weight times the entry of the row its parents select, so
a zero entry drops everything below it. `joint_probability` is the
product of one entry per node. Tables are keyed by one packed int per
assignment, a bit field per node (see `__init__`), so restricting a key
to a node set is `key & mask`, and CPT rows are keyed by the packed key of
their parent states. One loop sums a table by a mask (`_sum_by`);
probabilities read the marginal table of their node set (`_margin`, one
per mask, so one per set of nodes whatever order it is asked in), and one
exact test (`_independent`) serves `ci_test` and numeric D1.

Risk differences and counterfactual tests ask about many covariate sets
of one model, so each model sums its joint once more, into one table:
the observed model's `_rd_cells` holds [w0, s0, w1, s1] per cell of the
covariate pool (arm weights and outcome-weighted sums), and a
single-world model's `_arm_cells` holds the weights at A=0 and A=1 per
cell of (Y, W), keyed by all of W since `independent_given` takes any
subset of it. A
standardized risk difference is then one integer pass over the first
and one `Fraction`, and a test of Y_a ⟂ A | S one pass over the second.
Each covariate set's risk difference and its |bias| are computed once
per model and kept, a positivity violation included.

The public methods check their arguments and then call unchecked helpers
(`_ci`, `_rd_of`, `_abs_bias`, `_cf_joint`, `_cf_unconfounded`); the
package's own scans (numeric D1, D5, D6, the fuzzer's subset loop) pass
names they have already checked and call the helpers directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import lcm, prod

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
    return state


def _sum_by(items, mask):
    """{key & mask: total weight} of (packed key, weight) pairs."""
    out = {}
    get = out.get
    for key, p in items:
        k = key & mask
        out[k] = get(k, 0) + p
    return out


def _independent(table, ma, mb, mz):
    """Exact test, in a table {packed key: weight >= 0} over the fields of
    `ma | mb | mz`, that the fields of `ma` are independent of those of
    `mb` given those of `mz`.

    P(a, b, z) P(z) = P(a, z) P(b, z) is checked on the table's keys only;
    both sides are products of two weights, so the table's denominator
    cancels. Where it holds on all of them, the right sides summed over the
    keys and over every cell with P(a, z) P(b, z) > 0 both give the sum of
    P(z)^2, so no such cell is missing from the table."""
    maz, mbz = ma | mz, mb | mz
    p_z = _sum_by(table.items(), mz)
    p_az = _sum_by(table.items(), maz)
    p_bz = _sum_by(table.items(), mbz)
    return all(p * p_z[k & mz] == p_az[k & maz] * p_bz[k & mbz] for k, p in table.items())


def _kept(table, covariates, compute):
    """compute(covariates), kept in `table` per covariate set; a
    PositivityViolation is kept as its message and raised again."""
    out = table.get(covariates)
    if out is None:
        try:
            out = compute(covariates)
        except PositivityViolation as exc:
            out = str(exc)
        table[covariates] = out
    if isinstance(out, str):
        raise PositivityViolation(out)
    return out


def as_fraction(value, where="probability"):
    """Coerce to Fraction; ints and 'p/q'/finite-decimal strings allowed,
    floats rejected (they rarely mean what their decimal print shows), and
    so is exponent notation."""
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
            if "e" in value.lower():  # Fraction would expand an exponent of any size
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadProbability(f"{where}: cannot parse {value!r} as a rational") from exc
    raise BadProbability(f"{where}: unsupported type {type(value).__name__}")


def _text(value):
    """str(value), or a stand-in when it has more digits than str() writes."""
    try:
        return str(value)
    except ValueError:
        return "a number too long to print"


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
        self._layout(spaces)

        normalized = {}
        for node in cpts:
            if node not in dag._index:
                raise UnknownNode(f"cpt given for unknown node {node!r}")
        for node in dag.nodes:
            if node not in cpts:
                raise ModelError(f"no cpt for node {node!r}")
            normalized[node] = self._check_cpt(node, cpts[node])
        self._setup(normalized, {node: self._integer_rows(c) for node, c in normalized.items()})

    @classmethod
    def _trusted(cls, dag, state_spaces, cpts):
        """The model the constructor builds from these arguments, with
        nothing checked: the caller vouches that they would pass the checks
        unchanged, as `fuzz.random_model`'s draws do by construction (state
        spaces are tuples; each Cpt lists the node's parents and one row of
        Fractions per parent state tuple, keyed in product order)."""
        model = cls.__new__(cls)
        model.dag = dag
        model._layout(state_spaces)
        model._setup(cpts, {node: model._integer_rows(c) for node, c in cpts.items()})
        return model

    def _layout(self, spaces):
        """Set the state spaces and the key layout: each node, in Dag node
        order, owns a field of `(len(states) - 1).bit_length()` bits that
        holds the index of its state; `_codes[node][state]` is that index
        shifted into the field, `_fields[node]` the field's mask (0 for a
        one-state node), and a key is the sum of its nodes' codes."""
        self.state_spaces = spaces
        self._fields, self._codes, shift = {}, {}, 0
        for node in self.dag.nodes:
            width = (len(spaces[node]) - 1).bit_length()
            self._fields[node] = ((1 << width) - 1) << shift
            self._codes[node] = {state: i << shift for i, state in enumerate(spaces[node])}
            shift += width

    def _integer_rows(self, cpt):
        """(scale, {packed parent key: ((code, weight > 0), ...)}): the table
        times the LCM of its entries' denominators, taken over all of its
        rows, each row keyed by the packed key of its parent states and
        holding the node's codes beside their nonzero integer weights."""
        scale = lcm(*(p.denominator for row in cpt.table.values() for p in row))
        parents = [self._codes[q] for q in cpt.parent_order]
        codes = self._codes[cpt.node].values()
        rows = {}
        for key, row in cpt.table.items():
            rows[sum([c[s] for c, s in zip(parents, key)])] = tuple(
                [(code, p.numerator * (scale // p.denominator)) for code, p in zip(codes, row) if p]
            )
        return scale, rows

    def _setup(self, cpts, rows):
        """Attach checked CPTs and their integer rows ({node: (scale, rows)},
        see `_integer_rows`) to a model whose dag, state spaces and key
        layout are set."""
        self.cpts = cpts
        self._rows = rows
        self._den = prod(scale for scale, _ in rows.values())
        # one step per node in topological order: its field, the mask of
        # its parents' fields and its rows
        self._steps = [
            (self._fields[node], self._mask(cpts[node].parent_order), rows[node][1])
            for node in self.dag.topological_order
        ]
        self._joint = None
        self._margins = {}
        self._rd_table = None
        self._arm_table = None
        self._rd = {}
        self._abs_biases = {}
        self._cf_cache = {}
        self._ace = None

    def _derived(self, dag, cpts, rows):
        """A model on `dag`, whose nodes are among this model's, from CPTs
        and integer rows already checked, with this model's state spaces
        (so its joint's cap) and key layout; nothing is checked again."""
        model = DiscreteModel.__new__(DiscreteModel)
        model.dag, model.state_spaces = dag, self.state_spaces
        model._fields, model._codes = self._fields, self._codes
        model._setup(cpts, rows)
        return model

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
            # a Fraction's denominator is positive, so the checks run on
            # integers: each entry in [0, 1], and the row summed over the
            # LCM of its denominators
            for p in vector:
                if not 0 <= p.numerator <= p.denominator:
                    raise BadProbability(
                        f"cpt for {node!r} row {key!r}: entry {_text(p)} out of [0,1]"
                    )
            scale = lcm(*[p.denominator for p in vector])
            if sum([p.numerator * (scale // p.denominator) for p in vector]) != scale:
                raise BadProbability(
                    f"cpt for {node!r} row {key!r}: entries sum to {_text(sum(vector))}, not 1"
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

    # -- joint table ---------------------------------------------------------

    def _mask(self, names):
        """The OR of the fields of `names`."""
        mask = 0
        for name in names:
            mask |= self._fields[name]
        return mask

    def _key(self, partial):
        """The packed key of a partial assignment {node: state}."""
        return sum([self._codes[node][value] for node, value in partial.items()])

    def _joint_items(self):
        """[(packed key, integer weight > 0)] of every full assignment, grown
        one node at a time in topological order: each partial key is
        extended by the node's codes, weighted by the row its parents'
        fields select (`key & parent mask`). A zero entry is not in its
        row, so it drops every assignment below it."""
        if self._joint is None:
            total = prod(len(states) for states in self.state_spaces.values())
            if total > MAX_JOINT:
                raise SizeLimit(
                    f"joint state space has {total} assignments, over the cap of {MAX_JOINT}"
                )
            items = [(0, 1)]
            for _, pmask, rows in self._steps:
                items = [(key | c, w * p) for key, w in items for c, p in rows[key & pmask]]
            self._joint = items
        return self._joint

    def _margin(self, names):
        """{packed key over the fields of `names`: weight > 0}. The joint is
        summed once per mask, so once per node set whatever order the
        names come in."""
        mask = self._mask(names)
        table = self._margins.get(mask)
        if table is None:
            table = self._margins[mask] = _sum_by(self._joint_items(), mask)
        return table

    def _weight(self, partial):
        """Weight of a partial assignment, over the joint's denominator."""
        for node, value in partial.items():
            self._require_state(node, value)
        return self._margin(partial).get(self._key(partial), 0)

    def probability(self, partial):
        """Exact marginal probability of a partial assignment."""
        return Fraction(self._weight(partial), self._den)

    # -- queries -------------------------------------------------------------

    def joint_probability(self, assignment):
        """P of a full assignment: the product of one CPT entry per node."""
        missing = [n for n in self.dag.nodes if n not in assignment]
        if missing:
            raise IncompleteAssignment(f"assignment misses {missing[0]!r}")
        for node, value in assignment.items():
            self._require_state(node, value)
        key = self._key(assignment)
        weight = prod(dict(rows[key & pmask]).get(key & field, 0) for field, pmask, rows in self._steps)
        return Fraction(weight, self._den)

    def cond_probability(self, event, given):
        for node, value in event.items():
            self._require_state(node, value)
        den = self._weight(given)
        if den == 0:
            raise ZeroProbabilityCondition(f"conditioning event {given!r} has probability 0")
        overlap = set(event) & set(given)
        for node in overlap:
            if event[node] != given[node]:
                return Fraction(0)
        return Fraction(self._weight({**given, **event}), den)

    def cond_expectation(self, target, given=None):
        """Exact E[target | given]; target's states must be numeric."""
        given = dict(given or {})
        if target not in self.dag._index:
            raise UnknownNode(f"unknown node {target!r}")
        den = self._weight(given)
        if den == 0:
            raise ZeroProbabilityCondition(f"conditioning event {given!r} has probability 0")
        if target in given:
            return Fraction(_numeric_value(target, given[target]))
        out = 0
        for state in self.state_spaces[target]:
            value = _numeric_value(target, state)
            out += value * self._weight({**given, target: state})
        return Fraction(out, den)

    def ci_test(self, set_a, set_b, z=()):
        """Exact conditional independence of two node sets given a third."""
        set_a, set_b, z = sorted(set(set_a)), sorted(set(set_b)), sorted(set(z))
        flat = tuple(set_a + set_b + z)
        if len(set(flat)) != len(flat):
            raise OverlappingSets("ci_test sets must be pairwise disjoint")
        for node in flat:
            if node not in self.dag._index:
                raise UnknownNode(f"unknown node {node!r}")
        if not set_a or not set_b:
            return True
        return self._ci(set_a, set_b, z)

    def _ci(self, set_a, set_b, z):
        """ci_test of three disjoint name sequences, unchecked; both sides
        nonempty."""
        return _independent(
            self._margin((*set_a, *set_b, *z)), self._mask(set_a), self._mask(set_b), self._mask(z)
        )

    # -- interventions ---------------------------------------------------------

    def intervene(self, node, value):
        """Truncated factorization: point-mass CPT, incoming edges dropped.

        The other CPTs and their integer rows were checked when this model
        was built, so the intervened model reuses them as they are."""
        self._require_state(node, value)
        row = tuple(int(s == value) for s in self.state_spaces[node])
        point = Cpt(node, (), {(): tuple(Fraction(w) for w in row)})
        return self._derived(
            self.dag.without_edges_into(node),
            {**self.cpts, node: point},
            {**self._rows, node: (1, {0: ((self._codes[node][value], 1),)})},
        )

    def _require_binary_exposure(self):
        if set(self.state_spaces[self.dag.exposure]) != {0, 1}:
            raise NonBinaryExposure(
                f"exposure {self.dag.exposure!r} must have states {{0, 1}}, "
                f"got {self.state_spaces[self.dag.exposure]!r}"
            )

    def _outcome_values(self):
        """The outcome's states as numbers; ModelError at the first that is not."""
        outcome = self.dag.outcome
        return [_numeric_value(outcome, state) for state in self.state_spaces[outcome]]

    def ace(self):
        """E(Y_1) - E(Y_0): the difference of the counterfactual means.

        Every outcome state must be numeric, including states of
        probability zero, as for `cond_expectation`.
        """
        if self._ace is None:
            self._require_binary_exposure()
            self._outcome_values()  # checked before any joint is built
            self._ace = self._cf_joint(1).mean_y() - self._cf_joint(0).mean_y()
        return self._ace

    def standardized_rd(self, covariates=()):
        """Risk difference standardized over strata of the covariates.

        Sum over x of P(x) * (E[Y | A=1, x] - E[Y | A=0, x]). Every stratum
        with positive probability must have both exposure arms represented.
        Each covariate set is answered once per model: the value, or the
        message of its PositivityViolation, is kept for the next call.
        """
        self._require_binary_exposure()
        return self._rd_of(self.dag._require_pool(covariates))

    def _rd_of(self, covariates):
        """standardized_rd of a sorted pool tuple, unchecked, kept per set."""
        return _kept(self._rd, covariates, self._standardized_rd)

    def _abs_bias(self, covariates):
        """|bias| of a sorted pool tuple, unchecked, kept per set."""
        return _kept(self._abs_biases, covariates, lambda c: abs(self._rd_of(c) - self.ace()))

    @cached_property
    def _rd_outcome(self):
        """(numeric, d, slots) of `_standardized_rd`, once per model: are all
        outcome states numeric (if not, each counts as 0), d the LCM of
        their denominators, and `slots`, which maps the exposure's and
        outcome's fields of a cell to its slot in the stratum's
        [w0, s0, w1, s1] and its outcome value times d."""
        a, y = self.dag.exposure, self.dag.outcome
        try:
            values, numeric = self._outcome_values(), True
        except ModelError:
            values, numeric = [0] * len(self.state_spaces[y]), False
        d = lcm(*[v.denominator for v in values])
        a1 = self._codes[a][1]
        slots = {
            arm | code: (2 * (arm == a1), v.numerator * (d // v.denominator))
            for arm in self._codes[a].values()
            for code, v in zip(self._codes[y].values(), values)
        }
        return numeric, d, slots

    @cached_property
    def _rd_defined(self):
        """Whether every covariate set's risk difference is defined, so that
        `_standardized_rd` cannot raise: the outcome's states are numeric
        and every CPT entry is positive (each integer row holds one entry
        per state), so every stratum has both arms. The exposure must be
        binary."""
        spaces = self.state_spaces
        return self._rd_outcome[0] and all(
            len(row) == len(spaces[node])
            for node, (_, rows) in self._rows.items()
            for row in rows.values()
        )

    def _rd_cells(self):
        """{packed key over the covariate pool: [w0, s0, w1, s1]}, summed
        once per model from the joint: per pool cell and arm a, the weight
        w_a and s_a = sum over y of y' w(cell, a, y), y' the outcome's state
        times d (see `_rd_outcome`). Every risk difference reads it; the
        exposure must be binary."""
        if self._rd_table is None:
            a, y, fields = self.dag.exposure, self.dag.outcome, self._fields
            slots = self._rd_outcome[2]
            pmask, aymask = self._mask(self.dag.covariate_pool), fields[a] | fields[y]
            table = {}
            for key, p in _sum_by(self._joint_items(), pmask | aymask).items():
                i, v = slots[key & aymask]
                t = table.get(key & pmask)
                if t is None:
                    t = table[key & pmask] = [0, 0, 0, 0]
                t[i] += p
                t[i + 1] += p * v
            self._rd_table = table
        return self._rd_table

    def _standardized_rd(self, covariates):
        """standardized_rd of a sorted pool tuple, uncached, in one pass
        over `_rd_cells`, which sums its cells into strata x.

        A stratum adds (w0 + w1) (s1 w0 - s0 w1) / (w0 w1); over L, the LCM
        of the strata's w0 w1, the numerators are integers, and the sum is
        one Fraction over L d and the joint's denominator. A failed check
        is reported at its first stratum in the order of the covariates'
        state products."""
        a, fields = self.dag.exposure, self._fields
        numeric, d, _ = self._rd_outcome
        xmask = self._mask(covariates)
        strata = {}
        for key, (w0, s0, w1, s1) in self._rd_cells().items():
            t = strata.get(key & xmask)
            if t is None:
                strata[key & xmask] = [w0, s0, w1, s1]
            else:
                t[0] += w0
                t[1] += s0
                t[2] += w1
                t[3] += s1
        if not numeric or not all(t[0] and t[2] for t in strata.values()):
            # strata keys compare field by field as their state indices do
            failed = strata if not numeric else [x for x, t in strata.items() if not (t[0] and t[2])]
            first = min(failed, key=lambda x: [x & fields[n] for n in covariates])
            w0, _, w1, _ = strata[first]
            if w0 and w1:
                self._outcome_values()  # raises the ModelError of the first non-numeric state
            stratum = {
                n: next(s for s, c in self._codes[n].items() if c == first & fields[n])
                for n in covariates
            }
            raise PositivityViolation(f"stratum {stratum!r}: P({a}={int(bool(w0))}, stratum) = 0")
        scale = lcm(*[t[0] * t[2] for t in strata.values()])
        num = sum(
            [
                (w0 + w1) * (s1 * w0 - s0 * w1) * (scale // (w0 * w1))
                for w0, s0, w1, s1 in strata.values()
            ]
        )
        return Fraction(num, scale * d * self._den)

    def bias(self, covariates=()):
        """standardized_rd minus ace; signed."""
        return self.standardized_rd(covariates) - self.ace()

    # -- identified counterfactual joint ---------------------------------------

    def cf_joint(self, a):
        """Joint of (Y_a, A, W), W = nondescendants of the exposure, as a
        view over the single-world model of do(A=a) (`_swig`). Summed onto
        Y, A and W, that model's joint is P(Y_a=y, A=a', W=w) =
        P(w) * P(a' | pa_A(w)) * Q(y | do(A=a), w): the factors of W and A
        are untouched, and those below the split do not read a', so summing
        them out leaves the Q of the truncated factorization. An outcome
        inside W needs no special case."""
        self._require_binary_exposure()
        self._require_state(self.dag.exposure, a)
        return self._cf_joint(a)

    def _cf_joint(self, a):
        """cf_joint of a state of a binary exposure, unchecked, kept per arm
        once its joint is built, so a joint over the cap raises every time."""
        joint = self._cf_cache.get(a)
        if joint is None:
            model = self._swig(a)
            model._joint_items()
            joint = self._cf_cache[a] = CounterfactualJoint(a, self._single_world[0], model)
        return joint

    @cached_property
    def _single_world(self):
        """(W, Dag) of both arms: W, the nondescendants of the exposure in
        node order, and this Dag without the exposure's outgoing edges, on
        W, the exposure, the outcome and its ancestors. The other
        descendants of the exposure are barren, so leaving them out changes
        no (Y_a, A, W) answer (Shachter, 1986)."""
        dag, exposure = self.dag, self.dag.exposure
        w_set = dag.nondescendants(exposure)
        keep = w_set | dag.ancestors(dag.outcome) | {exposure, dag.outcome}
        swig = dag._derived(
            tuple(n for n in dag.nodes if n in keep),
            tuple((u, v) for u, v in dag.edges if u != exposure and u in keep and v in keep),
        )
        return tuple(n for n in dag.nodes if n in w_set), swig

    def _swig(self, a):
        """The single-world intervention graph of do(A=a) (Richardson &
        Robins, 2013) as a model. It splits the exposure A in two: the
        observed A keeps its own CPT and has no children, and each child of
        A reads the fixed value a in its place, keeping the rows where A's
        field holds a, with that field cut from their keys. A node below the
        split is its counterfactual under A=a; W lies above it, unchanged.
        The model keeps the mask of W's fields (`_w_mask`) for its table
        (`_arm_cells`): in its own Dag the exposure has no children, so
        every other node is a nondescendant, mediators included."""
        exposure = self.dag.exposure
        w_nodes, dag = self._single_world
        cut, code = self._fields[exposure], self._codes[exposure][a]
        cpts, rows = {}, {}
        for node in dag.nodes:
            cpt, (scale, node_rows) = self.cpts[node], self._rows[node]
            if exposure in cpt.parent_order:
                i = cpt.parent_order.index(exposure)
                table = {k[:i] + k[i + 1:]: row for k, row in cpt.table.items() if k[i] == a}
                cpt = Cpt(node, cpt.parent_order[:i] + cpt.parent_order[i + 1:], table)
                node_rows = {k ^ code: row for k, row in node_rows.items() if k & cut == code}
            cpts[node], rows[node] = cpt, (scale, node_rows)
        model = self._derived(dag, cpts, rows)
        model._w_mask = self._mask(w_nodes)
        return model

    def cf_unconfounded(self, covariates=()):
        """True iff Y_a ⟂ A | covariates inside cf_joint, for both arms."""
        covariates = self.dag._require_pool(covariates)
        self._require_binary_exposure()
        return self._cf_unconfounded(covariates)

    def _cf_unconfounded(self, covariates):
        """cf_unconfounded of pool names, unchecked; the exposure is binary."""
        return all(self._cf_joint(arm).model._arm_independent(covariates) for arm in (0, 1))

    def _arm_cells(self):
        """{packed key over the fields of Y and W: [weight at A=0, weight
        at A=1]} of a single-world model (`_swig` sets W's mask), summed
        once per model from the joint. Every counterfactual test and the
        view `CounterfactualJoint.table` read it."""
        if self._arm_table is None:
            field, one = self._fields[self.dag.exposure], self._codes[self.dag.exposure][1]
            mask = self._w_mask | self._fields[self.dag.outcome]
            table = {}
            for key, p in _sum_by(self._joint_items(), mask | field).items():
                t = table.get(key & mask)
                if t is None:
                    t = table[key & mask] = [0, 0]
                t[(key & field) == one] += p
            self._arm_table = table
        return self._arm_table

    def _arm_independent(self, covariates):
        """Exact test of Y ⟂ A | covariates (names in W) in a single-world
        model, in one pass over `_arm_cells`. The exposure is binary, so
        P(y, a, s) P(s) = P(y, s) P(a, s) at both arms is one equality per
        cell (y, s): w1 W0(s) = w0 W1(s), with w_a the weight of (y, a, s)
        and W_a(s) that of (a, s). No (w0, w1) is zero, and the
        equalities hold iff the (w0, w1) of each s are all parallel, so
        each is tested against the first one of its s."""
        smask = self._mask(covariates)
        ysmask = smask | self._fields[self.dag.outcome]
        cells = {}
        for key, (w0, w1) in self._arm_cells().items():
            t = cells.get(key & ysmask)
            if t is None:
                cells[key & ysmask] = [w0, w1]
            else:
                t[0] += w0
                t[1] += w1
        first = {}
        for key, (w0, w1) in cells.items():
            f0, f1 = first.setdefault(key & smask, (w0, w1))
            if w1 * f0 != w0 * f1:
                return False
        return True


@dataclass(frozen=True)
class CounterfactualJoint:
    """Distribution of (Y_a, A, W): a view over `model`, the single-world
    intervention graph of do(A=a) (see `DiscreteModel.cf_joint`), whose
    exposure and outcome are A and Y."""

    a: object
    w_nodes: tuple[str, ...]
    model: DiscreteModel

    @cached_property
    def table(self):
        """{(y, a_observed, w_states): P > 0}, decoded from the model's
        table (`DiscreteModel._arm_cells`)."""
        m = self.model
        decoders = [
            (m._fields[n], {c: s for s, c in m._codes[n].items()})
            for n in (m.dag.outcome, *self.w_nodes)
        ]
        out = {}
        for k, weights in m._arm_cells().items():
            y, *w = [states[k & mask] for mask, states in decoders]
            for a_obs, p in zip((0, 1), weights):
                if p:
                    out[(y, a_obs, tuple(w))] = Fraction(p, m._den)
        return out

    def total(self):
        return self.model.probability({})

    def marginal_y(self):
        """{y: P(Y_a = y) > 0}."""
        y = self.model.dag.outcome
        return {s: p for s in self.model.state_spaces[y] if (p := self.model.probability({y: s}))}

    def mean_y(self):
        """E(Y_a); every outcome state must be numeric, as for
        `cond_expectation`, including states of probability zero."""
        return self.model.cond_expectation(self.model.dag.outcome)

    def independent_given(self, covariates):
        """Exact test of Y_a ⟂ A | covariates (covariates ⊆ W)."""
        covariates = sorted(set(covariates))
        for name in covariates:
            if name not in self.w_nodes:
                raise UnknownNode(f"{name!r} is not among the joint's covariates")
        return self.model._arm_independent(covariates)
