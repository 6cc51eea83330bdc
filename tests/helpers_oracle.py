"""Independent brute-force oracles used by the tests.

Nothing here touches the package's kernels or caches: path enumeration,
blocking, descendant closure, and joint-distribution arithmetic are all
re-derived from the raw node/edge/CPT data so the two sides of every
comparison share no code.
"""
from fractions import Fraction
from itertools import chain, combinations, product


def all_subsets(names):
    names = sorted(names)
    return [
        tuple(c)
        for c in chain.from_iterable(combinations(names, k) for k in range(len(names) + 1))
    ]


# -- graph side -------------------------------------------------------------


def _mixed_adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append((v, "->"))
        adj.setdefault(v, []).append((u, "<-"))
    return adj


def naive_descendants(edges, node):
    children = {}
    for u, v in edges:
        children.setdefault(u, []).append(v)
    out, stack = set(), [node]
    while stack:
        for ch in children.get(stack.pop(), ()):
            if ch not in out:
                out.add(ch)
                stack.append(ch)
    return out


def naive_simple_paths(edges, src, dst):
    """All simple paths src..dst as (nodes, arrows), arrows[i] the direction
    of the edge between nodes[i] and nodes[i+1]."""
    adj = _mixed_adjacency(edges)
    out = []

    def walk(node, nodes, arrows):
        if node == dst:
            out.append((tuple(nodes), tuple(arrows)))
            return
        for nxt, arrow in adj.get(node, ()):
            if nxt not in nodes:
                walk(nxt, nodes + [nxt], arrows + [arrow])

    walk(src, [src], [])
    return out


def naive_path_blocked(edges, nodes, arrows, z):
    z = set(z)
    for i in range(1, len(nodes) - 1):
        into_left = arrows[i - 1] == "->"
        into_right = arrows[i] == "<-"
        if into_left and into_right:
            hull = {nodes[i]} | naive_descendants(edges, nodes[i])
            if not hull & z:
                return True
        elif nodes[i] in z:
            return True
    return False


def naive_d_separated(edges, set_a, set_b, z=()):
    for a in set_a:
        for b in set_b:
            for nodes, arrows in naive_simple_paths(edges, a, b):
                if not naive_path_blocked(edges, nodes, arrows, z):
                    return False
    return True


def naive_backdoor_sufficient(edges, exposure, outcome, covariates):
    """Textbook criterion: every backdoor path is blocked by the set."""
    for nodes, arrows in naive_simple_paths(edges, exposure, outcome):
        if arrows[0] != "<-":
            continue
        if not naive_path_blocked(edges, nodes, arrows, covariates):
            return False
    return True


def naive_minimal_sets(edges, exposure, outcome, pool):
    sufficient = [
        s for s in all_subsets(pool) if naive_backdoor_sufficient(edges, exposure, outcome, s)
    ]
    return tuple(
        s
        for s in sufficient
        if not any(set(t) < set(s) for t in sufficient if t != s)
    )


# -- subset scans ---------------------------------------------------------------
#
# The package once answered every conditioning-set question with one
# separation query per subset, in canonical order. These are those scans,
# kept as the oracle for the sliced pass. Each takes the single-set test it
# asks: `sufficient(names)` for backdoor sufficiency, `separated(a, b,
# given)` for d-separation of two single nodes.


def scan_minimal_sets(pool, sufficient):
    minimal = []
    for candidate in all_subsets(pool):
        if any(set(m) <= set(candidate) for m in minimal):
            continue
        if sufficient(candidate):
            minimal.append(candidate)
    return tuple(minimal)


def scan_is_minimal(covariates, sufficient):
    return not any(sufficient(s) for s in all_subsets(covariates) if len(s) < len(covariates))


def scan_d1(variable, others, exposure, outcome, separated):
    for context in all_subsets(others):
        if separated(variable, exposure, context):
            continue
        if separated(variable, outcome, set(context) | {exposure}):
            continue
        return True, context
    return False, None


def scan_distinguishing_context(variable, others, sufficient):
    for context in all_subsets(others):
        if sufficient(set(context) | {variable}) and not sufficient(context):
            return context
    return None


def scan_conditional(variable, others, conditioning, sufficient):
    base = set(conditioning)
    for context in all_subsets(others):
        full = set(context) | {variable}
        if not sufficient(base | full):
            continue
        if any(sufficient(base | set(sub)) for sub in all_subsets(full) if len(sub) < len(full)):
            continue
        return True, context
    return False, None


# -- model side --------------------------------------------------------------


class NaiveModel:
    """Joint distribution as a flat dict, built straight from CPT data.

    cpts: node -> (parent tuple, {parent states tuple: P(node=1)}). Binary
    only; enough to double-check the package's exact inference paths.
    """

    def __init__(self, order, cpts):
        self.order = tuple(order)
        self.cpts = cpts
        self.joint = {}
        for values in product((0, 1), repeat=len(self.order)):
            assignment = dict(zip(self.order, values))
            p = Fraction(1)
            for node in self.order:
                parents, table = cpts[node]
                p_one = table[tuple(assignment[q] for q in parents)]
                p *= p_one if assignment[node] == 1 else 1 - p_one
            if p:
                self.joint[values] = p

    def prob(self, partial):
        total = Fraction(0)
        for values, p in self.joint.items():
            if all(values[self.order.index(k)] == v for k, v in partial.items()):
                total += p
        return total

    def expect_y(self, outcome, given):
        num = self.prob(dict(given, **{outcome: 1}))
        den = self.prob(given)
        return num / den

    def standardized_rd(self, exposure, outcome, covariates):
        out = Fraction(0)
        for values in product((0, 1), repeat=len(covariates)):
            stratum = dict(zip(covariates, values))
            pz = self.prob(stratum)
            if pz == 0:
                continue
            out += pz * (
                self.expect_y(outcome, dict(stratum, **{exposure: 1}))
                - self.expect_y(outcome, dict(stratum, **{exposure: 0}))
            )
        return out

    def ace(self, exposure, outcome):
        """Forced-exposure mean difference via the truncated factorization."""
        means = {}
        for arm in (0, 1):
            forced = dict(self.cpts)
            forced[exposure] = ((), {(): Fraction(arm)})
            means[arm] = NaiveModel(self.order, forced).prob({outcome: 1})
        return means[1] - means[0]

    def independent(self, set_a, set_b, z=()):
        set_a, set_b, z = sorted(set_a), sorted(set_b), sorted(z)
        for za in product((0, 1), repeat=len(z)):
            base = dict(zip(z, za))
            pz = self.prob(base)
            for va in product((0, 1), repeat=len(set_a)):
                for vb in product((0, 1), repeat=len(set_b)):
                    pa = self.prob(dict(base, **dict(zip(set_a, va))))
                    pb = self.prob(dict(base, **dict(zip(set_b, vb))))
                    pab = self.prob(
                        dict(base, **dict(zip(set_a, va)), **dict(zip(set_b, vb)))
                    )
                    if pab * pz != pa * pb:
                        return False
        return True

    def bias(self, exposure, outcome, covariates):
        return self.standardized_rd(exposure, outcome, covariates) - self.ace(
            exposure, outcome
        )


# -- counterfactual side ------------------------------------------------------


def naive_joint(order, spaces, cpts, forced=None):
    """Flat joint {state tuple in `order`: p > 0} over any finite states.

    cpts: node -> (parent tuple, {parent states tuple: row aligned with
    spaces[node]}). forced = (node, state) swaps that node's CPT for a
    point mass at state: the truncated factorization of do(node=state).
    """
    out = {}
    for values in product(*(spaces[n] for n in order)):
        assignment = dict(zip(order, values))
        p = Fraction(1)
        for node in order:
            if forced is not None and node == forced[0]:
                p *= int(assignment[node] == forced[1])
                continue
            parents, table = cpts[node]
            row = table[tuple(assignment[q] for q in parents)]
            p *= row[spaces[node].index(assignment[node])]
        if p:
            out[values] = p
    return out


def _marginal(order, joint, nodes):
    pos = [order.index(n) for n in nodes]
    out = {}
    for values, p in joint.items():
        key = tuple(values[i] for i in pos)
        out[key] = out.get(key, Fraction(0)) + p
    return out


def naive_independent(order, spaces, joint, set_a, set_b, z=()):
    """set_a independent of set_b given z in a flat joint, checked in every
    cell of the state spaces: P(a, b, z) P(z) = P(a, z) P(b, z)."""
    set_a, set_b, z = tuple(set_a), tuple(set_b), tuple(z)
    p_z = _marginal(order, joint, z)
    p_az = _marginal(order, joint, set_a + z)
    p_bz = _marginal(order, joint, set_b + z)
    p_abz = _marginal(order, joint, set_a + set_b + z)
    for vz in product(*(spaces[n] for n in z)):
        for va in product(*(spaces[n] for n in set_a)):
            for vb in product(*(spaces[n] for n in set_b)):
                left = p_abz.get(va + vb + vz, 0) * p_z.get(vz, 0)
                if left != p_az.get(va + vz, 0) * p_bz.get(vb + vz, 0):
                    return False
    return True


def naive_standardized_rd(order, spaces, joint, exposure, outcome, covariates):
    """Sum over strata x of P(x) (E[Y | A=1, x] - E[Y | A=0, x]) in a flat
    joint; None when a stratum of positive probability lacks an arm."""
    covariates = tuple(covariates)
    p_x = _marginal(order, joint, covariates)
    p_xa = _marginal(order, joint, covariates + (exposure,))
    p_xay = _marginal(order, joint, covariates + (exposure, outcome))
    out = Fraction(0)
    for x, px in p_x.items():
        if x + (0,) not in p_xa or x + (1,) not in p_xa:
            return None
        for y in spaces[outcome]:
            treated = p_xay.get(x + (1, y), 0) / p_xa[x + (1,)]
            untreated = p_xay.get(x + (0, y), 0) / p_xa[x + (0,)]
            out += px * y * (treated - untreated)
    return out


def naive_cf_joint(order, edges, spaces, cpts, exposure, outcome, a):
    """(w_nodes, {(y, a_observed, w_states): P(Y_a=y, A=a_observed, W=w)})
    with W the nondescendants of the exposure, listed in `order`.

    Textbook identification: given W, Y_a is independent of A, so the
    entry is P(A=a_observed, W=w) * P(Y=y | do(A=a), W=w), each factor
    taken from its own flat joint.
    """
    order = tuple(order)
    down = naive_descendants(edges, exposure) | {exposure}
    w_nodes = tuple(n for n in order if n not in down)
    observed = _marginal(order, naive_joint(order, spaces, cpts), (exposure,) + w_nodes)
    forced = naive_joint(order, spaces, cpts, (exposure, a))
    do_w = _marginal(order, forced, w_nodes)
    do_yw = _marginal(order, forced, (outcome,) + w_nodes)
    table = {}
    for (a_obs, *w), p_aw in observed.items():
        for (y, *w_do), p_yw in do_yw.items():
            if w_do == w:
                table[(y, a_obs, tuple(w))] = p_aw * p_yw / do_w[tuple(w)]
    return w_nodes, table


def naive_cf_independent(w_nodes, table, covariates):
    """Y_a independent of A given the covariates (a subset of W), tested
    cell by cell: P(y, a', s) P(s) = P(y, s) P(a', s)."""
    idx = [w_nodes.index(c) for c in covariates]
    p_s, p_ys, p_as, p_yas = {}, {}, {}, {}
    for (y, a_obs, w), p in table.items():
        s = tuple(w[i] for i in idx)
        for cell, key in ((p_s, s), (p_ys, (y, s)), (p_as, (a_obs, s)), (p_yas, (y, a_obs, s))):
            cell[key] = cell.get(key, Fraction(0)) + p
    for (y, s), py in p_ys.items():
        for (a_obs, s2), pa in p_as.items():
            if s2 == s and p_yas.get((y, a_obs, s), 0) * p_s[s] != py * pa:
                return False
    return True


def naive_forced_mean(order, spaces, cpts, outcome, forced):
    """E(outcome) under do(forced), by summing the forced flat joint."""
    order = tuple(order)
    return sum(
        (y * p for (y,), p in _marginal(order, naive_joint(order, spaces, cpts, forced), (outcome,)).items()),
        Fraction(0),
    )
