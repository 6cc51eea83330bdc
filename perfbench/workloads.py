"""Seeded inputs, operations and answer checks for the three workloads.

Nothing here imports the package: inputs are drawn from the seed before
`import confounders`, and each operation receives the imported package
as its `cf` argument. Every call into the package goes through a module
attribute looked up at call time, so the tracer's rebinding applies.

Answers are reduced to plain JSON values (`normalize`) before they are
hashed or checked. The reduction reads attributes by name, so a result
type may grow fields or compute a witness lazily without moving the
digest.
"""
from __future__ import annotations

import random
from itertools import combinations, count

# ---------------------------------------------------------------------------
# Graph helpers shared by the generators and the oracle


def _descendants(n, children, i):
    out = set()
    stack = [i]
    while stack:
        for v in children[stack.pop()]:
            if v not in out:
                out.add(v)
                stack.append(v)
    return out


def _count_paths(adj, source, target, cap):
    """Simple undirected source-target paths, counted up to cap + 1."""
    count = 0
    on_path = {source}

    def dfs(u):
        nonlocal count
        for v in adj[u]:
            if count > cap:
                return
            if v == target:
                count += 1
            elif v not in on_path:
                on_path.add(v)
                dfs(v)
                on_path.discard(v)

    dfs(source)
    return count


class GraphSpec:
    """A DAG as the benchmark draws it: names, edges, exposure, outcome.

    Doubles as the independent oracle for query answers. Separation is
    decided on the moralized ancestral graph, a different algorithm from
    the package's reachability kernel.
    """

    def __init__(self, nodes, edges, exposure, outcome):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.exposure = exposure
        self.outcome = outcome
        self.parents = {v: set() for v in self.nodes}
        self.children = {v: set() for v in self.nodes}
        for u, v in self.edges:
            self.parents[v].add(u)
            self.children[u].add(v)
        self.edge_set = set(self.edges)
        self._desc = {}
        desc = self.descendants(exposure)
        self.pool = tuple(sorted(set(self.nodes) - desc - {exposure, outcome}))
        self._backdoor = None
        self._sufficient = {}

    def text(self):
        roles = {self.exposure: " exposure", self.outcome: " outcome"}
        lines = [f"node {v}{roles.get(v, '')}" for v in self.nodes]
        lines += [f"edge {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    def descendants(self, v):
        if v not in self._desc:
            out = set()
            stack = [v]
            while stack:
                for w in self.children[stack.pop()]:
                    if w not in out:
                        out.add(w)
                        stack.append(w)
            self._desc[v] = frozenset(out)
        return self._desc[v]

    def separated(self, xs, ys, zs, drop_exposure_out=False):
        xs, ys, zs = set(xs), set(ys), set(zs)
        cut = self.exposure if drop_exposure_out else None

        def parents(v):
            return self.parents[v] - {cut} if cut is not None else self.parents[v]

        keep = set()
        stack = list(xs | ys | zs)
        while stack:
            v = stack.pop()
            if v not in keep:
                keep.add(v)
                stack.extend(parents(v))
        adj = {v: set() for v in keep}
        for v in keep:
            ps = parents(v)
            for p in ps:
                adj[v].add(p)
                adj[p].add(v)
            for p, q in combinations(sorted(ps), 2):
                adj[p].add(q)
                adj[q].add(p)
        seen = set(xs)
        stack = list(xs)
        while stack:
            v = stack.pop()
            if v in ys:
                return False
            for w in adj[v]:
                if w not in seen and w not in zs:
                    seen.add(w)
                    stack.append(w)
        return True

    def sufficient(self, covariates):
        key = frozenset(covariates)
        if key not in self._sufficient:
            self._sufficient[key] = self.separated(
                {self.exposure}, {self.outcome}, key, drop_exposure_out=True
            )
        return self._sufficient[key]

    def minimal(self, covariates):
        covariates = sorted(covariates)
        return not any(
            self.sufficient(sub)
            for r in range(len(covariates))
            for sub in combinations(covariates, r)
        )

    def is_open(self, path, given):
        """Path as (nodes, arrows); open iff no blocked interior node."""
        nodes, arrows = path
        given = set(given)
        for i in range(1, len(nodes) - 1):
            v = nodes[i]
            if arrows[i - 1] == "->" and arrows[i] == "<-":
                if not ({v} | self.descendants(v)) & given:
                    return False
            elif v in given:
                return False
        return True

    def valid_backdoor(self, path):
        nodes, arrows = path
        if len(set(nodes)) != len(nodes) or len(arrows) != len(nodes) - 1:
            return False
        if nodes[0] != self.exposure or nodes[-1] != self.outcome or arrows[0] != "<-":
            return False
        for u, arrow, v in zip(nodes, arrows, nodes[1:]):
            edge = (u, v) if arrow == "->" else (v, u)
            if edge not in self.edge_set:
                return False
        return True

    def backdoor_paths(self):
        """Every backdoor path, in lexicographic order of node names."""
        if self._backdoor is None:
            adj = {v: sorted(self.parents[v] | self.children[v]) for v in self.nodes}
            out = []
            nodes = [self.exposure]
            arrows = []

            def dfs(u):
                if u == self.outcome:
                    out.append((tuple(nodes), tuple(arrows)))
                    return
                for v in adj[u]:
                    if v in nodes or (u == self.exposure and v not in self.parents[u]):
                        continue
                    nodes.append(v)
                    arrows.append("->" if v in self.children[u] else "<-")
                    dfs(v)
                    nodes.pop()
                    arrows.pop()

            dfs(self.exposure)
            self._backdoor = out
        return self._backdoor


def path_text(path):
    nodes, arrows = path
    out = [nodes[0]]
    for arrow, v in zip(arrows, nodes[1:]):
        out += [arrow, v]
    return " ".join(out)


def parse_path_text(text):
    tokens = text.split()
    return tuple(tokens[0::2]), tuple(tokens[1::2])


# ---------------------------------------------------------------------------
# Fuzz workloads: one trial per op, seeds stratified by input shape

# Replica draws of the fuzzer's DAG generator (seeds 10**6 .. 10**6 + 19999,
# edge probability 0.35), tallied by (covariate pool size, band of
# exposure-outcome path count). A round of ops takes seeds in these
# proportions, so two seeds of the benchmark see the same mix of pool
# sizes and path counts, the two input properties op cost follows.
_STRATA_DRAWS = {
    10: {
        (0, 0): 49, (0, 1): 150, (0, 2): 248, (0, 3): 155, (0, 4): 48,
        (1, 0): 187, (1, 1): 408, (1, 2): 608, (1, 3): 357, (1, 4): 88,
        (2, 0): 402, (2, 1): 757, (2, 2): 971, (2, 3): 431, (2, 4): 128,
        (3, 0): 601, (3, 1): 873, (3, 2): 1011, (3, 3): 443, (3, 4): 97,
        (4, 0): 687, (4, 1): 935, (4, 2): 930, (4, 3): 405, (4, 4): 81,
        (5, 0): 829, (5, 1): 914, (5, 2): 872, (5, 3): 351, (5, 4): 59,
        (6, 0): 796, (6, 1): 810, (6, 2): 710, (6, 3): 272, (6, 4): 43,
        (7, 0): 734, (7, 1): 611, (7, 2): 503, (7, 3): 169, (7, 4): 44,
        (8, 0): 517, (8, 1): 349, (8, 2): 242, (8, 3): 109, (8, 4): 16,
    },
    6: {
        (0, 0): 1528, (0, 1): 95, (0, 2): 5,
        (1, 0): 3621, (1, 1): 103, (1, 2): 1,
        (2, 0): 5067, (2, 1): 81,
        (3, 0): 5314, (3, 1): 53, (3, 2): 1,
        (4, 0): 4107, (4, 1): 24,
    },
}
_PATH_BANDS = (10, 30, 100, 300)
FUZZ_EDGE_PROB = 0.35


def fuzz_stratum(seed, n_nodes, edge_prob=FUZZ_EDGE_PROB):
    """(pool size, path band) of the first DAG `fuzz` draws from `seed`.

    Mirrors confounders.fuzz.random_dag call for call on the same
    random.Random. If the fuzzer's draw changes, strata are misassigned
    and the stream loses its variance reduction, but every op stays a
    valid fuzz trial.
    """
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(n_nodes)]
    index = {name: i for i, name in enumerate(names)}
    for _ in range(10000):
        order = rng.sample(names, n_nodes)
        children = [[] for _ in range(n_nodes)]
        adj = [[] for _ in range(n_nodes)]
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < edge_prob:
                    u, v = index[order[i]], index[order[j]]
                    children[u].append(v)
                    adj[u].append(v)
                    adj[v].append(u)
        exposure, outcome = rng.sample(names, 2)
        a, y = index[exposure], index[outcome]
        desc = _descendants(n_nodes, children, a)
        if y in desc:
            paths = _count_paths(adj, a, y, _PATH_BANDS[-1])
            return n_nodes - 1 - len(desc), sum(paths > edge for edge in _PATH_BANDS)
    raise ValueError(f"seed {seed} draws no DAG")


def _round_quotas(draws, round_ops):
    """Endless per-round quotas: each stratum's share of r * round_ops,
    rounded, minus what the earlier rounds took. Fractions carry over, so
    a stratum rarer than one op per round still comes up in proportion
    over a run; a round holds round_ops ops, give or take a few."""
    total = sum(draws.values())

    def taken(c, rounds):
        return (2 * c * round_ops * rounds + total) // (2 * total)

    for r in count(1):
        yield {k: q for k, c in draws.items() if (q := taken(c, r) - taken(c, r - 1))}


# The phenomenon counters a report carried when the benchmark was defined;
# counters added later stay out of the digest.
_FUZZ_COUNTERS = frozenset(
    (
        "cf_unconfounded_insufficient",
        "d1_graphical_numeric_gaps",
        "p1_d3_failures",
        "p2a_as_definition_p1_failures",
        "dashed_D2_to_D1",
        "dashed_D2_to_D6",
        "dashed_D1_to_D6",
        "dashed_D3_to_D5",
        "dashed_D3_to_D6",
        "dashed_D4_to_D5",
        "dashed_D4_to_D6",
    )
)


# Yardstick cycles (see run.py): one-trial fuzz configs run on the frozen
# copy of the package, seeds 1..20, and the CPU seconds the whole cycle
# took on the 2.1 GHz machine where the benchmark was defined. Only the
# ratio of the two moves results.
GRAPH_CYCLE = ([(10, FUZZ_EDGE_PROB, 1, s, False) for s in range(1, 21)], 0.200)
MODEL_CYCLE = ([(6, FUZZ_EDGE_PROB, 1, s, True) for s in range(1, 21)], 0.940)
# One cycle follows each set-up of every workload.
SETUP_CYCLE = GRAPH_CYCLE


def ops_per_run(wl, seconds):
    """The op count of a timed run: `seconds` at the workload's nominal
    rate, in whole rounds, and at least the digest prefix. It does not
    depend on the machine's pace, so every run of a seed takes the same
    ops and counts the same failures. The rates are ops per second of a
    run, yardstick included, on the defining machine at slowness 1, so a
    run there takes about `seconds` of CPU; a faster package finishes its
    ops sooner."""
    rounds = max(1, round(seconds * wl.rate / wl.round_ops))
    return max(wl.prefix_ops, rounds * wl.round_ops)


class FuzzWorkload:
    """Each op is fuzz(FuzzConfig(n_nodes, 0.35, 1, seed_i[, with_models]))."""

    deadline_s = None
    final_ops = ()

    def __init__(self, name, n_nodes, with_models, round_ops, rate, tail_pct, cycle, pace=None):
        self.name = name
        self.rate = rate
        self.n_nodes = n_nodes
        self.with_models = with_models
        self.prefix_ops = round_ops
        self.tail_pct = tail_pct
        self.cycle = cycle
        self.pace = pace or {}
        self.round_ops = round_ops

    def generate(self, seed):
        return None

    def specs(self, seed, inputs):
        """Endless op stream: rounds of fuzz seeds filling the quota."""
        rng = random.Random(f"{self.name}:{seed}")
        for quota in _round_quotas(_STRATA_DRAWS[self.n_nodes], self.round_ops):
            need = dict(quota)
            batch = []
            while need:
                s = rng.getrandbits(32)
                key = fuzz_stratum(s, self.n_nodes)
                if key in need:
                    batch.append(s)
                    need[key] -= 1
                    if not need[key]:
                        del need[key]
            rng.shuffle(batch)
            yield from batch

    def setup(self, cf, inputs):
        return None

    def run_op(self, cf, ctx, spec):
        return cf.fuzz(cf.FuzzConfig(self.n_nodes, FUZZ_EDGE_PROB, 1, spec, with_models=self.with_models))

    def normalize(self, spec, report):
        counters = report.counters
        return {
            "trials": report.trials,
            "hard_failures": list(report.hard_failures),
            "counters": {k: counters[k] for k in sorted(counters) if k in _FUZZ_COUNTERS},
        }

    @staticmethod
    def op_kind(spec):
        return "trial"

    @staticmethod
    def verify_order(spec):
        return 0

    def verify(self, cf, ctx, inputs, spec, answer):
        if answer["trials"] != 1:
            return f"fuzz ran {answer['trials']} trials, not 1"
        if answer["hard_failures"]:
            return "hard failures: " + "; ".join(answer["hard_failures"])
        return None


# ---------------------------------------------------------------------------
# Query session: long-lived Dags, a fixed op mix, and one known hang

SPARSE_NODES, SPARSE_EDGE_PROB, SPARSE_POOL, SPARSE_DAGS = 20, 0.15, 13, 160
DENSE_NODES, DENSE_EDGE_PROB, DENSE_DAGS = 12, 0.6, 16
SPARSE_MAX_PATHS = 1000
DENSE_PATHS = (SPARSE_MAX_PATHS, 6000)
COMPLETE_COVARIATES = 16

# ops of each kind per round, on sparse and on dense Dags. The mix is set
# for a steady median, not taken from observed use: quick d-separation
# queries are over half of all ops, so the median op lies inside their
# tight cluster instead of on the gap between op kinds, where it swung by
# 20% from run to run. run.py reports the median of each kind as well.
SPARSE_MIX = (("msets", 4), ("classify", 4), ("sufficient", 3), ("dsep", 26), ("backward", 2))
DENSE_MIX = (("classify", 1), ("sufficient", 2))
QUERY_ROUND = sum(c for _, c in SPARSE_MIX + DENSE_MIX)  # 42
QUERY_PREFIX = 10 * QUERY_ROUND


def _draw_edges(rng, n, p):
    order = rng.sample(range(n), n)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _named(n, edges, a, y):
    names = [f"V{i:02d}" for i in range(n)]
    return GraphSpec(names, [(names[u], names[v]) for u, v in edges], names[a], names[y])


def sparse_graph(rng):
    """20 nodes, p = 0.15, exposure placed so the pool has exactly 13, at
    most SPARSE_MAX_PATHS exposure-outcome paths."""
    n = SPARSE_NODES
    while True:
        edges = _draw_edges(rng, n, SPARSE_EDGE_PROB)
        children = [[] for _ in range(n)]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            children[u].append(v)
            adj[u].append(v)
            adj[v].append(u)
        desc = [_descendants(n, children, i) for i in range(n)]
        cands = [a for a in range(n) if len(desc[a]) == n - 1 - SPARSE_POOL]
        if cands:
            a = rng.choice(cands)
            y = rng.choice(sorted(desc[a]))
            if _count_paths(adj, a, y, SPARSE_MAX_PATHS) <= SPARSE_MAX_PATHS:
                return _named(n, edges, a, y)


def dense_graph(rng):
    """12 nodes, p = 0.6, exposure-outcome path count inside DENSE_PATHS."""
    n = DENSE_NODES
    low, high = DENSE_PATHS
    while True:
        edges = _draw_edges(rng, n, DENSE_EDGE_PROB)
        children = [[] for _ in range(n)]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            children[u].append(v)
            adj[u].append(v)
            adj[v].append(u)
        a = rng.randrange(n)
        desc = _descendants(n, children, a)
        if not desc or n - 1 - len(desc) < 2:
            continue
        y = rng.choice(sorted(desc))
        if low <= _count_paths(adj, a, y, high) <= high:
            return _named(n, edges, a, y)


def complete_graph():
    """The complete DAG C0..C15 -> A -> Y, every forward pair joined."""
    names = [f"C{i}" for i in range(COMPLETE_COVARIATES)] + ["A", "Y"]
    edges = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    return GraphSpec(names, edges, "A", "Y")


class QueryInputs:
    def __init__(self, seed):
        rng = random.Random(f"query-session:{seed}")
        self.graphs = [sparse_graph(rng) for _ in range(SPARSE_DAGS)]
        self.graphs += [dense_graph(rng) for _ in range(DENSE_DAGS)]
        self.graphs.append(complete_graph())
        self.texts = [g.text() for g in self.graphs]
        self.catalogs = {}


class QueryWorkload:
    """A session of graph queries against long-lived parsed Dags."""

    name = "query-session"
    cycle = GRAPH_CYCLE
    pace = {}
    prefix_ops = QUERY_PREFIX
    round_ops = QUERY_ROUND
    rate = 85
    tail_pct = 98.0
    deadline_s = 2.5
    # After the timed loop, once per run: the known hang, is_sufficient on
    # the complete DAG with {C1}. It is attempted, counted and timed like
    # any op; peak RSS is read before it (see README).
    final_ops = (("hang",),)

    def generate(self, seed):
        return QueryInputs(seed)

    def specs(self, seed, inputs):
        """Endless op stream. Each round holds the fixed kind mix; Dags are
        visited in a seeded cyclic order so each is revisited equally."""
        rng = random.Random(f"query-ops:{seed}")
        order = {"sparse": list(range(SPARSE_DAGS)), "dense": list(range(SPARSE_DAGS, SPARSE_DAGS + DENSE_DAGS))}
        for dags in order.values():
            rng.shuffle(dags)
        visits = {"sparse": 0, "dense": 0}

        def next_dag(kind):
            dags = order[kind]
            visits[kind] += 1
            return dags[(visits[kind] - 1) % len(dags)]

        while True:
            batch = [(kind, next_dag("sparse")) for kind, c in SPARSE_MIX for _ in range(c)]
            batch += [(kind, next_dag("dense")) for kind, c in DENSE_MIX for _ in range(c)]
            rng.shuffle(batch)
            for kind, g in batch:
                yield self._args(rng, kind, g, inputs.graphs[g])

    @staticmethod
    def _args(rng, kind, g, spec):
        pool = spec.pool
        if kind == "msets":
            return ("msets", g)
        if kind == "classify":
            return ("classify", g, rng.choice(pool))
        if kind == "dsep":
            x, y = rng.sample(spec.nodes, 2)
            z = tuple(v for v in spec.nodes if v not in (x, y) and rng.random() < 0.3)
            return ("dsep", g, x, y, z)
        subset = tuple(sorted(rng.sample(pool, rng.randint(0, len(pool)))))
        return (kind, g, subset)

    def setup(self, cf, inputs):
        return [cf.formats.parse_graph(text) for text in inputs.texts]

    def run_op(self, cf, dags, spec):
        kind = spec[0]
        if kind == "hang":
            return cf.is_sufficient(dags[-1], ["C1"])
        dag = dags[spec[1]]
        if kind == "msets":
            return cf.minimal_sufficient_sets(dag)
        if kind == "classify":
            return cf.classify_variable(dag, spec[2])
        if kind == "sufficient":
            return cf.is_sufficient(dag, spec[2])
        if kind == "dsep":
            return cf.d_separated(dag, {spec[2]}, {spec[3]}, spec[4])
        return cf.backward_select(cf.IndependenceOracle.graphical(dag), spec[2])

    def normalize(self, spec, answer):
        kind = spec[0]
        if kind == "msets":
            return [list(s) for s in answer.sets]
        if kind == "classify":
            w = answer.witnesses
            return {
                "verdicts": {k: bool(v) for k, v in sorted(answer.verdicts.items())},
                "D1": None if w.get("D1") is None else list(w["D1"]),
                "D2": None if w.get("D2") is None else str(w["D2"]),
                "D4": None if w.get("D4") is None else list(w["D4"]),
                "lattice_ok": bool(answer.lattice_ok),
                "dashed": list(answer.dashed_observations),
            }
        if kind in ("sufficient", "hang"):
            witness = answer.open_backdoor_witness
            return {
                "set": list(answer.set),
                "sufficient": bool(answer.sufficient),
                "minimal": bool(answer.minimal),
                "witness": None if witness is None else str(witness),
            }
        if kind == "dsep":
            return bool(answer)
        return {
            "steps": [[v, bool(verdict)] for v, _query, verdict in answer.steps],
            "final": list(answer.final),
        }

    @staticmethod
    def op_kind(spec):
        return spec[0]

    @staticmethod
    def verify_order(spec):
        """msets answers first, so classify checks can reuse them."""
        return 0 if spec[0] == "msets" else 1

    def verify(self, cf, dags, inputs, spec, answer):
        """Check one answer against the oracle; None when it holds."""
        kind = spec[0]
        g = inputs.graphs[-1] if kind == "hang" else inputs.graphs[spec[1]]
        if kind == "msets":
            problem = _check_catalog(g, answer)
            if problem is None:
                inputs.catalogs[spec[1]] = answer
            return problem
        if kind == "classify":
            catalog = inputs.catalogs.get(spec[1])
            if catalog is None:  # no checked msets op on this Dag: compute one
                catalog = [list(s) for s in cf.minimal_sufficient_sets(dags[spec[1]]).sets]
                problem = _check_catalog(g, catalog)
                if problem:
                    return f"reference catalog: {problem}"
                inputs.catalogs[spec[1]] = catalog
            return _check_classify(g, spec[2], answer, catalog)
        if kind == "sufficient":
            return _check_sufficient(g, spec[2], answer, first_witness=True)
        if kind == "hang":
            return _check_sufficient(g, ("C1",), answer, first_witness=False)
        if kind == "dsep":
            want = g.separated({spec[2]}, {spec[3]}, spec[4])
            return None if answer == want else f"d_separated gave {answer}, oracle {want}"
        return _check_backward(g, spec[2], answer)


def _check_catalog(g, sets):
    tuples = [tuple(s) for s in sets]
    if tuples != sorted(tuples, key=lambda s: (len(s), s)) or any(list(s) != sorted(s) for s in tuples):
        return "catalog not in canonical order"
    if len(set(tuples)) != len(tuples):
        return "catalog repeats a set"
    for s in tuples:
        if not set(s) <= set(g.pool):
            return f"set {s} leaves the pool"
        if not g.sufficient(s):
            return f"set {s} is not sufficient"
        if not g.minimal(s):
            return f"set {s} is not minimal"
    if not tuples and g.sufficient(g.pool):
        return "empty catalog although the pool is sufficient"
    if tuples and not g.sufficient(set().union(*map(set, tuples))):
        return "union of the catalog is not sufficient"
    return None


def _check_sufficient(g, covariates, answer, first_witness):
    covariates = tuple(sorted(covariates))
    if tuple(answer["set"]) != covariates:
        return f"verdict set {answer['set']} for {covariates}"
    want = g.sufficient(covariates)
    if answer["sufficient"] != want:
        return f"sufficient={answer['sufficient']}, oracle {want}"
    if want:
        if answer["witness"] is not None:
            return "sufficient set carries a witness"
        if answer["minimal"] != g.minimal(covariates):
            return f"minimal={answer['minimal']}, oracle disagrees"
        return None
    if answer["minimal"]:
        return "insufficient set marked minimal"
    path = parse_path_text(answer["witness"] or "")
    if not g.valid_backdoor(path) or not g.is_open(path, covariates):
        return f"witness {answer['witness']!r} is not an open backdoor path"
    if first_witness:
        first = next(p for p in g.backdoor_paths() if g.is_open(p, covariates))
        if path != first:
            return f"witness {answer['witness']!r}, first open is {path_text(first)!r}"
    return None


def _check_classify(g, variable, answer, catalog):
    v = answer["verdicts"]
    d3 = bool(catalog) and all(variable in s for s in catalog)
    first = next((s for s in catalog if variable in s), None)
    if v["D3"] != d3 or v["D4"] != (first is not None) or answer["D4"] != first:
        return "D3/D4 disagree with the catalog"
    if not answer["lattice_ok"]:
        return "a solid implication arrow is broken"
    a, y = g.exposure, g.outcome
    if v["D1"]:
        ctx = set(answer["D1"])
        if g.separated({variable}, {a}, ctx) or g.separated({variable}, {y}, ctx | {a}):
            return f"D1 context {answer['D1']} does not witness D1"
    elif not (g.separated({variable}, {a}, ()) or g.separated({variable}, {y}, {a})):
        return "D1 is false but the empty context witnesses it"
    d2 = None
    for nodes, arrows in g.backdoor_paths():
        for i in range(1, len(nodes) - 1):
            if nodes[i] == variable and not (arrows[i - 1] == "->" and arrows[i] == "<-"):
                d2 = path_text((nodes, arrows))
                break
        if d2:
            break
    if v["D2"] != (d2 is not None) or answer["D2"] != d2:
        return f"D2 witness {answer['D2']!r}, oracle {d2!r}"
    return None


def _check_backward(g, start, answer):
    a, y = g.exposure, g.outcome
    current = sorted(start)
    steps = []
    changed = True
    while changed:
        changed = False
        for variable in list(current):
            rest = [v for v in current if v != variable]
            verdict = g.separated({y}, {variable}, {a, *rest})
            steps.append([variable, verdict])
            if verdict:
                current.remove(variable)
                changed = True
                break
    if answer["steps"] != steps or answer["final"] != current:
        return "backward selection trace differs from the oracle replay"
    return None


# Pace exponents: a metric's op times are divided by slowness ** k (k = 1
# when not listed). On model-fuzz the median op slows about half as much
# as the yardstick cycle and the p90 op about half again as much; these
# exponents were fitted on 40 runs in five series (see README.md).
MODEL_PACE = {"op_p50_ms": 0.5, "op_tail_ms": 1.5}

WORKLOADS = {
    "graph-fuzz": FuzzWorkload("graph-fuzz", 10, False, round_ops=200, rate=31, tail_pct=95.0,
                               cycle=GRAPH_CYCLE),
    "model-fuzz": FuzzWorkload("model-fuzz", 6, True, round_ops=100, rate=18, tail_pct=90.0,
                               cycle=MODEL_CYCLE, pace=MODEL_PACE),
    "query-session": QueryWorkload(),
}
