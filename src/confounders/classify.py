"""Classify covariates under the six candidate confounder definitions.

The six readings of "C is a confounder for the effect of A on Y":

  D1  in some covariate context X, C is associated with A and with Y
      given (A, X). Graphically this is d-connection (faithfulness built
      in); the numeric variant tests exact independence in a model.
  D2  C is a non-collider on some backdoor path (conditioning on {C}
      alone blocks that path).
  D3  C belongs to every minimally sufficient adjustment set.
  D4  C belongs to some minimally sufficient adjustment set.
  D5  adding C to some context X strictly shrinks |bias|.
  D6  adding C to some context X changes the adjusted risk difference.

D1-D4 need only the graph; D5/D6 need a DiscreteModel. Graphical D1 is
decided by scalar kernel queries where they suffice: a probe of the empty
context and a connectability filter, each one mask per Dag, then the
one-member contexts; the sliced passes run only past those
(`_d1_contexts`). D3, D4 and the conditional confounder read the minimal
sets of `adjust._minimal_sets`, given no set L and given L. Existential
quantifiers range over subsets of the covariate pool minus C, visited in
canonical order, so witnesses are reproducible. One table (`_TABLE`)
states each definition once: whether the model or the Dag decides it, its
verdict with no witness built, its witness built only for a verdict that
holds, and the witness text `confounders classify` prints. The id lists
and every reader of a verdict or witness read it.

The model scans visit only the contexts the graph leaves open. A model
factorizes over its Dag, so d-separation implies exact independence (the
global Markov property), zero CPT entries included. A witness of numeric
D1 is therefore a graphical D1 context, and so is every context where
adding C can change a risk difference: if C is independent of A given X,
or of Y given (A, X), adding C to X leaves the risk difference as it is,
when both are defined. Numeric D1 always tests the graphical D1 contexts
only (`_d1_contexts`); D5 and D6 do when every risk difference of the
model is defined (`DiscreteModel._rd_defined`), and otherwise walk every
context, so that an error is raised at the context a full scan meets it.
Either way the verdicts and witnesses are those of a scan over every
context.

The implication lattice: D3=>D4=>D2, D4=>D1, D3=>D1 hold on every DAG
(D1 in its graphical reading); D5=>D6=>D1, D5=>D1 hold in every model
(D1 numeric). All other arrows can fail and are only ever counted as
observations.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .adjust import (
    _first_backdoor_path,
    _minimal_sets,
    _relevant,
    _require_enumerable,
    minimal_sufficient_sets,
    subsets_canonical,
)
from .errors import (
    IncompleteReport,
    InvalidConfig,
    MissingModel,
    NotACovariate,
    OverlappingSets,
)
from .formats import format_effect, format_set
from .graph import _bits, _lane_sets, _skeleton, _sliced_dsep


@dataclass(frozen=True)
class _Definition:
    """One candidate definition. `holds(dag, model, c)` is its verdict, with
    no witness built; `evaluate(dag, model, c)` is (verdict, witness), the
    witness built only for a verdict that holds (None for D3, which has
    none); `text(witness, exact)` is what `confounders classify` prints
    after the verdict. Each looks the module's functions up when called,
    so a wrapper set on the module sees every call."""

    on_model: bool
    holds: Callable
    evaluate: Callable | None
    text: Callable | None


def _context_text(context, exact):
    return f" (context {format_set(context)})"


def _bias_text(witness, exact):
    context, (with_c, without) = witness
    bias = f"{format_effect(without, exact)} -> {format_effect(with_c, exact)}"
    return f" (context {format_set(context)}; |bias| {bias})"


# D3 and D4 read the Dag's minimal-set catalog; the D4, D5 and D6 scans
# meet their witness with the verdict
_TABLE = {
    "D1": _Definition(
        False, lambda dag, _, c: _d1_holds(dag, c), lambda dag, _, c: classify_d1_graphical(dag, c),
        _context_text,
    ),
    "D2": _Definition(
        False, lambda dag, _, c: _d2_holds(dag, c), lambda dag, _, c: classify_d2(dag, c),
        lambda path, exact: f" (path {path})",
    ),
    "D3": _Definition(False, lambda dag, _, c: classify_d3(dag, c), None, None),
    "D4": _Definition(
        False, lambda dag, _, c: classify_d4(dag, c)[0], lambda dag, _, c: classify_d4(dag, c),
        lambda members, exact: f" (minimal set {format_set(members)})",
    ),
    "D5": _Definition(
        True, lambda _, model, c: classify_d5(model, c)[0], lambda _, model, c: classify_d5(model, c),
        _bias_text,
    ),
    "D6": _Definition(
        True, lambda _, model, c: classify_d6(model, c)[0], lambda _, model, c: classify_d6(model, c),
        _context_text,
    ),
}
DEFINITIONS = tuple(_TABLE)
GRAPH_DEFINITIONS = tuple(d for d in DEFINITIONS if not _TABLE[d].on_model)
MODEL_DEFINITIONS = tuple(d for d in DEFINITIONS if _TABLE[d].on_model)

SOLID_GRAPH_EDGES = (("D3", "D4"), ("D4", "D2"), ("D4", "D1"), ("D3", "D2"), ("D3", "D1"))
SOLID_MODEL_EDGES = (("D5", "D6"), ("D6", "D1"), ("D5", "D1"))
DASHED_EDGES = (
    ("D2", "D1"),
    ("D2", "D6"),
    ("D1", "D6"),
    ("D3", "D5"),
    ("D3", "D6"),
    ("D4", "D5"),
    ("D4", "D6"),
)


@dataclass(frozen=True)
class ConfounderReport:
    """The verdicts asked for, for one covariate.

    verdicts["D1"] is the graphical reading; d1_numeric carries the exact
    distributional reading when a model was supplied and D1 asked for
    (they disagree only on unfaithful CPTs). surrogate is None unless a
    model was supplied and D4 and D5 asked for.
    """

    variable: str
    verdicts: dict
    witnesses: dict
    surrogate: bool | None
    lattice_ok: bool
    d1_numeric: bool | None = None
    dashed_observations: tuple[str, ...] = ()


def _require_covariate(dag, variable):
    pool = dag.covariate_pool
    if variable not in pool:
        raise NotACovariate(f"{variable!r} is not in the covariate pool {pool!r}")
    return pool


def _context_sets(dag, variable):
    pool = _require_covariate(dag, variable)
    others = [name for name in pool if name != variable]
    return _require_enumerable(others, f"the context search for {variable!r}")


def _probe_mask(dag):
    """The covariates whose empty context is a D1 context: the nodes
    d-connected to A, and to Y given A. d-separation is symmetric, so two
    kernel queries from A and Y answer every covariate; the mask is kept on
    the Dag (`_d1_probe`)."""
    if dag._d1_probe is None:
        kernel, a, y = dag._kernel, 1 << dag._index[dag.exposure], 1 << dag._index[dag.outcome]
        dag._d1_probe = kernel.reachable(a, 0) & kernel.reachable(y, a)
    return dag._d1_probe


def _connectable_mask(dag):
    """The covariates the connectability filter leaves open: a covariate
    outside this mask has no D1 context.

    T is *connectable* from C given F when the ball game reaches T with a
    non-collider blocking only in F and a collider passing iff it lies in
    An(F ∪ P), P the pool: the kernel's `reachable` from T given F with
    `opened` = P. The mask holds the covariates connectable to A given
    F = ∅ and to Y given F = {A}; the game is run from A and from Y, two
    kernel queries per Dag, and the mask is kept on the Dag (`_d1_filter`).

    Soundness. Let X ⊆ R, R the pool minus C, be a D1 context of C, and
    (T, F) be (A, ∅) or (Y, {A}); neither C nor T is in F. X d-connects C
    and T given F ∪ X, so some path between them has no non-collider in
    F ∪ X, hence none in F, and every collider in An(F ∪ X) ⊆ An(F ∪ P).
    The game follows every path whose non-colliders lie outside F and
    whose colliders lie in An(F ∪ P), and both conditions read the same
    from either end of the path, so the game from T reaches C. So a
    covariate outside the mask has no D1 context.

    Opening An(F ∪ P) leaves open the same covariates as opening An(F ∪ R)
    for each C would. The two sets differ only at ancestors of C. Let v be
    the last collider outside An(F ∪ R) on a walk of the game from C to T.
    The walk can instead climb from C to v along a directed path and go on
    from v as a non-collider: the nodes of that path are ancestors of C,
    so none is A (C is no descendant of A), and none blocks.
    """
    if dag._d1_filter is None:
        kernel, a, y = dag._kernel, 1 << dag._index[dag.exposure], 1 << dag._index[dag.outcome]
        pool = dag._mask(dag.covariate_pool)
        dag._d1_filter = kernel.reachable(a, 0, pool) & kernel.reachable(y, a, pool)
    return dag._d1_filter


def _d1_lanes(dag, variable, others):
    """C's D1 lane vector over the contexts drawn from `others`, from two
    sliced passes from C, given X and given X plus A, kept on the Dag per
    covariate (`_d1`) for later reads to share. The passes enumerate the
    subsets of `others`, so the size cap counts them."""
    _require_enumerable(others, f"the context search for {variable!r}")
    c, a, y = (dag._index[name] for name in (variable, dag.exposure, dag.outcome))
    members = [dag._index[name] for name in others]
    full = (1 << (1 << len(others))) - 1
    connected = full & ~_sliced_dsep(dag, 1 << c, 1 << a, 0, members)
    if connected:
        connected &= ~_sliced_dsep(dag, 1 << c, 1 << y, 1 << a, members)
    if dag._d1 is None:
        dag._d1 = {}
    dag._d1[variable] = connected
    return connected


def _d1_holds(dag, variable):
    """The graphical D1 verdict: whether C has a first D1 context, where
    `_d1_contexts` stops."""
    return next(_d1_contexts(dag, variable), None) is not None


def _d1_contexts(dag, variable):
    """The graphical D1 contexts of C, in canonical order: each X in which
    C is d-connected to A given X and to Y given (A, X).

    Four steps, each run only when a reader asks past the ones before:
    the probe (`_probe_mask`), which answers the empty context; the
    connectability filter (`_connectable_mask`), which ends a covariate
    that has no context; the one-member contexts {x}, x in the pool minus
    C in sorted order, two kernel queries each; and the larger contexts,
    read off C's lane vector (`_d1_lanes`). A vector already kept on the
    Dag answers every context of one member or more.
    """
    pool = _require_covariate(dag, variable)
    c = dag._index[variable]
    if _probe_mask(dag) >> c & 1:
        yield ()
    elif not _connectable_mask(dag) >> c & 1:
        return
    others = [name for name in pool if name != variable]
    vector = None if dag._d1 is None else dag._d1.get(variable)
    smallest = 1
    if vector is None:
        kernel, source = dag._kernel, 1 << c
        a, y = 1 << dag._index[dag.exposure], 1 << dag._index[dag.outcome]
        for name in others:
            x = 1 << dag._index[name]
            if not kernel.dsep(source, a, x) and not kernel.dsep(source, y, a | x):
                yield (name,)
        if len(others) < 2:
            return
        vector, smallest = _d1_lanes(dag, variable, others), 2
    for context in _lane_sets(vector & ~1, others):  # lane 0 was the probe's
        if len(context) >= smallest:
            yield context


def _model_contexts(model, variable):
    """The contexts the D5 and D6 scans must test, in canonical order,
    after their checks: the graphical D1 contexts when every risk
    difference is defined (`_rd_defined`), every context otherwise."""
    others = _context_sets(model.dag, variable)
    model._require_binary_exposure()
    if model._rd_defined:
        return _d1_contexts(model.dag, variable)
    return subsets_canonical(others)


def classify_d1_graphical(dag, variable):
    """(verdict, witness X): C d-connected to A given X and to Y given
    (A, X), for the canonically first context X that works."""
    witness = next(_d1_contexts(dag, variable), None)
    return witness is not None, witness


def classify_d1_numeric(model, variable):
    """Same quantifier as the graphical D1, with exact CI tests.

    The model factorizes over its Dag, so d-separation implies exact
    independence (the global Markov property), with zero CPT entries too.
    A context where C is dependent on A, and on Y given A, is therefore a
    graphical D1 context, and only those are tested, in the same order:
    the verdict and witness are those of a scan over every context.
    """
    c, a, y = (variable,), (model.dag.exposure,), (model.dag.outcome,)
    for context in _d1_contexts(model.dag, variable):
        if model._ci(c, a, context):
            continue
        if model._ci(c, y, context + a):
            continue
        return True, context
    return False, None


def _d2_holds(dag, variable):
    """Whether C is a non-collider on some backdoor path: the D2 verdict,
    in polynomial time and with no path built. It is `_d2_completes` at the
    root of the witness search: a path from A whose step after A is a
    parent of A, with nothing removed."""
    _require_covariate(dag, variable)
    a = dag._index[dag.exposure]
    return _d2_completes(dag, dag._index[variable], a, dag._pmask[a], 0)


def _d2_completes(dag, c, v, step, removed):
    """Whether some simple path from node v to Y, over nodes outside the
    mask `removed` and with its second node in the mask `step`, passes C
    with C a non-collider. v, C and Y are distinct nodes outside `removed`.

    Cut such a path v ... C ... Y at C. That gives two paths from C that
    share only C: one ends at v, entering it from a node of `step`; the
    other ends at Y; neither passes through v or Y; and as C is no
    collider, at most one leaves C to a parent of C. Two such paths, joined
    at C, are in turn such a path. Make them paths of a network on the
    nodes outside `removed`: arcs both ways along every edge between nodes
    other than v, Y and C; arcs into v from the nodes of `step`, into Y
    from its neighbours, and none out of either; arcs from C to its
    children and to one virtual node g, and from g to C's parents. The pair
    is then two C-{v, Y} paths of the network that share only C, for g lets
    at most one of them leave C upward. By the fan form of Menger's
    theorem, such paths exist iff no set of fewer than two nodes other than
    C meets every C-{v, Y} path. The empty set does not iff an end is
    reachable. An end alone does not iff both are, as neither end lies on a
    path to the other. Any other single node that meets every path lies on
    the one path P traced below, so each node of P is tested with one
    reachability search.
    """
    y = dag._index[dag.outcome]
    parents, children = dag._pmask, dag._cmask
    adjacency = _skeleton(dag)
    ends = (1 << v) | (1 << y)
    into = (1 << y) | (step >> c & 1) << v  # the ends C has an arc to, should it be adjacent
    exits = step | adjacency[y]  # the nodes with an arc into an end
    inner = ~(ends | 1 << c | removed)
    first = (children[c] | parents[c]) & ~removed  # C's first step, through g or not

    def cut_off(start, cut):
        # no end is reachable from C when its first step is `start` and the
        # nodes of `cut` are taken out too
        if start & into:
            return False
        allowed = inner & ~cut
        seen = frontier = start & allowed
        while frontier:
            if frontier & exits:
                return False
            grown = 0
            for u in _bits(frontier):
                grown |= adjacency[u]
            frontier = grown & allowed & ~seen
            seen |= frontier
        return True

    # one search from C in rounds, until it has reached both ends
    to_v, to_y = (first & into) >> v & 1, first >> y & 1
    rounds = []
    seen = frontier = first & inner
    while frontier and not (to_v and to_y):
        rounds.append(frontier)
        to_v = to_v or frontier & step
        to_y = to_y or frontier & adjacency[y]
        grown = 0
        for u in _bits(frontier):
            grown |= adjacency[u]
        frontier = grown & inner & ~seen
        seen |= frontier
    if not (to_v and to_y):
        return False
    if first & into & children[c]:
        return True  # P is one arc, with no node inside
    if first & into:
        return not cut_off(children[c], 0)  # P is C, g and an end
    # P, traced back from the first round with an arc into an end
    k = next(i for i, r in enumerate(rounds) if r & exits)
    path = [_bits(rounds[k] & exits)[0]]
    for r in reversed(rounds[:k]):
        path.append(_bits(r & adjacency[path[-1]])[0])
    if parents[c] >> path[-1] & 1 and cut_off(children[c], 0):
        return False  # g is on P and cuts
    return not any(cut_off(first, 1 << u) for u in path)


def classify_d2(dag, variable):
    """(verdict, witness path): C appears as a non-collider on some
    backdoor path; the witness is the first such path.

    The verdict is `_d2_holds`; the path search (`_d2_witness`) runs only
    when it holds.
    """
    if not _d2_holds(dag, variable):
        return False, None
    path = _d2_witness(dag, dag._index[variable])
    if path is None:
        raise AssertionError(f"D2 holds for {variable!r} but no backdoor path shows it")
    return True, path


def _d2_witness(dag, c):
    """The first backdoor path with node c a non-collider on it, or None.

    Any node may pass along the path; C must, and not as a collider. Until
    the search has put C on its prefix, it drops a prefix at once when C
    has no entry and exit left that would make it a non-collider (the
    C-exit test, `cut`), and past its plain expansions it asks
    `_d2_completes` of each candidate, with the candidate as the end v.
    The C-exit test is sound: a completion enters C from a neighbour e
    (the candidate itself, or a node off the prefix other than Y) and
    leaves it for a neighbour x off the prefix, e and x distinct, and C is
    a non-collider there iff e or x is a child of C.
    """
    neighbours, below = _skeleton(dag)[c], dag._cmask[c]
    not_y = ~(1 << dag._index[dag.outcome])

    def cut(nxt, inside):
        # keep the prefix when an entry e and an exit x, e != x, have e or
        # x among C's children: two distinct nodes in the masks' union
        exits = neighbours & ~inside
        entries = (exits | neighbours & 1 << nxt) & not_y
        if exits:
            pair = entries & below
            if pair and (pair | exits) & ((pair | exits) - 1):
                return False
            pair = exits & below
            if pair and entries and (pair | entries) & ((pair | entries) - 1):
                return False
        return True

    def completes(nxt, step, inside):
        return _d2_completes(dag, c, nxt, step, inside & ~(1 << nxt))

    return _first_backdoor_path(dag, -1, ~(1 << c), 1 << c, cut, completes)


def classify_d3(dag, variable):
    """C belongs to every minimally sufficient set (vacuously false when
    the only minimal set is the empty one, or none exists)."""
    _require_covariate(dag, variable)
    return minimal_sufficient_sets(dag).member_of_all(variable)


def classify_d4(dag, variable):
    """(verdict, witness minimal set): C belongs to at least one minimally
    sufficient set."""
    _require_covariate(dag, variable)
    for s in minimal_sufficient_sets(dag).sets:
        if variable in s:
            return True, s
    return False, None


def classify_d5(model, variable):
    """(verdict, witness (X, (|bias with C|, |bias without|))): adding C to
    some context strictly shrinks absolute bias.

    Where C is independent of A given X, or of Y given (A, X), adding C
    leaves the risk difference as it is, provided both are defined. So
    when every risk difference is (`_rd_defined`), only the graphical D1
    contexts are tested (see `classify_d1_numeric`); otherwise every
    context is, so the first PositivityViolation or ModelError is raised
    where a full scan raises it.
    """
    for context in _model_contexts(model, variable):
        with_c = model._abs_bias(tuple(sorted(context + (variable,))))
        without = model._abs_bias(context)
        if with_c < without:
            return True, (context, (with_c, without))
    return False, None


def classify_d6(model, variable):
    """(verdict, witness X): adding C to some context changes the
    standardized risk difference. Contexts as for `classify_d5`."""
    for context in _model_contexts(model, variable):
        if model._rd_of(tuple(sorted(context + (variable,)))) != model._rd_of(context):
            return True, context
    return False, None


def surrogate_confounder(model, variable):
    """D5 without D4: bias reduction without membership in any minimal set."""
    return classify_d5(model, variable)[0] and not classify_d4(model.dag, variable)[0]


def conditional_confounder(dag, variable, conditioning=()):
    """(verdict, witness X): C completes some context X to sufficiency on
    top of the fixed set L, with nothing in (X, C) removable.

    True iff for some X: (X, L, C) is sufficient and no proper subset T of
    (X, C) makes (T, L) sufficient. With L = () this is exactly D4. The
    witness is read off the first minimal set given L that holds C
    (`adjust._minimal_sets`). Those sets lie in R(L) (`adjust._relevant`),
    so a C outside it is answered "no" with no set listed.
    """
    _require_covariate(dag, variable)
    conditioning = dag._require_pool(conditioning)
    if variable in conditioning:
        raise OverlappingSets(f"{variable!r} appears in the conditioning set")
    if variable not in _relevant(dag, conditioning):
        return False, None
    for members in _minimal_sets(dag, conditioning):
        if variable in members:
            return True, tuple(name for name in members if name != variable)
    return False, None


def _arrows(edges, table, sep):
    """The arrows of `edges` with both ends in `table` whose premise holds
    and whose conclusion fails, labelled premise, `sep`, conclusion."""
    return [f"{p}{sep}{c}" for p, c in edges if table.get(p) and c in table and not table[c]]


def _broken_arrows(verdicts, d1_numeric):
    """The solid arrows a verdict table breaks, as `check_implications`
    labels them. Model-layer arrows read D1 numerically when given."""
    layer = verdicts if d1_numeric is None else dict(verdicts, D1=d1_numeric)
    return tuple(_arrows(SOLID_GRAPH_EDGES, verdicts, "=>") + _arrows(SOLID_MODEL_EDGES, layer, "=>"))


def _dashed_arrows(verdicts):
    """The dashed arrows a verdict table shows, as `dashed_observations`
    labels them."""
    return tuple(_arrows(DASHED_EDGES, verdicts, "->"))


def _require_complete(report, has_model):
    for def_id in _definitions(None, has_model):
        if def_id not in report.verdicts:
            raise IncompleteReport(f"report for {report.variable!r} lacks {def_id}")


def check_implications(report, has_model):
    """Verify the solid lattice arrows against a report that holds D1-D4,
    and D5 and D6 too when `has_model`.

    Returns (ok, violated edge labels). Graph-layer arrows read D1
    graphically; model-layer arrows read it numerically when available.
    Dashed arrows are never checked here (see dashed_observations).
    """
    _require_complete(report, has_model)
    violated = _broken_arrows(report.verdicts, report.d1_numeric)
    return not violated, violated


def dashed_observations(report, has_model):
    """Dashed arrows whose premise holds but conclusion fails, on a report
    as complete as `check_implications` needs: reported, never a failure."""
    _require_complete(report, has_model)
    return _dashed_arrows(report.verdicts)


def _definitions(defs=None, has_model=True):
    """The definition ids a report evaluates: the sequence `defs`, checked,
    in the order given, or by default every definition the inputs decide.
    The one check of a definition id, and of its need for a model."""
    if defs is None:
        return DEFINITIONS if has_model else GRAPH_DEFINITIONS
    if not defs:
        raise InvalidConfig("the definition list names no definition id")
    unknown = [d for d in defs if d not in DEFINITIONS]
    if unknown:
        raise InvalidConfig(f"unknown definition ids {unknown!r}")
    needing = [d for d in defs if _TABLE[d].on_model]
    if needing and not has_model:
        raise MissingModel(f"{needing[0]} needs --model")
    return defs


def classify_variable(dag, variable, model=None, defs=None):
    """Report for one covariate on the definitions `defs` (default: every
    definition the inputs decide), in the order given: their verdicts, the
    witnesses of those that hold, numeric D1 when D1 is asked with a
    model, surrogate status when D4 and D5 both are, and the lattice and
    dashed arrows whose two ends were evaluated."""
    if model is not None and model.dag is not dag:
        dag = model.dag
    verdicts, witnesses = {}, {}
    for def_id in _definitions(defs, model is not None):
        definition = _TABLE[def_id]
        if definition.evaluate is None:
            verdicts[def_id] = definition.holds(dag, model, variable)
        else:
            verdicts[def_id], witnesses[def_id] = definition.evaluate(dag, model, variable)
    d1_numeric = surrogate = None
    if model is not None:
        if "D1" in verdicts:
            d1_numeric, witnesses["D1_numeric"] = classify_d1_numeric(model, variable)
        if "D4" in verdicts and "D5" in verdicts:
            surrogate = verdicts["D5"] and not verdicts["D4"]
    return ConfounderReport(
        variable=variable,
        verdicts=verdicts,
        witnesses=witnesses,
        surrogate=surrogate,
        lattice_ok=not _broken_arrows(verdicts, d1_numeric),
        d1_numeric=d1_numeric,
        dashed_observations=_dashed_arrows(verdicts),
    )
