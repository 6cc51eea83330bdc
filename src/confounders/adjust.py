"""Backdoor adjustment: sufficiency tests and minimal-set enumeration.

A covariate set S is sufficient when conditioning on it blocks every
backdoor path from exposure to outcome; equivalently, when exposure and
outcome are d-separated by S after deleting the exposure's outgoing edges
(the backdoor graph, `Dag.without_exposure_out_edges`). Every sufficiency
question is asked of the Dag's own kernel instead, in a third form that
needs no backdoor graph: the exposure's parents and the outcome are
d-separated by S plus the exposure (the proof is in `_sufficient`). For one
set the verdict is one kernel query (`_sufficient`). When a set is
insufficient, its witness, the first open backdoor path, comes from a
first-hit search (`_first_backdoor_path`) that stops at that path.
`backdoor_paths` lists every backdoor path; it is the oracle the tests
check the search against.

Questions about every subset of a pool are answered by lanes instead of
one query per subset. Give each of the 2**k subsets of a k-member pool one
bit ("lane") of an int: lane l holds pool member i when bit i of l is set,
the members taken in sorted order. One sliced pass (`graph._sliced_dsep`)
decides the separation in every lane at once, and its answer is a lane
vector. `_minimal_sets` lists the minimal sets given a fixed set L: the
sufficient lanes from which no member can be dropped (`_minimal_lanes`),
of one pass over the pool members that are ancestors of A, Y or L, where
every minimal set lies and which the size cap counts. Each Dag keeps the
catalog (L empty); the conditional confounder asks for its own L. A Dag
also keeps its sufficiency vector (`_sufficiency_vector`), one pass over
the whole pool, lane l set when the subset l is sufficient, for property
2A and the fuzzer; its size cap counts the pool. D1 runs passes of its
own.

A lane vector is turned back into sets in canonical order: by size, then
lexicographically by the sorted name tuple (`graph._lane_sets`); this is
also the order of `subsets_canonical`, which the subset scans that remain
(selection, and D5 and D6 on a model with an undefined risk difference)
walk. Every "first witness" set in the package means first in that order,
and every first witness path means first in the lexicographic order of
`backdoor_paths`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeLimit
from .graph import Path, _first_path, _lane_pattern, _lane_sets, _sliced_dsep, enumerate_paths

MAX_POOL = 24


@dataclass(frozen=True)
class AdjustmentVerdict:
    """Outcome of a sufficiency test for one covariate set."""

    set: tuple[str, ...]
    sufficient: bool
    minimal: bool
    open_backdoor_witness: Path | None


@dataclass(frozen=True)
class MinimalSetCatalog:
    """Every minimally sufficient adjustment set, in canonical order."""

    sets: tuple[tuple[str, ...], ...]
    union: tuple[str, ...]

    def __contains__(self, covariates):
        return tuple(sorted(covariates)) in self.sets

    def member_of_all(self, name):
        return bool(self.sets) and all(name in s for s in self.sets)


def subsets_canonical(names):
    """Subsets of `names` in canonical order (size, then lexicographic)."""
    names = sorted(names)
    for r in range(len(names) + 1):
        yield from combinations(names, r)


def _require_enumerable(names, what):
    """The names, unless `what` would enumerate the subsets of too many."""
    if len(names) > MAX_POOL:
        raise SizeLimit(
            f"{what} enumerates the subsets of {len(names)} covariates "
            f"and refuses beyond {MAX_POOL}"
        )
    return names


def backdoor_paths(dag):
    """Exposure-outcome paths that start with an edge into the exposure,
    in lexicographic order.

    Lists every path, so its cost grows with the path count, which is
    exponential in density. The registry lists paths with it and the tests
    use it as the oracle; verdicts and witnesses do not call it.
    """
    return tuple(
        p for p in enumerate_paths(dag, dag.exposure, dag.outcome) if p.starts_into_source
    )


def _sufficient(dag, covariates):
    """Whether the set S (`covariates`) is sufficient: one kernel query on
    the Dag, pa(A) and Y d-separated given S ∪ {A}.

    S separates A and Y in the backdoor graph G' (the Dag G less A's
    outgoing edges) iff it does so in this form on G. Compare the two
    Bayes-Ball games, from A on G' given S and from pa(A) on G given
    S ∪ {A}; d-separation holds iff the game's ball misses Y.
    (a) A has no children in G', so the ball leaves A only going up into
        a parent: the paths of G' from A are the balls started going up
        at pa(A), the start of the second game. A parent in S stops its
        ball in both.
    (b) G and G' differ only in A's outgoing edges, which a ball crosses
        only by passing down through A or by climbing into A from a
        child. Conditioning on A stops both in the second game, as the
        missing edges do in the first.
    (c) A ball that comes down into A, conditioned, bounces up to a parent
        of A, going up: a state the second game starts in, so the bounce
        adds nothing.
    Every other move is the same in both games, so the ball reaches the
    same nodes other than A, and Y in one iff in the other. Y may be a
    parent of A; it is then a source, reached in every game.
    """
    a = dag._index[dag.exposure]
    return dag._kernel.dsep(dag._pmask[a], 1 << dag._index[dag.outcome], dag._mask(covariates) | 1 << a)


def _first_backdoor_path(dag, noncollider_ok, collider_ok, through=0, cut=None, completes=None):
    """The first backdoor path, in the order of `backdoor_paths`, whose
    interior nodes are admissible and which visits every node of `through`.

    Masks over the Dag's node indices: an interior node where the path
    passes through must be in `noncollider_ok`, one where both edges point
    in must be in `collider_ok`. None when no backdoor path qualifies.
    `cut` and `completes` test a prefix that has not visited `through`, as
    `graph._first_path` states.
    """
    a, y = dag._index[dag.exposure], dag._index[dag.outcome]
    return _first_path(dag, a, y, dag._pmask[a], noncollider_ok, collider_ok, through, cut, completes)


def _open_backdoor_witness(dag, covariates):
    # open: an unconditioned non-collider, or a collider with itself or a
    # descendant conditioned on, i.e. a collider among the ancestors of S
    given = dag._mask(covariates)
    path = _first_backdoor_path(dag, ~given, dag._kernel.closure_up(given))
    if path is None:
        raise AssertionError("insufficient set with every backdoor path blocked")
    return path


def _sufficient_lanes(dag, members, fixed=()):
    """One sliced pass over the subsets of `members` (sorted pool names):
    lane l is set iff `fixed` plus the members it selects is sufficient:
    pa(A) and Y d-separated given those plus A, as in `_sufficient`."""
    a = dag._index[dag.exposure]
    return _sliced_dsep(
        dag,
        dag._pmask[a],
        1 << dag._index[dag.outcome],
        dag._mask(fixed) | 1 << a,
        [dag._index[name] for name in members],
    )


def _sufficiency_vector(dag):
    """The pool's sufficiency vector: one pass over the whole covariate
    pool, computed once per Dag. The size cap counts the pool, which it
    enumerates."""
    if dag._sufficiency is None:
        pool = _require_enumerable(dag.covariate_pool, "the sufficiency vector of the covariate pool")
        dag._sufficiency = _sufficient_lanes(dag, pool)
    return dag._sufficiency


def _minimal_lanes(sufficient, k):
    """The lanes of `sufficient` (a 2**k-lane vector) that have no
    sufficient strict subset: the sufficient lanes with no sufficient lane
    one member smaller, one shift per member.

    Minimality is local. Let Z separate A and Y in the backdoor graph (A's
    outgoing edges deleted), let Z' ⊊ Z also separate, and D = Z ∖ Z'.
    (a) Say some z ∈ D is not an ancestor of {A, Y} ∪ Z ∖ {z}. Every node
        of a path that is open given Z ∖ {z} lies in An({A, Y} ∪ Z ∖ {z}),
        so such a path avoids z; conditioning on z, off the path, cannot
        block it, so it is open given Z, which cannot be. Hence Z ∖ {z}
        separates.
    (b) Otherwise every z ∈ D is an ancestor of {A, Y} ∪ Z ∖ {z}. By
        acyclicity An({A, Y} ∪ W) is one set H for W = Z, Z' and Z ∖ {z}.
        In the moral graph of H, Z' separates, so its superset Z ∖ {z}
        separates too (the moralization criterion).
    Either way Z has a sufficient subset one member smaller. With a set L
    conditioned in every lane, take Z' ⊇ L: D lies in the lane members,
    so the member dropped is a lane bit.
    """
    strict = 0
    for j in range(k):
        strict |= (sufficient & ~_lane_pattern(k, j)) << (1 << j)
    return sufficient & ~strict


def _is_minimal(dag, covariates):
    """No strict subset of the (sufficient) set is sufficient: by the
    lemma of `_minimal_lanes`, no set one member smaller is, one kernel
    query per member."""
    return not any(
        _sufficient(dag, covariates[:i] + covariates[i + 1:]) for i in range(len(covariates))
    )


def is_sufficient(dag, covariates):
    """Test one adjustment set. Members must come from the covariate pool.

    When the set is insufficient the verdict carries the first open
    backdoor path as a witness; when sufficient, whether it is minimal.
    The verdict is one kernel query, the witness a first-hit path search
    and minimality one kernel query per member, for a set of any size;
    callers that read only the verdict call `_sufficient`.
    """
    covariates = dag._require_pool(covariates)
    if _sufficient(dag, covariates):
        return AdjustmentVerdict(covariates, True, _is_minimal(dag, covariates), None)
    return AdjustmentVerdict(covariates, False, False, _open_backdoor_witness(dag, covariates))


def _relevant(dag, fixed=()):
    """R(L): the pool members outside the fixed set L (`fixed`, pool
    names) in An({A, Y} ∪ L), in pool order. Every minimal set given L lies
    in it (`_minimal_sets`)."""
    index = dag._index
    given = dag._mask(fixed)
    ends = 1 << index[dag.exposure] | 1 << index[dag.outcome]
    hull = dag._kernel.closure_up(ends | given) & ~given
    return tuple(name for name in dag.covariate_pool if hull >> index[name] & 1)


def _minimal_sets(dag, fixed=()):
    """The sets Z of pool members outside the fixed set L (`fixed`, sorted
    pool names) such that Z plus L is sufficient and no strict subset of Z
    plus L is, in canonical order: the minimal separators of van der Zander,
    Liśkiewicz & Textor (2019). With L = () they are the minimal sets.

    The minimal lanes of one pass with L conditioned in every lane, over
    R(L): the pool members outside L in An({A, Y} ∪ L). The size cap is on
    R(L), which holds every minimal Z. By the lemma of `_minimal_lanes`,
    each member of Z is an ancestor of {A, Y} ∪ L or of another member.
    Take a member outside An({A, Y} ∪ L) that is last in topological order:
    it is no ancestor of {A, Y} ∪ L, nor of another member, which would be
    outside too and later in the order; so none is outside. (The lemma's
    ancestors are those of the backdoor graph, ancestors in the Dag too.)
    """
    a, y = dag.exposure, dag.outcome
    members = _relevant(dag, fixed)
    ends, outside = (f"{a}, {y} or L", "outside L ") if fixed else (f"{a} or {y}", "")
    what = f"the minimal-set search over R (the pool members {outside}that are ancestors of {ends})"
    _require_enumerable(members, what)
    sufficient = _sufficient_lanes(dag, members, fixed)
    return _lane_sets(_minimal_lanes(sufficient, len(members)), members)


def minimal_sufficient_sets(dag):
    """Every minimally sufficient adjustment set (`_minimal_sets` given no
    L), listed once per Dag: none when no set is sufficient, (()) when the
    empty set is."""
    if dag._catalog is None:
        minimal = tuple(_minimal_sets(dag))
        dag._catalog = MinimalSetCatalog(minimal, tuple(sorted(set().union(*minimal))))
    return dag._catalog
