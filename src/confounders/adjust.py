"""Backdoor adjustment: sufficiency tests and minimal-set enumeration.

A covariate set S is sufficient when conditioning on it blocks every
backdoor path from exposure to outcome; equivalently, when exposure and
outcome are d-separated by S after deleting the exposure's outgoing edges.
The verdict is that second characterization, one kernel query
(`_sufficient`). When a set is insufficient, its witness, the first open
backdoor path, comes from a first-hit search (`_first_backdoor_path`) that
stops at that path. `backdoor_paths` lists every backdoor path; it is the
oracle the tests check the search against.

All candidate sets are visited in canonical order: by size, then
lexicographically by the sorted name tuple. Every "first witness" set in
the package means first in that order, and every first witness path means
first in the lexicographic order of `backdoor_paths`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeLimit
from .graph import Path, _first_path, enumerate_paths

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


def subsets_canonical(names, max_size=None):
    """Subsets of `names` in canonical order (size, then lexicographic)."""
    names = sorted(names)
    top = len(names) if max_size is None else min(max_size, len(names))
    for r in range(top + 1):
        yield from combinations(names, r)


def _require_enumerable(pool, what):
    if len(pool) > MAX_POOL:
        raise SizeLimit(
            f"covariate pool has {len(pool)} members; {what} enumerates subsets "
            f"and refuses beyond {MAX_POOL}"
        )


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
    graph = dag.without_exposure_out_edges()
    return graph._kernel.dsep(
        1 << graph._index[dag.exposure],
        1 << graph._index[dag.outcome],
        graph._mask(covariates),
    )


def _first_backdoor_path(dag, noncollider_ok, collider_ok, through=0):
    """The first backdoor path, in the order of `backdoor_paths`, whose
    interior nodes are admissible and which visits every node of `through`.

    Masks over the Dag's node indices: an interior node where the path
    passes through must be in `noncollider_ok`, one where both edges point
    in must be in `collider_ok`. None when no backdoor path qualifies.
    """
    a = dag._index[dag.exposure]
    return _first_path(
        dag,
        a,
        dag._index[dag.outcome],
        dag._kernel.parents_mask(a),
        noncollider_ok,
        collider_ok,
        through,
    )


def _open_backdoor_witness(dag, covariates):
    # open: an unconditioned non-collider, or a collider with itself or a
    # descendant conditioned on, i.e. a collider among the ancestors of S
    given = dag._mask(covariates)
    path = _first_backdoor_path(dag, ~given, dag._kernel.closure_up(given))
    if path is None:
        raise AssertionError("insufficient set with every backdoor path blocked")
    return path


def _is_minimal(dag, covariates):
    for sub in subsets_canonical(covariates, len(covariates) - 1):
        if _sufficient(dag, sub):
            return False
    return True


def is_sufficient(dag, covariates):
    """Test one adjustment set. Members must come from the covariate pool.

    When the set is insufficient the verdict carries the first open
    backdoor path as a witness; when sufficient, whether it is minimal.
    The verdict is one kernel query, the witness a first-hit path search
    and minimality a scan of the proper subsets; callers that read only
    the verdict call `_sufficient`.
    """
    covariates = dag._require_pool(covariates)
    if _sufficient(dag, covariates):
        return AdjustmentVerdict(covariates, True, _is_minimal(dag, covariates), None)
    return AdjustmentVerdict(covariates, False, False, _open_backdoor_witness(dag, covariates))


def minimal_sufficient_sets(dag):
    """Enumerate every minimally sufficient adjustment set.

    Ascends by subset size, skipping supersets of sets already found; any
    sufficient set must contain a smaller minimal one, so the survivors are
    exactly the minimal sets. An insufficiency everywhere yields an empty
    catalog; a sufficient empty set yields the one-entry catalog (()).
    """
    pool = dag.covariate_pool
    _require_enumerable(pool, "minimal_sufficient_sets")
    minimal = []
    for candidate in subsets_canonical(pool):
        cand_set = set(candidate)
        if any(set(m) <= cand_set for m in minimal):
            continue
        if _sufficient(dag, candidate):
            minimal.append(candidate)
    union = tuple(sorted(set().union(*map(set, minimal)))) if minimal else ()
    return MinimalSetCatalog(tuple(minimal), union)

