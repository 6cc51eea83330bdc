"""Backdoor adjustment: sufficiency tests and minimal-set enumeration.

A covariate set S is sufficient when conditioning on it blocks every
backdoor path from exposure to outcome; equivalently, when exposure and
outcome are d-separated by S after deleting the exposure's outgoing edges.
Both characterizations are implemented (the second is what runs; the first
supplies human-readable witnesses) and the tests cross-check them.

All candidate sets are visited in canonical order: by size, then
lexicographically by the sorted name tuple. Every "first witness" in the
package means first in that order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NonCovariateInSet, SizeLimit
from .graph import Path, enumerate_paths, is_blocked

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

    def member_of_any(self, name):
        return any(name in s for s in self.sets)


def subsets_canonical(names, max_size=None):
    """Subsets of `names` in canonical order (size, then lexicographic)."""
    names = sorted(names)
    top = len(names) if max_size is None else min(max_size, len(names))
    for r in range(top + 1):
        yield from combinations(names, r)


def _require_pool(dag, covariates):
    pool = set(dag.covariate_pool)
    out = []
    for name in sorted(set(covariates)):
        if name not in pool:
            raise NonCovariateInSet(f"{name!r} is not in the covariate pool")
        out.append(name)
    return tuple(out)


def _require_enumerable(pool, what):
    if len(pool) > MAX_POOL:
        raise SizeLimit(
            f"covariate pool has {len(pool)} members; {what} enumerates subsets "
            f"and refuses beyond {MAX_POOL}"
        )


def backdoor_paths(dag):
    """Exposure-outcome paths that start with an edge into the exposure,
    in lexicographic order."""
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


def _open_backdoor_witness(dag, covariates):
    for path in backdoor_paths(dag):
        if not is_blocked(dag, path, covariates):
            return path
    raise AssertionError("insufficient set with every backdoor path blocked")


def _is_minimal(dag, covariates):
    for sub in subsets_canonical(covariates, len(covariates) - 1):
        if _sufficient(dag, sub):
            return False
    return True


def is_sufficient(dag, covariates):
    """Test one adjustment set. Members must come from the covariate pool.

    When the set is insufficient the verdict carries the first open
    backdoor path as a witness; when sufficient, whether it is minimal.
    """
    covariates = _require_pool(dag, covariates)
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


def union_of_minimal(dag, catalog=None):
    """Sufficiency verdict for the union of all minimal sets.

    On any DAG whose outcome is not an ancestor of the exposure this union
    is itself sufficient; the fuzzer asserts exactly that.
    """
    if catalog is None:
        catalog = minimal_sufficient_sets(dag)
    return is_sufficient(dag, catalog.union)
