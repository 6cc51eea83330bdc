"""Covariate selection procedures driven by an independence oracle.

Three procedures, all deterministic given the oracle:

  robins_reduction   certify that a known-sufficient (S1 u S2) can be cut
                     down to S1 by splitting S2 into a part T1 ignorable
                     for the exposure and a part T2 ignorable for the
                     outcome.
  backward_select    repeatedly drop the first covariate the outcome no
                     longer needs given the exposure and the rest.
  forward_select     grow from nothing, adding the first covariate the
                     outcome still responds to given the exposure and the
                     current set.

The oracle is either graphical (d-separation; selection from a sufficient
set then provably stays sufficient) or numeric (exact CI tests; forward
selection can drop a needed covariate when the CPTs hide a dependence, so
numeric forward traces carry a caveat for every exact-independence hit
that disagrees with the graph).

Backward and forward selection read each scan's verdicts from
`IndependenceOracle._scan`, one member at a time. A graphical scan answers
them all from one Bayes-Ball from the outcome: a backward scan conditions
on every member and reads the members the ball lands on (the kernel's
`landing`), a forward scan conditions on none of its candidates and reads
the ones it reaches (`reachable`). Dropping a member the ball did not land
on leaves the ball as it was, so a whole backward run sends one ball. A
numeric scan runs one exact CI test per verdict read, so it stops at the
scan's first independence, as the traces do.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .adjust import subsets_canonical
from .errors import InvalidConfig, OverlappingSets, SizeLimit
from .graph import d_separated

MAX_REDUCTION = 16


@dataclass(frozen=True)
class IndependenceOracle:
    """Answers 'set_a independent of set_b given z?' either from the graph
    or from a model's exact distribution."""

    kind: str
    source: object
    # the graphical oracle's last landing ball from each source mask,
    # {src: (z, landed)}, which `_scan` reuses where it is the same ball
    _balls: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("graphical", "numeric"):
            raise InvalidConfig(f"oracle kind must be graphical or numeric, got {self.kind!r}")

    @classmethod
    def graphical(cls, dag):
        return cls("graphical", dag)

    @classmethod
    def numeric(cls, model):
        return cls("numeric", model)

    @property
    def dag(self):
        return self.source if self.kind == "graphical" else self.source.dag

    def independent(self, set_a, set_b, given=()):
        if not set_a or not set_b:
            return True
        if self.kind == "graphical":
            return d_separated(self.source, set_a, set_b, given)
        return self.source.ci_test(set_a, set_b, given)

    def _scan(self, target, members, given):
        """For each V of `members` in order, read lazily: is `target`
        independent of V given `given` minus V? The selection procedures
        pass names of the Dag that they have checked.

        The members lie all inside `given` (a backward scan drops each in
        turn) or all outside it (a forward scan tries each on top of it),
        and the first member tells which. The graphical oracle reads them
        off one ball from `target` given `given`: a member inside `given`
        is d-connected to the target given the rest iff the ball lands on
        it (`BitDag.landing`), one outside iff the ball reaches it. The
        numeric oracle asks `independent` for each verdict as it is read.

        Taking out of z a node that the ball given z never arrives at
        changes no move of the ball, since each move depends only on
        whether the node it passes is in z. So where `given` is the z of
        the last landing ball from `target` minus nodes that ball did not
        land on, it is the same ball, and its landing set is the last one
        cut to `given`. A backward scan drops just such a node before the
        next scan, so one ball serves a whole backward run.
        """
        if self.kind == "numeric":
            for variable in members:
                yield self.independent({target}, {variable}, set(given) - {variable})
            return
        index, kernel = self.source._index, self.source._kernel
        z = 0
        for name in given:
            z |= 1 << index[name]
        src = 1 << index[target]
        if z >> index[members[0]] & 1:
            last = self._balls.get(src)
            if last is not None and not z & ~last[0] and not last[0] & ~z & last[1]:
                hit = last[1] & z
            else:
                hit = kernel.landing(src, z)
            self._balls[src] = (z, hit)
        else:
            hit = kernel.reachable(src, z)
        for variable in members:
            yield not (hit >> index[variable] & 1)


@dataclass(frozen=True)
class SelectionTrace:
    """One selection run: every oracle query in order, plus the result.

    steps holds (variable, query, verdict) triples, verdict being the
    oracle's independence answer. caveats flag exact independences that
    are not graphical ones (numeric oracle only).
    """

    initial: tuple[str, ...]
    steps: tuple[tuple[str, str, bool], ...]
    final: tuple[str, ...]
    caveats: tuple[str, ...] = field(default=())


def _query_text(target, variable, given):
    shown = ", ".join(given)
    return f"{target} _|_ {variable} | {shown}" if shown else f"{target} _|_ {variable}"


def robins_reduction(oracle, s1, s2):
    """Can S2 be discarded on top of S1?

    Searches for a split S2 = T1 u T2 with A independent of T1 given S1
    and Y independent of T2 given (A, S1, T1). When (S1 u S2) is
    sufficient and such a split exists, S1 alone is sufficient. Returns
    (found, (T1, T2)) with the canonically first split, or (False, None).
    """
    s1 = oracle.dag._require_pool(s1)
    s2 = oracle.dag._require_pool(s2)
    if set(s1) & set(s2):
        raise OverlappingSets("S1 and S2 share members")
    if len(s2) > MAX_REDUCTION:
        raise SizeLimit(f"S2 has {len(s2)} members; the split search caps at {MAX_REDUCTION}")
    dag = oracle.dag
    a, y = dag.exposure, dag.outcome
    for t1 in subsets_canonical(s2):
        t2 = tuple(name for name in s2 if name not in set(t1))
        if not oracle.independent({a}, set(t1), set(s1)):
            continue
        if oracle.independent({y}, set(t2), {a} | set(s1) | set(t1)):
            return True, (t1, t2)
    return False, None


def backward_select(oracle, start):
    """Prune a covariate set from the back: scan in lexicographic order,
    drop the first V with Y independent of V given (A, rest), restart;
    stop when a full scan drops nothing."""
    start = oracle.dag._require_pool(start)
    dag = oracle.dag
    a, y = dag.exposure, dag.outcome
    current = list(start)
    steps = []
    caveats = []
    changed = True
    while changed:
        changed = False
        scanned = [a] + current
        verdicts = oracle._scan(y, tuple(current), scanned)
        for i, (variable, verdict) in enumerate(zip(current, verdicts), 1):
            given = scanned[:i] + scanned[i + 1:]
            steps.append((variable, _query_text(y, variable, given), verdict))
            if verdict:
                _note_unfaithful(oracle, caveats, y, variable, given)
                current.remove(variable)
                changed = True
                break
    return SelectionTrace(start, tuple(steps), tuple(current), tuple(caveats))


def forward_select(oracle, candidates):
    """Grow a covariate set from the front: add the first candidate V with
    Y dependent on V given (A, current), restart; stop at a fixpoint.

    With a numeric oracle the procedure can stop early on unfaithful
    CPTs; every such exact independence gets a caveat entry.
    """
    candidates = oracle.dag._require_pool(candidates)
    dag = oracle.dag
    a, y = dag.exposure, dag.outcome
    current = []
    steps = []
    caveats = []
    changed = True
    while changed:
        changed = False
        given = [a] + current
        untried = tuple(v for v in candidates if v not in current)
        for variable, verdict in zip(untried, oracle._scan(y, untried, given)):
            steps.append((variable, _query_text(y, variable, given), verdict))
            if verdict:
                _note_unfaithful(oracle, caveats, y, variable, given)
                continue
            current.append(variable)
            current.sort()
            changed = True
            break
    return SelectionTrace(candidates, tuple(steps), tuple(current), tuple(caveats))


def _note_unfaithful(oracle, caveats, y, variable, given):
    if oracle.kind != "numeric":
        return
    if not d_separated(oracle.dag, {y}, {variable}, set(given)):
        caveats.append(
            f"{_query_text(y, variable, given)} holds exactly but {y} and "
            f"{variable} are d-connected; the CPTs hide this dependence"
        )
