"""Directed acyclic graphs with named nodes, paths, and d-separation.

A Graph keeps its adjacency once, as parent, child and skeleton bitmasks,
and asks the reachability kernel (confounders._kernels) only for what the
masks do not give directly: the closure of a set under ancestors or
descendants, and d-separation (`d_separated`). Every derived graph
(`subgraph`, `without_edges_into`, `without_edges_from`) is built by one
factory, so a Dag's derived graphs keep its exposure, outcome and declared
pre-exposure set wherever both ends survive. The factory builds index,
masks and kernel straight from the filtered edges, with none of the
constructor's checks, which the parent graph has passed, as `Dag._trusted`
does for the fuzzer's draws; the topological order of such a graph is
computed on first use. Literal path enumeration
(`enumerate_paths` + `is_blocked`) is the oracle: the test suite
cross-checks the kernel against it on random graphs, and the registry uses
it to list paths. A single path that explains a verdict comes from
`_first_path`, a depth-first search in the same lexicographic order that
stops at the first admissible path instead of listing them all. It reads
its candidates in name order off each step mask, with no neighbour table,
and after a few plain expansions keeps only candidates from which an
exact test (a ball for open paths, the caller's own test for D2) finds a
completion, so it never backtracks far and needs no expansion cap. A question
asked of every subset of a set of nodes, such as "which conditioning sets
separate these two nodes?", is one `_sliced_dsep` pass that answers all the
subsets at once, one bit ("lane") of an int per subset; `_lane_sets` reads
the marked subsets back in canonical order.

Node sets returned by queries are frozensets; anything order-sensitive
(paths, topological order) comes back as tuples. All tie-breaking is
lexicographic by node name, so every operation is deterministic: a check
that meets several bad names in a set names the first in sorted order.
"""
from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import cache

from ._kernels import BitDag
from .errors import (
    CycleDetected,
    DuplicateEdge,
    GraphError,
    InvalidNodeName,
    InvalidPath,
    MissingExposureOrOutcome,
    NonCovariateInSet,
    OverlappingConditioningSet,
    OverlappingSets,
    SelfLoop,
    SizeLimit,
    UnknownNode,
)

_BAD_NAME = re.compile(r"[\s,]")

MAX_NODES = 64
_LANE_BITS = 16  # a `_sliced_dsep` pass holds lane masks of at most 2**16 bits


@dataclass(frozen=True)
class Path:
    """A simple path: node names plus one arrow per step, "->" or "<-".

    arrows[i] == "->" means nodes[i] -> nodes[i+1] in the graph;
    "<-" means the edge points back toward nodes[i].
    """

    nodes: tuple[str, ...]
    arrows: tuple[str, ...]

    def __str__(self):
        out = [self.nodes[0]]
        for arrow, node in zip(self.arrows, self.nodes[1:]):
            out.append(arrow)
            out.append(node)
        return " ".join(out)

    def __len__(self):
        return len(self.nodes)

    @property
    def interior(self):
        return self.nodes[1:-1]

    def is_collider_at(self, i):
        """True iff position i (0-based, interior only) has both arrows in."""
        if not 0 < i < len(self.nodes) - 1:
            raise IndexError(f"position {i} is not interior to the path")
        return self.arrows[i - 1] == "->" and self.arrows[i] == "<-"

    @property
    def starts_into_source(self):
        """True iff the first edge points into the path's starting node."""
        return self.arrows[0] == "<-"


class Graph:
    """Immutable DAG. Construction validates names, edges, and acyclicity."""

    __slots__ = ("nodes", "edges", "_index", "_pmask", "_cmask", "_kernel", "_topo", "_adjacency")

    def __init__(self, nodes, edges):
        nodes = tuple(nodes)
        seen = set()
        for name in nodes:
            if not isinstance(name, str) or not name or _BAD_NAME.search(name):
                raise InvalidNodeName(
                    f"bad node name {name!r}: need a non-empty string with no whitespace or commas"
                )
            if name in seen:
                raise GraphError(f"duplicate node {name!r}")
            seen.add(name)
        if len(nodes) > MAX_NODES:
            raise SizeLimit(f"{len(nodes)} nodes exceeds the {MAX_NODES}-node kernel limit")
        edge_list = []
        edge_seen = set()
        for u, v in edges:
            if u not in seen:
                raise UnknownNode(f"edge endpoint {u!r} is not a node")
            if v not in seen:
                raise UnknownNode(f"edge endpoint {v!r} is not a node")
            if u == v:
                raise SelfLoop(f"self loop on {u!r}")
            if (u, v) in edge_seen:
                raise DuplicateEdge(f"duplicate edge {u!r} -> {v!r}")
            edge_seen.add((u, v))
            edge_list.append((u, v))
        self._build(nodes, tuple(edge_list))
        self._topo = self._toposort()

    def _build(self, nodes, edges):
        """Index, masks and kernel from nodes and edges already checked:
        the one place every graph is built. The topological order is left
        for its first use."""
        self.nodes = nodes
        self.edges = edges
        index = self._index = {name: i for i, name in enumerate(nodes)}
        pmask = [0] * len(nodes)
        cmask = [0] * len(nodes)
        for u, v in edges:
            iu, iv = index[u], index[v]
            pmask[iv] |= 1 << iu
            cmask[iu] |= 1 << iv
        self._pmask = pmask
        self._cmask = cmask
        self._kernel = BitDag(pmask)
        self._topo = None
        self._adjacency = None  # _skeleton, made on first use

    def _toposort(self):
        n = len(self.nodes)
        indeg = [self._pmask[i].bit_count() for i in range(n)]
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            m = self._cmask[i]
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
        if len(order) < n:
            raise CycleDetected("cycle: " + self._find_cycle(set(range(n)) - set(order)))
        return tuple(self.nodes[i] for i in order)

    def _find_cycle(self, remaining):
        # every remaining node keeps a parent in `remaining`; walk parents
        # until a node repeats, then read the loop off in edge direction
        start = min(remaining)
        walk = [start]
        pos = {start: 0}
        while True:
            m = self._pmask[walk[-1]]
            while m:
                low = m & -m
                p = low.bit_length() - 1
                if p in remaining:
                    break
                m ^= low
            if p in pos:
                loop = walk[pos[p]:] + [p]
                return " -> ".join(self.nodes[i] for i in reversed(loop))
            pos[p] = len(walk)
            walk.append(p)

    # -- low-level helpers ------------------------------------------------

    def _require(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNode(f"unknown node {name!r}") from None

    def _mask(self, names):
        """The mask of the named nodes. An unknown name raises UnknownNode
        for the first unknown name in sorted order."""
        index = self._index
        m = 0
        try:
            for name in names:
                m |= 1 << index[name]
        except KeyError:
            self._require(min((name for name in names if name not in index), key=str))
        return m

    def _names(self, mask):
        out = set()
        while mask:
            low = mask & -mask
            out.add(self.nodes[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- queries -----------------------------------------------------------

    @property
    def topological_order(self):
        if self._topo is None:
            self._topo = self._toposort()
        return self._topo

    def has_edge(self, u, v):
        return bool(self._pmask[self._require(v)] >> self._require(u) & 1)

    def parents(self, node):
        return self._names(self._pmask[self._require(node)])

    def children(self, node):
        return self._names(self._cmask[self._require(node)])

    def ancestors(self, node):
        """Strict ancestors."""
        bit = 1 << self._require(node)
        return self._names(self._kernel.closure_up(bit) ^ bit)

    def descendants(self, node):
        """Strict descendants."""
        bit = 1 << self._require(node)
        return self._names(self._kernel.closure_down(bit) ^ bit)

    def nondescendants(self, node):
        """Everything except the node and its descendants."""
        all_mask = (1 << len(self.nodes)) - 1
        return self._names(all_mask & ~self._kernel.closure_down(1 << self._require(node)))

    def adjacent(self, node):
        i = self._require(node)
        return self._names(self._pmask[i] | self._cmask[i])

    # -- surgery -----------------------------------------------------------

    def subgraph(self, keep):
        keep = frozenset(keep)
        self._mask(keep)  # every name must be a node
        return self._derived(
            tuple(n for n in self.nodes if n in keep),
            tuple((u, v) for u, v in self.edges if u in keep and v in keep),
        )

    def without_edges_into(self, node):
        self._require(node)
        return self._derived(self.nodes, tuple(e for e in self.edges if e[1] != node))

    def without_edges_from(self, node):
        self._require(node)
        return self._derived(self.nodes, tuple(e for e in self.edges if e[0] != node))

    def _derived(self, nodes, edges):
        """The graph on `nodes`, a subsequence of this graph's, and `edges`,
        a subsequence of its edges: built with no checks, which this graph
        has passed."""
        graph = Graph.__new__(Graph)
        graph._build(nodes, edges)
        return graph

    def __repr__(self):
        return f"{type(self).__name__}({len(self.nodes)} nodes, {len(self.edges)} edges)"


class Dag(Graph):
    """A Graph plus an exposure, an outcome, and the derived covariate pool.

    `declared_pre` optionally narrows the pool to declared pre-exposure
    covariates; when absent every nondescendant of the exposure (bar the
    outcome) is eligible for adjustment.
    """

    __slots__ = (
        "exposure", "outcome", "declared_pre", "_pool", "_sufficiency", "_catalog",
        "_d1_probe", "_d1_filter", "_d1",
    )

    def __init__(self, nodes, edges, exposure, outcome, declared_pre=None):
        super().__init__(nodes, edges)
        if exposure not in self._index or outcome not in self._index or exposure == outcome:
            raise MissingExposureOrOutcome(
                f"need one exposure and one distinct outcome among the nodes; "
                f"got exposure={exposure!r}, outcome={outcome!r}"
            )
        if declared_pre is not None:
            declared_pre = frozenset(declared_pre)
            self._mask(declared_pre)  # every name must be a node
        self._bind(exposure, outcome, declared_pre)

    def _bind(self, exposure, outcome, declared_pre):
        self.exposure = exposure
        self.outcome = outcome
        self.declared_pre = declared_pre
        self._pool = None
        self._sufficiency = None  # adjust._sufficiency_vector
        self._catalog = None  # adjust.minimal_sufficient_sets
        self._d1_probe = None  # classify._probe_mask, made on first use
        self._d1_filter = None  # classify._connectable_mask, made on first use
        self._d1 = None  # classify._d1_lanes: {covariate: lane vector}, made on first use

    @property
    def covariate_pool(self):
        """Adjustable names: nondescendants of the exposure, minus exposure
        and outcome, narrowed to the declared pre-exposure set if given.
        Sorted tuple (cached)."""
        if self._pool is None:
            pool = self.nondescendants(self.exposure) - {self.exposure, self.outcome}
            if self.declared_pre is not None:
                pool &= self.declared_pre
            self._pool = tuple(sorted(pool))
        return self._pool

    def _require_pool(self, names):
        """The distinct names, sorted; each must be in the covariate pool."""
        out = tuple(sorted(set(names)))
        pool = self.covariate_pool
        for name in out:
            if name not in pool:
                raise NonCovariateInSet(f"{name!r} is not in the covariate pool")
        return out

    def without_exposure_out_edges(self):
        """The Dag with the exposure's outgoing edges removed, the backdoor
        graph, built on each call (not cached).

        Separation of exposure and outcome in this graph, given S, is the
        backdoor sufficiency test for S. The package asks that question of
        the Dag's own kernel (`adjust._sufficient`); this graph is the
        oracle the tests check it against.
        """
        return self.without_edges_from(self.exposure)

    @classmethod
    def _trusted(cls, nodes, edges, exposure, outcome, declared_pre=None):
        """The Dag on node and edge tuples that pass its checks, built without them."""
        dag = cls.__new__(cls)
        dag._build(nodes, edges)
        dag._bind(exposure, outcome, declared_pre)
        return dag

    def _derived(self, nodes, edges):
        """A Dag with this exposure and outcome when `nodes` keeps both,
        its declared pre-exposure set cut to `nodes`; a Graph otherwise."""
        if self.exposure not in nodes or self.outcome not in nodes:
            return Graph._derived(self, nodes, edges)
        pre = None if self.declared_pre is None else self.declared_pre.intersection(nodes)
        return Dag._trusted(nodes, edges, self.exposure, self.outcome, pre)

    def __repr__(self):
        return (
            f"Dag({len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"exposure={self.exposure!r}, outcome={self.outcome!r})"
        )


def _disjoint(parts):
    """Raise OverlappingSets, naming the first shared name in sorted order,
    unless the sets are pairwise disjoint."""
    flat = frozenset().union(*parts)
    if len(flat) < sum(map(len, parts)):
        shared = [name for name in flat if sum(name in part for part in parts) > 1]
        raise OverlappingSets(
            f"node {min(shared, key=str)!r} appears in more than one argument set"
        )


# the argument types `d_separated` reads straight into masks: each can be
# read twice, should an error need naming
_REREADABLE = frozenset({frozenset, set, tuple, list})


def d_separated(graph, set_a, set_b, given=()):
    """True iff `given` blocks every path between set_a and set_b.

    The three sets must be pairwise disjoint. Decided by the reachability
    kernel; symmetric in set_a and set_b. Lists, tuples and sets of node
    names go straight to masks; other arguments, and any that holds an
    unknown or shared name, take the frozenset route, which raises the
    error and names the node.
    """
    index, masks = graph._index, []
    try:
        for part in (set_a, set_b, given):
            if type(part) not in _REREADABLE:
                break
            m = 0
            for name in part:
                m |= 1 << index[name]
            masks.append(m)
    except (KeyError, TypeError):
        pass
    if len(masks) == 3 and not (masks[0] & masks[1] or (masks[0] | masks[1]) & masks[2]):
        return graph._kernel.dsep(*masks)
    set_a, set_b, given = frozenset(set_a), frozenset(set_b), frozenset(given)
    _disjoint((set_a, set_b, given))
    return graph._kernel.dsep(graph._mask(set_a), graph._mask(set_b), graph._mask(given))


def enumerate_paths(graph, source, target):
    """All simple paths between two nodes, ignoring edge direction.

    Returned in lexicographic order of the node-name sequence (the DFS
    expands neighbors in name order, which yields exactly that order).
    The count grows exponentially with density; this listing is the
    oracle for `_first_path`, which stops at the first path it needs.
    """
    si, ti = graph._require(source), graph._require(target)
    if si == ti:
        raise GraphError("path endpoints must differ")
    neighbor_names = {
        name: sorted(graph.adjacent(name)) for name in graph.nodes
    }
    out = []
    stack_nodes = [source]
    stack_arrows = []
    on_path = {source}

    def dfs(current):
        if current == target:
            out.append(Path(tuple(stack_nodes), tuple(stack_arrows)))
            return
        for nxt in neighbor_names[current]:
            if nxt in on_path:
                continue
            on_path.add(nxt)
            stack_nodes.append(nxt)
            stack_arrows.append("->" if graph.has_edge(current, nxt) else "<-")
            dfs(nxt)
            stack_nodes.pop()
            stack_arrows.pop()
            on_path.discard(nxt)

    dfs(source)
    return tuple(out)


def _skeleton(graph):
    """Each node's skeleton mask, built on first use and kept on the graph."""
    if graph._adjacency is None:
        graph._adjacency = tuple(map(int.__or__, graph._pmask, graph._cmask))
    return graph._adjacency


PLAIN_EXPANSIONS = 16  # prefixes a `_first_path` search extends before it tests each candidate


def _first_path(
    graph, source, target, first_step, noncollider_ok, collider_ok, through=0, cut=None, completes=None
):
    """The lexicographically first simple path from source to target whose
    second node is in `first_step`, whose interior nodes are each admissible
    (in `noncollider_ok` where the path passes through, in `collider_ok`
    where both its edges point in) and which visits every node of `through`.
    None when no such path exists.

    Nodes are indices and sets are bitmasks. A depth-first search extends a
    prefix by each candidate next node in name order, as `enumerate_paths`
    expands neighbours, so the result is the first admissible entry of that
    listing. A candidate is the node `nxt` a prefix can step to: off the
    prefix and in the *step* of its last node, the neighbours that node may
    move to as it was entered (to parents and children when it was entered
    along an arrow into it and may be a collider and a non-collider; to
    every neighbour when entered against an arrow and it may pass). Every
    cut below drops only a prefix with no admissible completion, so the
    order is kept:
    - a candidate whose own step is empty, bar the target;
    - while `through` is not visited, a candidate for which `cut(nxt,
      inside)` holds, `inside` the prefix with nxt appended: a cheap test
      the caller vouches is sound;
    - once the search has extended PLAIN_EXPANSIONS prefixes, every
      candidate with no completion: an exact test, `completes(nxt, step,
      inside)` while `through` is not visited (the caller's; for D2,
      `classify._d2_completes`, with its Menger proof), and otherwise a ball
      from nxt (`_ball_reaches`, with the proof below).
    Past the threshold every prefix the search extends can be completed,
    so one of its candidates passes the test and the search never
    backtracks from it: it backtracks only through the PLAIN_EXPANSIONS
    prefixes extended before, and from the first prefix it extends past
    the threshold it walks straight to the target, testing at most one
    step's candidates a level. No search runs unbounded, and none is
    capped.

    The ball is exact when every ancestor of an admissible collider off the
    prefix is an admissible collider too: the open-backdoor witness, where
    colliders are the ancestors of S, and the D2 witness once C is on the
    prefix, where every other node is admissible. A completion is an
    admissible path from nxt, off the prefix, whose second node is in
    nxt's step; the ball follows every such path, so it finds each one.
    Conversely, the ball's moves trace a walk from nxt to the target, off
    the prefix, that starts in nxt's step and whose every visit to a node x
    is admissible: as a non-collider x is in `noncollider_ok`, as a collider
    in `collider_ok`. Cut the walk at a node x it visits twice, from the
    edge it first enters x by to the edge it last leaves x by. If x passes
    there, one of those two edges leaves x, and the visit of x it belongs to
    had x pass too, so x is in `noncollider_ok`. If x is a collider there,
    either it was one at one of the two visits, or the walk left x along an
    arrow out of x at its first visit and came back into x: between them it
    turned at a collider, the first below x, so x is an ancestor of an
    admissible collider and admissible as one itself. Each cut keeps the
    walk admissible and off the prefix, and the walk never returns to nxt
    (on the prefix), so the cuts end in a completion.
    """
    parents, children = graph._pmask, graph._cmask
    adjacency = _skeleton(graph)
    nodes = graph.nodes
    # candidates wait as masks over places in name order: a node's place is
    # its index when index order is name order, and its rank otherwise
    if list(nodes) == sorted(nodes):
        rank = order = None
    else:
        order = sorted(range(len(nodes)), key=nodes.__getitem__)
        rank = [0] * len(nodes)
        for place, i in enumerate(order):
            rank[i] = place
    plain = PLAIN_EXPANSIONS
    path, inside = [source], 1 << source
    waiting = [_ranked(first_step & ~inside, rank)]
    while waiting:
        current = path[-1]
        left = waiting[-1]
        while left:
            low = left & -left
            left ^= low
            nxt = low.bit_length() - 1 if order is None else order[low.bit_length() - 1]
            if nxt == target:
                if through & ~inside:
                    continue
                path.append(nxt)
                names = tuple(nodes[i] for i in path)
                arrows = tuple("->" if parents[v] >> u & 1 else "<-" for u, v in zip(path, path[1:]))
                return Path(names, arrows)
            after = inside | 1 << nxt
            if parents[nxt] >> current & 1:
                # entered along an arrow into `nxt`: it is a collider
                # exactly when the next step is to one of its parents
                step = (parents[nxt] if collider_ok >> nxt & 1 else 0) | (
                    children[nxt] if noncollider_ok >> nxt & 1 else 0
                )
            else:
                step = adjacency[nxt] if noncollider_ok >> nxt & 1 else 0
            step &= ~after
            if not step:
                continue
            if through & ~after:
                if cut(nxt, after) or plain <= 0 and not completes(nxt, step, after):
                    continue
            elif plain <= 0 and not _ball_reaches(
                parents, children, nxt, step, ~after, target, noncollider_ok, collider_ok
            ):
                continue
            plain -= 1
            waiting[-1] = left
            waiting.append(_ranked(step, rank))
            path.append(nxt)
            inside = after
            break
        else:
            waiting.pop()
            inside ^= 1 << path.pop()
    return None


def _ranked(mask, rank):
    """The mask with each node i moved to bit rank[i]; itself when rank is None."""
    if rank is None:
        return mask
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << rank[low.bit_length() - 1]
    return out


def _ball_reaches(parents, children, v, step, allowed, target, noncollider_ok, collider_ok):
    """True iff a ball from node v, leaving it for a node of `step`, reaches
    `target` over nodes of `allowed`, passing a node only if it is in
    `noncollider_ok` and bouncing off one (in along an arrow, out to a
    parent) only if it is in `collider_ok`: Shachter's Bayes-Ball, started
    at v as the path entered it. `_first_path` proves it exact."""
    tbit = 1 << target
    if step & tbit:
        return True
    allowed &= ~tbit
    # balls that arrived going up (from a child) and going down (from a parent)
    up = seen_up = step & parents[v] & allowed
    down = seen_down = step & children[v] & allowed
    while up or down:
        to_up = to_down = 0
        passing = up & noncollider_ok
        while passing:
            low = passing & -passing
            x = low.bit_length() - 1
            passing ^= low
            to_up |= parents[x]
            to_down |= children[x]
        passing = down & noncollider_ok
        bouncing = down & collider_ok
        while passing:
            low = passing & -passing
            passing ^= low
            to_down |= children[low.bit_length() - 1]
        while bouncing:
            low = bouncing & -bouncing
            bouncing ^= low
            to_up |= parents[low.bit_length() - 1]
        if (to_up | to_down) & tbit:
            return True
        up = to_up & allowed & ~seen_up
        down = to_down & allowed & ~seen_down
        seen_up |= up
        seen_down |= down
    return False


def _bits(mask):
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _build_lane_pattern(k, j):
    pattern = ((1 << (1 << j)) - 1) << (1 << j)
    period = 2 << j
    while period < 1 << k:
        pattern |= pattern << period
        period <<= 1
    return pattern


@cache
def _lane_patterns(k):
    return tuple(_build_lane_pattern(k, j) for j in range(k))


def _lane_pattern(k, j):
    """The lanes of a 2**k-lane vector whose index has bit j set.

    Built once per k for k <= _LANE_BITS, the widths a pass holds; wider
    vectors (pools past _LANE_BITS members) build theirs on each call.
    """
    return _lane_patterns(k)[j] if k <= _LANE_BITS else _build_lane_pattern(k, j)


@cache
def _lane_layers(k):
    """For each size r <= k, the lanes of a 2**k-lane vector whose index
    has r bits set."""
    layers = [1]
    for j in range(k):
        shifted = [0] + [layer << (1 << j) for layer in layers]
        layers = [a | b for a, b in zip(layers + [0], shifted)]
    return tuple(layers)


def _sliced_dsep(graph, source, target, fixed, members):
    """Whether `target` is d-separated from `source`, in every conditioning
    set at once: one bit ("lane") per subset of `members`.

    Lane l conditions on `fixed` plus members[i] for each bit i set in l.
    Nodes are indices and sets are bitmasks; `members` lists node indices,
    disjoint from `fixed` and `target`. Returns the lane vector: bit l is
    set when every node of `target` is d-separated from every node of
    `source` in lane l. A source node may be a member or lie in `fixed`:
    it sends no ball in the lanes that condition on it, as the kernel's
    `dsep` does for a source in z. With k members the pass runs in blocks:
    a block spans the 2**w lanes of the low w = min(k, _LANE_BITS) members,
    and block b conditions, like `fixed`, on the top members of the bits
    set in b and fills lanes b * 2**w onward. So no pass holds a mask wider
    than 2**_LANE_BITS bits.

    This is Shachter's Bayes-Ball with one lane mask per node and
    direction in place of one bit: a ball moves on in exactly the lanes
    where the step it takes is open. A ball that comes down into a
    conditioned node bounces back up to its parents, so a collider with a
    conditioned descendant is opened by the ball running down to that
    descendant and climbing back, and no ancestor set is needed. It reads
    only the graph's parent and child masks, so it serves either backend.
    """
    n = len(graph.nodes)
    parents, children = graph._pmask, graph._cmask
    width = min(len(members), _LANE_BITS)
    low, high = members[:width], members[width:]
    full = (1 << (1 << width)) - 1
    # per node: the lanes that condition on it, counting the low members only
    low_given = [0] * n
    for member, pattern in zip(low, _lane_patterns(width)):
        low_given[member] = pattern
    vector = 0
    for top in range(1 << len(high)):
        given = fixed
        for t in _bits(top):
            given |= 1 << high[t]
        up = [0] * n
        down = [0] * n
        # lanes that reached a node but have not yet been passed on
        up_new = [0] * n
        down_new = [0] * n
        stack = []
        for s in _bits(source):
            up[s] = up_new[s] = full
            stack.append((s, True))
        while stack:
            i, going_up = stack.pop()
            blocked = full if given >> i & 1 else low_given[i]
            if going_up:
                lanes = up_new[i]
                up_new[i] = 0
                onward = bounce = lanes & ~blocked
            else:
                lanes = down_new[i]
                down_new[i] = 0
                onward = lanes & ~blocked
                bounce = lanes & blocked
            if bounce:
                mask = parents[i]
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    p = bit.bit_length() - 1
                    new = bounce & ~up[p]
                    if new:
                        up[p] |= new
                        if not up_new[p]:
                            stack.append((p, True))
                        up_new[p] |= new
            if onward:
                mask = children[i]
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    c = bit.bit_length() - 1
                    new = onward & ~down[c]
                    if new:
                        down[c] |= new
                        if not down_new[c]:
                            stack.append((c, False))
                        down_new[c] |= new
        reached = 0
        for t in _bits(target):
            reached |= (up[t] | down[t]) & ~(full if given >> t & 1 else low_given[t])
        vector |= (full & ~reached) << (top << width)
    return vector


def _lane_sets(vector, names):
    """The sets a lane vector marks, in canonical order: by size, then by
    the sorted name tuple. Lane l holds names[i] for each bit i set in l;
    `names` is sorted, so that order is the order of the index tuples."""
    k = len(names)
    width = min(k, _LANE_BITS)
    layers = _lane_layers(width)
    mask = (1 << (1 << width)) - 1
    blocks = [(b, vector >> (b << width) & mask) for b in range(1 << (k - width))]
    for size in range(k + 1):
        hits = []
        for b, block in blocks:
            r = size - b.bit_count()
            if 0 <= r <= width and block & layers[r]:
                digits = bin(block & layers[r])[:1:-1]  # digits[l] is bit l
                l = digits.find("1")
                while l >= 0:
                    hits.append(_bits((b << width) | l))
                    l = digits.find("1", l + 1)
        hits.sort()
        for members in hits:
            yield tuple(names[i] for i in members)


def _validate_path(graph, path):
    if len(path.nodes) < 2:
        raise InvalidPath("a path needs at least two nodes")
    if len(path.arrows) != len(path.nodes) - 1:
        raise InvalidPath("arrow count must be one less than node count")
    if len(set(path.nodes)) != len(path.nodes):
        raise InvalidPath("path repeats a node")
    for i, arrow in enumerate(path.arrows):
        u, v = path.nodes[i], path.nodes[i + 1]
        if arrow == "->":
            ok = graph.has_edge(u, v)
        elif arrow == "<-":
            ok = graph.has_edge(v, u)
        else:
            raise InvalidPath(f"bad arrow {arrow!r}")
        if not ok:
            raise InvalidPath(f"no edge {u} {arrow} {v} in the graph")


def is_blocked(graph, path, given=()):
    """True iff the conditioning set blocks this specific path.

    Blocked means: some interior non-collider is conditioned on, or some
    interior collider has neither itself nor any descendant conditioned on.
    Path endpoints may not appear in the conditioning set.
    """
    _validate_path(graph, path)
    given = frozenset(given)
    given_mask = graph._mask(given)
    for end in (path.nodes[0], path.nodes[-1]):
        if end in given:
            raise OverlappingConditioningSet(f"path endpoint {end!r} is conditioned on")
    for i in range(1, len(path.nodes) - 1):
        node = path.nodes[i]
        if path.is_collider_at(i):
            down = graph._kernel.closure_down(1 << graph._index[node])
            if not (down & given_mask):
                return True
        elif node in given:
            return True
    return False
