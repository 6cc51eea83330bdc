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
stops at the first admissible path instead of listing them all; its
name-ordered neighbour table is built on a graph's first search. A question
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
MAX_PATH_EXPANSIONS = 1_000_000  # nodes one `_first_path` search may expand
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

    __slots__ = ("nodes", "edges", "_index", "_pmask", "_cmask", "_kernel", "_topo", "_adjacency", "_search")

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
        self._search = None  # _search_tables, made on the first path search

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


def _reaches(adjacency, start, allowed, needed):
    """True iff every node of mask `needed` is reachable from `start` over
    the skeleton, stepping only onto nodes of mask `allowed`."""
    seen = frontier = 1 << start
    while needed & ~seen:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = step & allowed & ~seen
        if not frontier:
            return False
        seen |= frontier
    return True


def _skeleton(graph):
    """Each node's skeleton mask, built on first use and kept on the graph."""
    if graph._adjacency is None:
        graph._adjacency = tuple(map(int.__or__, graph._pmask, graph._cmask))
    return graph._adjacency


def _search_tables(graph):
    """(adjacency, neighbors) of a graph, for `_first_path`: the skeleton
    masks, and each node's neighbors in name order, built on the first
    search and kept on the graph (`_search`)."""
    if graph._search is None:
        n, adjacency = len(graph.nodes), _skeleton(graph)
        by_name = sorted(range(n), key=graph.nodes.__getitem__)
        neighbors = tuple(tuple(j for j in by_name if adjacency[i] >> j & 1) for i in range(n))
        graph._search = (adjacency, neighbors)
    return graph._search


def _first_path(graph, source, target, first_step, noncollider_ok, collider_ok, through=0):
    """The lexicographically first simple path from source to target whose
    second node is in `first_step`, whose interior nodes are each admissible
    (in `noncollider_ok` where the path passes through, in `collider_ok`
    where both its edges point in) and which visits every node of `through`.
    None when no such path exists.

    Nodes are indices and sets are bitmasks. Neighbors are expanded in name
    order, as in `enumerate_paths`, so the result is the first admissible
    entry of that listing. Two cuts drop a prefix early, and both keep the
    order: an interior node is checked as soon as the step after it fixes
    whether it is a collider, and a prefix is dropped when the target, or a
    node of `through` it has not visited, is unreachable over the skeleton
    minus the prefix. A prefix can only be completed by a simple path from
    its last node over nodes outside it, so neither cut drops a prefix that
    has an admissible completion.

    Raises SizeLimit once it has expanded more than MAX_PATH_EXPANSIONS
    nodes.
    """
    parents, children = graph._pmask, graph._cmask
    adjacency, neighbors = _search_tables(graph)
    goal = (1 << target) | through
    path = [source]
    expanded = 0

    def extend(current, on_path):
        nonlocal expanded
        if current == source:
            step = first_step
        elif parents[current] >> path[-2] & 1:
            # entered along an arrow into `current`: it is a collider
            # exactly when the next step is to one of its parents
            step = (parents[current] if collider_ok >> current & 1 else 0) | (
                children[current] if noncollider_ok >> current & 1 else 0
            )
        else:
            step = adjacency[current] if noncollider_ok >> current & 1 else 0
        step &= ~on_path
        for nxt in neighbors[current]:
            bit = 1 << nxt
            if not step & bit:
                continue
            if nxt == target:
                if through & ~on_path:
                    continue
                path.append(nxt)
                return True
            expanded += 1
            if expanded > MAX_PATH_EXPANSIONS:
                raise SizeLimit(
                    f"path search from {graph.nodes[source]!r} to {graph.nodes[target]!r} "
                    f"expanded {expanded} nodes, over the cap of {MAX_PATH_EXPANSIONS}"
                )
            inside = on_path | bit
            if not _reaches(adjacency, nxt, ~inside, goal & ~inside):
                continue
            path.append(nxt)
            if extend(nxt, inside):
                return True
            path.pop()
        return False

    if not extend(source, 1 << source):
        return None
    names = tuple(graph.nodes[i] for i in path)
    arrows = tuple(
        "->" if parents[v] >> u & 1 else "<-" for u, v in zip(path, path[1:])
    )
    return Path(names, arrows)


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
