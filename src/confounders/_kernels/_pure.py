"""Pure-Python reachability kernel over bitmask DAGs.

Nodes are integers 0..n-1 (n <= 64); node sets are uint64-style bitmasks.
The kernel answers four queries, all on masks: `closure_up` and
`closure_down` close a set under ancestors or descendants, `reachable`
returns the nodes d-connected to a source set, and `dsep` asks whether that
set misses a target. `reachable` runs Shachter's Bayes-Ball: it moves whole
frontiers of (node, direction) states, one mask per direction, a round at a
time, and a ball that comes down into a conditioned node bounces back up,
so a collider with a conditioned descendant is opened by the ball running
down to that descendant and climbing back, with no ancestor set built. A
node is reached exactly when d-separation says a path to it is open. `dsep`
stops at the first round that reaches its target. A query mask with a bit
at or past n is refused with ValueError.

The compiled kernel in _fast.c has the same four queries, the same rounds
and the same error messages; the package picks it at import time when it is
built. `tests/test_kernels.py` checks that both expose the same names.
"""

BACKEND = "pure"

_OUTSIDE = "query mask references node >= n"


class BitDag:
    """Immutable DAG over bitmasks, supporting d-connection reachability."""

    __slots__ = ("n", "_parents", "_children")

    def __init__(self, parents):
        n = len(parents)
        if n > 64:
            raise ValueError("bitmask kernel supports at most 64 nodes")
        self.n = n
        self._parents = [int(m) for m in parents]
        children = [0] * n
        for v, mask in enumerate(self._parents):
            if mask >> n:
                raise ValueError(f"parent mask of node {v} references node >= {n}")
            m = mask
            while m:
                low = m & -m
                children[low.bit_length() - 1] |= 1 << v
                m ^= low
        self._children = children

    def closure_up(self, mask):
        """mask plus all its ancestors."""
        if mask >> self.n:
            raise ValueError(_OUTSIDE)
        return _closure(self._parents, mask)

    def closure_down(self, mask):
        """mask plus all its descendants."""
        if mask >> self.n:
            raise ValueError(_OUTSIDE)
        return _closure(self._children, mask)

    def reachable(self, src, z, opened=0):
        """Nodes d-connected to the source set given z (sources included),
        with a collider also passing when it is an ancestor of `opened`:
        d-connection given z plus a new leaf child of each node of
        `opened`."""
        if (src | z | opened) >> self.n:
            raise ValueError(_OUTSIDE)
        return _reachable(self._parents, self._children, src, z, 0, opened)

    def dsep(self, a, b, z):
        """True iff every path between masks a and b is blocked by z."""
        if (a | b | z) >> self.n:
            raise ValueError(_OUTSIDE)
        return not (_reachable(self._parents, self._children, a, z, b & ~z) & b)


def _reachable(parents, children, src, z, stop, opened=0):
    """Nodes d-connected to the source set given z (sources included), or,
    once a round reaches a node of `stop`, the part found so far.

    A ball is on a node going up (it came from a child, or starts there) or
    going down (it came from a parent). Each round moves the whole frontier
    of both: a ball on an unconditioned node goes on down to its children;
    one going up through an unconditioned node, or down into a node of z or
    of `opened`, goes on up to its parents. A collider that is an ancestor
    of z is thus passed the long way round: down to a conditioned
    descendant, along a directed path of unconditioned nodes, and back up.
    A node of `opened` = W turns the ball as its new conditioned leaf child
    would, and blocks nothing.
    """
    bounce = z | opened
    up = up_new = src
    down = down_new = 0
    while (up_new | down_new) and not (up | down) & stop:
        step_up = step_down = 0
        m = (up_new & ~z) | (down_new & bounce)
        while m:
            low = m & -m
            step_up |= parents[low.bit_length() - 1]
            m ^= low
        m = (up_new | down_new) & ~z
        while m:
            low = m & -m
            step_down |= children[low.bit_length() - 1]
            m ^= low
        up_new = step_up & ~up
        down_new = step_down & ~down
        up |= up_new
        down |= down_new
    return (up | down) & ~z


def _closure(adj, mask):
    """mask plus every node reachable from it along the masks in adj."""
    out = mask
    frontier = mask
    while frontier:
        step = 0
        m = frontier
        while m:
            low = m & -m
            step |= adj[low.bit_length() - 1]
            m ^= low
        frontier = step & ~out
        out |= frontier
    return out
