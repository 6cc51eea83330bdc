"""Pure-Python reachability kernel over bitmask DAGs.

Nodes are integers 0..n-1 (n <= 64); node sets are uint64-style bitmasks.
The kernel answers five queries, all on masks: `closure_up` and
`closure_down` close a set under ancestors or descendants, `reachable`
returns the nodes d-connected to a source set, `landing` the conditioned
nodes the same ball arrives at, and `dsep` asks whether the d-connected set
misses a target. `reachable` runs Shachter's Bayes-Ball: it moves whole
frontiers of (node, direction) states, one mask per direction, a round at a
time, and a ball that comes down into a conditioned node bounces back up,
so a collider with a conditioned descendant is opened by the ball running
down to that descendant and climbing back, with no ancestor set built. A
node is reached exactly when d-separation says a path to it is open, and a
node z of the conditioning set is landed on exactly when a path to it is
open given the rest of that set (see `landing`). `dsep` stops at the first
round that reaches its target. A query mask with a bit at or past n is
refused with ValueError.

The compiled kernel in _fast.c has the same five queries, the same rounds
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
        return _reachable(self._parents, self._children, src, z, 0, opened) & ~z

    def landing(self, src, z):
        """The nodes of z that the ball from the source set given z arrives
        at. A source inside z is returned, and sends no ball.

        For one source node s outside z and a node v of z, v is returned iff
        s and v are d-connected given Z' = z minus v. These are Shachter's
        requisite observations (Bayes-Ball, UAI 1998). Both directions rest
        on the theorem that makes `reachable` exact: given any conditioning
        set, the ball arrives at a node outside it iff a path to that node
        is open.

        (=>) Take a path from s to v that is open given Z'. No interior node
        of it is v, so each interior non-collider is outside Z' and thus
        outside z, and each collider has a descendant in Z', thus in z. The
        path is open given z up to its last edge, and the ball follows it
        to v: a non-collider outside z directly, a collider in z by
        bouncing, any other collider the long way round, down to a
        conditioned descendant and back up.

        (<=) Take the ball's walk given z up to its first arrival at v.
        Before that arrival the walk passed through no node equal to v, so
        it went on through nodes outside z only, which are outside Z', and
        bounced only at nodes of z other than v, which are in Z'. It is thus
        a walk of the ball given Z' that arrives at v, outside Z', so by the
        theorem a path from s to v is open given Z'. A proof that cuts the
        whole walk into a path must pass a collider whose only conditioned
        descendant is v by re-routing down its directed path to v; the walk
        cut at its first arrival has no such collider left to pass.
        """
        if (src | z) >> self.n:
            raise ValueError(_OUTSIDE)
        return _reachable(self._parents, self._children, src, z, 0) & z

    def dsep(self, a, b, z):
        """True iff every path between masks a and b is blocked by z."""
        if (a | b | z) >> self.n:
            raise ValueError(_OUTSIDE)
        stop = b & ~z
        return not (_reachable(self._parents, self._children, a, z, stop) & stop)


def _reachable(parents, children, src, z, stop, opened=0):
    """Every node the ball from the source set given z arrives at (sources
    included): those outside z are d-connected to the sources, those inside
    z are the ones `landing` returns. Once a round reaches a node of `stop`,
    the part found so far.

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
    return up | down


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
