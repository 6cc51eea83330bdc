"""Pure-Python reachability kernel over bitmask DAGs.

Nodes are integers 0..n-1 (n <= 64); node sets are uint64-style bitmasks.
The kernel answers four queries, all on masks: `closure_up` and
`closure_down` close a set under ancestors or descendants, `reachable`
returns the nodes d-connected to a source set, and `dsep` asks whether that
set misses a target. `reachable` runs the two-phase d-connection ball game:
phase one closes the conditioning set under ancestors, phase two bounces
over (node, direction) states so a path is followed exactly when
d-separation says it is open. A query mask with a bit at or past n is
refused with ValueError.

The compiled kernel in _fast.c has the same four queries and the same
error messages; the package picks it at import time when it is built.
`tests/test_kernels.py` checks that both expose the same names.
"""

BACKEND = "pure"

_UP = 1
_DOWN = 0
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

    def reachable(self, src, z):
        """Nodes d-connected to the source set given z (sources included)."""
        if (src | z) >> self.n:
            raise ValueError(_OUTSIDE)
        return _reachable(self._parents, self._children, src, z)

    def dsep(self, a, b, z):
        """True iff every path between masks a and b is blocked by z."""
        if (a | b | z) >> self.n:
            raise ValueError(_OUTSIDE)
        return not (_reachable(self._parents, self._children, a, z) & b)


def _reachable(parents, children, src, z):
    """Nodes d-connected to the source set given z (sources included)."""
    anz = _closure(parents, z)
    vis_up = src
    vis_down = 0
    stack = []
    m = src
    while m:
        low = m & -m
        stack.append((low.bit_length() - 1, _UP))
        m ^= low
    while stack:
        i, direction = stack.pop()
        bit = 1 << i
        if direction == _UP:
            if not (z & bit):
                new = parents[i] & ~vis_up
                vis_up |= new
                while new:
                    low = new & -new
                    stack.append((low.bit_length() - 1, _UP))
                    new ^= low
                new = children[i] & ~vis_down
                vis_down |= new
                while new:
                    low = new & -new
                    stack.append((low.bit_length() - 1, _DOWN))
                    new ^= low
        else:
            if not (z & bit):
                new = children[i] & ~vis_down
                vis_down |= new
                while new:
                    low = new & -new
                    stack.append((low.bit_length() - 1, _DOWN))
                    new ^= low
            if anz & bit:
                new = parents[i] & ~vis_up
                vis_up |= new
                while new:
                    low = new & -new
                    stack.append((low.bit_length() - 1, _UP))
                    new ^= low
    return (vis_up | vis_down) & ~z


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
