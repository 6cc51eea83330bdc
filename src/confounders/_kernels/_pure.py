"""Pure-Python reachability kernel over bitmask DAGs.

Nodes are integers 0..n-1 (n <= 64); node sets are uint64-style bitmasks,
and a query mask with a bit at or past n is refused with ValueError.
`reachable` runs the two-phase d-connection ball game: phase one closes the
conditioning set under ancestors, phase two bounces over (node, direction)
states so a path is followed exactly when d-separation says it is open.

The compiled kernel in _fast.c mirrors this class method for method, with
the same error messages; the package picks it at import time when it is
built. Keep the two in lockstep.
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

    def parents_mask(self, i):
        return self._parents[_node(i, self.n)]

    def children_mask(self, i):
        return self._children[_node(i, self.n)]

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

    def ancestors(self, i):
        """Strict ancestors of node i, as a mask."""
        return _closure(self._parents, 1 << _node(i, self.n)) ^ (1 << i)

    def descendants(self, i):
        """Strict descendants of node i, as a mask."""
        return _closure(self._children, 1 << _node(i, self.n)) ^ (1 << i)

    def reachable(self, src, z):
        """Nodes d-connected to the source set given z (sources included)."""
        if (src | z) >> self.n:
            raise ValueError(_OUTSIDE)
        anz = _closure(self._parents, z)
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
                    new = self._parents[i] & ~vis_up
                    vis_up |= new
                    while new:
                        low = new & -new
                        stack.append((low.bit_length() - 1, _UP))
                        new ^= low
                    new = self._children[i] & ~vis_down
                    vis_down |= new
                    while new:
                        low = new & -new
                        stack.append((low.bit_length() - 1, _DOWN))
                        new ^= low
            else:
                if not (z & bit):
                    new = self._children[i] & ~vis_down
                    vis_down |= new
                    while new:
                        low = new & -new
                        stack.append((low.bit_length() - 1, _DOWN))
                        new ^= low
                if anz & bit:
                    new = self._parents[i] & ~vis_up
                    vis_up |= new
                    while new:
                        low = new & -new
                        stack.append((low.bit_length() - 1, _UP))
                        new ^= low
        return (vis_up | vis_down) & ~z

    def dsep(self, a, b, z):
        """True iff every path between masks a and b is blocked by z."""
        if b >> self.n:
            raise ValueError(_OUTSIDE)
        return not (self.reachable(a, z) & b)


def _node(i, n):
    """i, unless it is not one of the n node indices."""
    if not 0 <= i < n:
        raise IndexError(f"node index {i} out of range for {n} nodes")
    return i


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
