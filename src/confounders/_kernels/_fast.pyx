# cython: language_level=3
"""Compiled reachability kernel. Mirrors _pure.BitDag method for method.

Fixed-width uint64 masks, explicit stack, no Python objects in the hot
loops. The (node, direction) state space is at most 2n entries and states
are marked visited before they are pushed, so the stack never overflows.
"""

BACKEND = "compiled"

ctypedef unsigned long long u64


cdef class BitDag:
    cdef readonly int n
    cdef u64 p[64]
    cdef u64 c[64]

    def __init__(self, parents):
        cdef int n = len(parents)
        if n > 64:
            raise ValueError("bitmask kernel supports at most 64 nodes")
        self.n = n
        cdef int v, i
        cdef u64 mask
        for v in range(n):
            self.p[v] = 0
            self.c[v] = 0
        for v in range(n):
            mask = parents[v]
            if n < 64 and mask >> n:
                raise ValueError(f"parent mask of node {v} references node >= {n}")
            self.p[v] = mask
            for i in range(n):
                if mask >> i & 1:
                    self.c[i] |= <u64>1 << v

    def parents_mask(self, int i):
        return self.p[_node(i, self.n)]

    def children_mask(self, int i):
        return self.c[_node(i, self.n)]

    cdef u64 _closure(self, u64 mask, u64 *adj):
        cdef u64 out = mask
        cdef u64 frontier = mask
        cdef u64 step
        cdef int i
        while frontier:
            step = 0
            for i in range(self.n):
                if frontier >> i & 1:
                    step |= adj[i]
            frontier = step & ~out
            out |= frontier
        return out

    def closure_up(self, mask):
        """mask plus all its ancestors."""
        return self._closure(<u64>mask, self.p)

    def closure_down(self, mask):
        """mask plus all its descendants."""
        return self._closure(<u64>mask, self.c)

    def ancestors(self, int i):
        """Strict ancestors of node i, as a mask."""
        return self._closure(<u64>1 << _node(i, self.n), self.p) ^ (<u64>1 << i)

    def descendants(self, int i):
        """Strict descendants of node i, as a mask."""
        return self._closure(<u64>1 << _node(i, self.n), self.c) ^ (<u64>1 << i)

    cdef u64 _reach(self, u64 src, u64 z):
        cdef u64 anz = self._closure(z, self.p)
        cdef u64 vis_up = src
        cdef u64 vis_down = 0
        cdef u64 new
        cdef int stack[130]
        cdef int sp = 0
        cdef int i, j, state
        for i in range(self.n):
            if src >> i & 1:
                stack[sp] = i | (1 << 7)
                sp += 1
        while sp:
            sp -= 1
            state = stack[sp]
            i = state & 0x7f
            if state >> 7:  # traveling up (arrived from a child or a source)
                if not (z >> i & 1):
                    new = self.p[i] & ~vis_up
                    vis_up |= new
                    for j in range(self.n):
                        if new >> j & 1:
                            stack[sp] = j | (1 << 7)
                            sp += 1
                    new = self.c[i] & ~vis_down
                    vis_down |= new
                    for j in range(self.n):
                        if new >> j & 1:
                            stack[sp] = j
                            sp += 1
            else:  # traveling down (arrived from a parent)
                if not (z >> i & 1):
                    new = self.c[i] & ~vis_down
                    vis_down |= new
                    for j in range(self.n):
                        if new >> j & 1:
                            stack[sp] = j
                            sp += 1
                if anz >> i & 1:
                    new = self.p[i] & ~vis_up
                    vis_up |= new
                    for j in range(self.n):
                        if new >> j & 1:
                            stack[sp] = j | (1 << 7)
                            sp += 1
        return (vis_up | vis_down) & ~z

    def reachable(self, src, z):
        """Nodes d-connected to the source set given z (sources included)."""
        return self._reach(<u64>src, <u64>z)

    def dsep(self, a, b, z):
        """True iff every path between masks a and b is blocked by z."""
        return not (self._reach(<u64>a, <u64>z) & <u64>b)


cdef inline int _node(int i, int n) except -1:
    """i, unless it is not one of the n node indices."""
    if i < 0 or i >= n:
        raise IndexError(f"node index {i} out of range for {n} nodes")
    return i
