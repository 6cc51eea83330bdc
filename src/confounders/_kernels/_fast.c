/* Compiled reachability kernel: the five queries of _pure.BitDag.

Nodes are integers 0..n-1 (n <= 64); node sets are uint64 masks. Parent and
child masks live in fixed 64-entry arrays, and entries past n stay 0.
`closure_up` and `closure_down` close a mask under ancestors or descendants.
`reachable`, `landing` and `dsep` run `reach`, the same Bayes-Ball as the
pure kernel's `_reachable`, with the same optional `opened` mask on
`reachable`, in the same rounds: each moves the whole frontier of up-states
and of down-states, one mask each, so no stack is kept. `reach` returns
every node the ball arrives at, and each query masks it: `reachable` keeps
the nodes outside z, `landing` those inside it (the proof that these are
the nodes of z d-connected to the source given the rest of z is in the
pure kernel's `landing`), and `dsep` its target. `dsep` stops at the first
round that reaches its target.

Every argument is a mask. A parent mask or a query mask with a bit at or
past n, negative ones included, raises ValueError, as in the pure kernel.
*/
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

/* index of the lowest set bit of a nonzero mask */
static inline int
lowest(u64 m)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(m);
#else
    int i = 0;
    while (!(m & 1)) {
        m >>= 1;
        i++;
    }
    return i;
#endif
}

typedef struct {
    PyObject_HEAD
    int n;
    u64 p[64];
    u64 c[64];
} BitDag;

/* mask plus everything reachable from it along adj */
static u64
closure(const u64 *adj, u64 mask)
{
    u64 out = mask, frontier = mask;
    while (frontier) {
        u64 step = 0;
        for (u64 m = frontier; m; m &= m - 1)
            step |= adj[lowest(m)];
        frontier = step & ~out;
        out |= frontier;
    }
    return out;
}

/* every node the ball from the source set given z arrives at (sources
   included), a collider also passing when it is an ancestor of opened; or,
   once a round reaches a node of stop, the part found so far. Those outside
   z are d-connected to the sources. A ball coming down into a node of z or
   of opened bounces back up, so a collider with such a descendant is passed
   by running down to it and climbing back. */
static u64
reach(const BitDag *d, u64 src, u64 z, u64 opened, u64 stop)
{
    u64 bounce = z | opened;
    u64 up = src, down = 0, up_new = src, down_new = 0;
    while ((up_new | down_new) && !((up | down) & stop)) {
        u64 step_up = 0, step_down = 0;
        /* up through an unconditioned node, or down into a node of z or of
           opened */
        for (u64 m = (up_new & ~z) | (down_new & bounce); m; m &= m - 1)
            step_up |= d->p[lowest(m)];
        /* either way through an unconditioned node */
        for (u64 m = (up_new | down_new) & ~z; m; m &= m - 1)
            step_down |= d->c[lowest(m)];
        up_new = step_up & ~up;
        down_new = step_down & ~down;
        up |= up_new;
        down |= down_new;
    }
    return up | down;
}

/* Argument conversion: 0 on success, -1 with an exception set. */

static int
as_mask(PyObject *obj, u64 *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return (*out == (u64)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* A query mask over the n nodes: one with a bit at or past n, negative or
   past 64 bits included, is refused as the pure kernel refuses it. */
static int
as_query(const BitDag *d, PyObject *obj, u64 *out)
{
    if (as_mask(obj, out) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (d->n == 64 || !(*out >> d->n))
        return 0;
    PyErr_SetString(PyExc_ValueError, "query mask references node >= n");
    return -1;
}

static int
arity(const char *name, Py_ssize_t nargs, Py_ssize_t least, Py_ssize_t most)
{
    if (least <= nargs && nargs <= most)
        return 0;
    if (least == most)
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, least, nargs);
    else
        PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd arguments (%zd given)",
                     name, least, most, nargs);
    return -1;
}

static int
BitDag_init(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"parents", NULL};
    BitDag *d = (BitDag *)self;
    PyObject *parents, *seq;
    Py_ssize_t n, v;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:BitDag", kwlist, &parents))
        return -1;
    seq = PySequence_Fast(parents, "BitDag() needs a sequence of parent masks");
    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n > 64) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "bitmask kernel supports at most 64 nodes");
        return -1;
    }
    d->n = (int)n;
    memset(d->p, 0, sizeof d->p);
    memset(d->c, 0, sizeof d->c);
    for (v = 0; v < n; v++) {
        u64 mask = 0;
        int wide = 0;
        if (as_mask(PySequence_Fast_GET_ITEM(seq, v), &mask) < 0) {
            /* negative or past 64 bits: out of range, as in the pure kernel */
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                break;
            PyErr_Clear();
            wide = 1;
        }
        if (wide || (n < 64 && mask >> n)) {
            PyErr_Format(PyExc_ValueError, "parent mask of node %zd references node >= %zd",
                         v, n);
            break;
        }
        d->p[v] = mask;
        for (u64 m = mask; m; m &= m - 1)
            d->c[lowest(m)] |= (u64)1 << v;
    }
    Py_DECREF(seq);
    return v == n ? 0 : -1;
}

static PyObject *
BitDag_closure_up(PyObject *self, PyObject *arg)
{
    u64 mask;
    if (as_query((BitDag *)self, arg, &mask) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(closure(((BitDag *)self)->p, mask));
}

static PyObject *
BitDag_closure_down(PyObject *self, PyObject *arg)
{
    u64 mask;
    if (as_query((BitDag *)self, arg, &mask) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(closure(((BitDag *)self)->c, mask));
}

static PyObject *
BitDag_reachable(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 src, z, opened = 0;
    BitDag *d = (BitDag *)self;
    if (arity("reachable", nargs, 2, 3) < 0 || as_query(d, args[0], &src) < 0
        || as_query(d, args[1], &z) < 0 || (nargs == 3 && as_query(d, args[2], &opened) < 0))
        return NULL;
    return PyLong_FromUnsignedLongLong(reach(d, src, z, opened, 0) & ~z);
}

static PyObject *
BitDag_landing(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 src, z;
    BitDag *d = (BitDag *)self;
    if (arity("landing", nargs, 2, 2) < 0 || as_query(d, args[0], &src) < 0
        || as_query(d, args[1], &z) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(reach(d, src, z, 0, 0) & z);
}

static PyObject *
BitDag_dsep(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a, b, z, stop;
    BitDag *d = (BitDag *)self;
    if (arity("dsep", nargs, 3, 3) < 0 || as_query(d, args[0], &a) < 0
        || as_query(d, args[1], &b) < 0 || as_query(d, args[2], &z) < 0)
        return NULL;
    stop = b & ~z;
    return PyBool_FromLong(!(reach(d, a, z, 0, stop) & stop));
}

static PyObject *
BitDag_get_n(PyObject *self, void *Py_UNUSED(context))
{
    return PyLong_FromLong(((BitDag *)self)->n);
}

static PyMethodDef BitDag_methods[] = {
    {"closure_up", BitDag_closure_up, METH_O, "mask plus all its ancestors."},
    {"closure_down", BitDag_closure_down, METH_O, "mask plus all its descendants."},
    {"reachable", (PyCFunction)(void (*)(void))BitDag_reachable, METH_FASTCALL,
     "Nodes d-connected to the source set given z (sources included), with a\n"
     "collider also passing when it is an ancestor of `opened`."},
    {"landing", (PyCFunction)(void (*)(void))BitDag_landing, METH_FASTCALL,
     "The nodes of z that the ball from the source set given z arrives\n"
     "at. A source inside z is returned, and sends no ball."},
    {"dsep", (PyCFunction)(void (*)(void))BitDag_dsep, METH_FASTCALL,
     "True iff every path between masks a and b is blocked by z."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef BitDag_getset[] = {
    {"n", BitDag_get_n, NULL, "Number of nodes.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject BitDagType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "confounders._kernels._fast.BitDag",
    .tp_basicsize = sizeof(BitDag),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Immutable DAG over bitmasks, supporting d-connection reachability.",
    .tp_methods = BitDag_methods,
    .tp_getset = BitDag_getset,
    .tp_init = BitDag_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "confounders._kernels._fast",
    .m_doc = "Compiled reachability kernel: the five queries of _pure.BitDag.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    PyObject *module;
    if (PyType_Ready(&BitDagType) < 0)
        return NULL;
    module = PyModule_Create(&fast_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "BACKEND", "compiled") < 0
        || PyModule_AddObjectRef(module, "BitDag", (PyObject *)&BitDagType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
