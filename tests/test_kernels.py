"""Bitmask reachability kernels: both backends, checked against each other
and against a mask-free reference on random graphs.

A kernel answers five queries, every argument a mask: `closure_up`,
`closure_down`, `reachable` (with an optional collider-opening mask),
`landing` and `dsep`. Both backends must expose exactly these and `n`, and
refuse the same masks with the same message.

The compiled backend is built here from the hand-written `_fast.c`, once
per session, into a temporary directory, and loaded under its own name
without entering `sys.modules`: the package's own kernel choice is left
alone, and the source tree gets no build output. With GCC or Clang the
build turns on `-Wall -Wextra`, and a warning in `_fast.c` fails the
compiled-kernel tests.
"""
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest

from confounders._kernels import _pure
from helpers_oracle import naive_d_separated, naive_descendants

FAST_C = Path(_pure.__file__).with_name("_fast.c")

BUILD_SCRIPT = """
import sys
from setuptools import Extension, setup

setup(
    name="fast-kernel",
    ext_modules=[Extension("_fast", [sys.argv[1]], extra_compile_args=sys.argv[2:])],
    script_args=["build_ext", "--build-lib", ".", "--build-temp", "temp"],
)
"""


# build_ext compiles with $CC when it is set
CC = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
WARNING_FLAGS = (
    ["-Wall", "-Wextra"]
    if CC and any(name in Path(CC[0]).name for name in ("gcc", "clang"))
    else []
)


def missing_build_tools():
    """What a C extension build needs and this interpreter cannot find."""
    missing = []
    if not CC or shutil.which(CC[0]) is None:
        missing.append(f"C compiler ({CC[0] if CC else 'CC unset'})")
    header = Path(sysconfig.get_paths()["include"], "Python.h")
    if not header.is_file():
        missing.append(f"Python headers ({header})")
    return missing


MISSING = missing_build_tools()
needs_compiler = pytest.mark.skipif(
    bool(MISSING),
    reason="cannot build the compiled kernel, missing: " + ", ".join(MISSING),
)


@pytest.fixture(scope="session")
def fast_build(tmp_path_factory):
    """(module, log): the compiled kernel built from FAST_C, or None and
    the compiler's output saying why not: an error, or a warning that
    names FAST_C."""
    out = tmp_path_factory.mktemp("fast")
    # an empty working directory: setuptools reads no project config and
    # writes nowhere else
    done = subprocess.run(
        [sys.executable, "-c", BUILD_SCRIPT, str(FAST_C), *WARNING_FLAGS],
        cwd=out, capture_output=True, text=True, timeout=600,
    )
    log = f"$ build_ext {FAST_C} {' '.join(WARNING_FLAGS)}\n{done.stdout}{done.stderr}"
    if done.returncode != 0:
        return None, log
    warnings = [
        line for line in log.splitlines() if "warning:" in line and FAST_C.name in line
    ]
    if warnings:
        return None, log + "\nwarnings in " + FAST_C.name + ":\n" + "\n".join(warnings)
    built = out / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    try:
        spec = importlib.util.spec_from_file_location("_fast", built)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:
        return None, f"{log}\nimport of {built} failed: {exc!r}"
    return module, log


def compiled(fast_build):
    module, log = fast_build
    if module is None:
        pytest.fail("compiled kernel failed to build cleanly or import:\n" + log)
    return module


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def random_parent_masks(rng, n, p):
    # nodes are already in topological order: parents come from lower indices
    return [mask_of(j for j in range(i) if rng.random() < p) for i in range(n)]


def edges_from_masks(parents):
    return [
        (j, i)
        for i, mask in enumerate(parents)
        for j in range(len(parents))
        if mask >> j & 1
    ]


@pytest.fixture(params=["pure", pytest.param("compiled", marks=needs_compiler)])
def kernel(request):
    if request.param == "pure":
        return _pure.BitDag
    return compiled(request.getfixturevalue("fast_build")).BitDag


@needs_compiler
def test_compiled_backend_is_available(fast_build):
    assert compiled(fast_build).BACKEND == "compiled"


@needs_compiler
def test_compiled_backend_names_its_package_module(fast_build):
    # loaded here under a bare name, so the name can only come from the C source
    module = compiled(fast_build)
    assert module.BitDag.__module__ == "confounders._kernels._fast"
    assert module.BitDag.dsep.__qualname__ == "BitDag.dsep"


KERNEL_API = {"n", "closure_up", "closure_down", "reachable", "landing", "dsep"}


def test_backends_expose_the_same_queries(kernel):
    assert {name for name in dir(kernel) if not name.startswith("_")} == KERNEL_API


def test_backend_tags(request):
    assert _pure.BACKEND == "pure"
    if not MISSING:
        assert compiled(request.getfixturevalue("fast_build")).BACKEND == "compiled"


def test_chain_masks(kernel):
    dag = kernel([0, 1, 2])  # 0 -> 1 -> 2
    assert dag.n == 3
    assert dag.closure_up(0b001) == 0b001
    assert dag.closure_up(0b010) == 0b011
    assert dag.closure_up(0b100) == 0b111
    assert dag.closure_down(0b001) == 0b111
    assert dag.closure_down(0b100) == 0b100
    assert dag.closure_up(0) == 0 and dag.closure_down(0) == 0
    assert dag.reachable(0b001, 0) == 0b111
    assert dag.reachable(0b001, 0b010) == 0b001
    assert dag.landing(0b001, 0b010) == 0b010
    assert dag.landing(0b001, 0b110) == 0b010  # 2 is cut off behind 1
    assert dag.landing(0b001, 0b101) == 0b001  # a source inside z sends no ball


def test_more_than_64_nodes_are_refused(kernel):
    with pytest.raises(ValueError, match="^bitmask kernel supports at most 64 nodes$"):
        kernel([0] * 65)


def test_parent_mask_past_the_last_node_is_refused(kernel):
    with pytest.raises(ValueError, match="^parent mask of node 1 references node >= 2$"):
        kernel([0, 0b100])


OUTSIDE = "^query mask references node >= n$"


@pytest.mark.parametrize("mask", [1 << 3, 1 << 5, 0b1001, 1 << 63, 1 << 64, 1 << 70, -1, -8])
@pytest.mark.parametrize(
    "query",
    [
        lambda dag, m: dag.closure_up(m),
        lambda dag, m: dag.closure_down(m),
        lambda dag, m: dag.reachable(m, 0),
        lambda dag, m: dag.reachable(1, m),
        lambda dag, m: dag.reachable(1, 0, m),
        lambda dag, m: dag.landing(m, 0),
        lambda dag, m: dag.landing(1, m),
        lambda dag, m: dag.dsep(m, 1, 0),
        lambda dag, m: dag.dsep(1, m, 0),
        lambda dag, m: dag.dsep(1, 2, m),
    ],
    ids=[
        "closure_up", "closure_down", "reachable_src", "reachable_z", "reachable_opened",
        "landing_src", "landing_z", "dsep_a", "dsep_b", "dsep_z",
    ],
)
def test_query_mask_past_the_last_node_is_refused(kernel, query, mask):
    dag = kernel([0, 1, 2])  # 0 -> 1 -> 2
    with pytest.raises(ValueError, match=OUTSIDE):
        query(dag, mask)


def test_query_masks_at_full_width(kernel):
    # with 64 nodes every bit names a node; past 64 bits and negative
    # masks are still refused
    dag = kernel([0] * 64)
    full = 2**64 - 1
    assert dag.closure_up(full) == full and dag.closure_down(full) == full
    assert dag.reachable(1, 0) == 1 and dag.reachable(full, 0) == full
    assert dag.landing(1, full ^ 1) == 0 and dag.landing(full, full) == full
    assert dag.dsep(1, full ^ 1, 0) and dag.dsep(1 << 63, full >> 1, 0)
    for mask in (1 << 64, -1):
        with pytest.raises(ValueError, match=OUTSIDE):
            dag.closure_up(mask)
        with pytest.raises(ValueError, match=OUTSIDE):
            dag.reachable(mask, 0)
        with pytest.raises(ValueError, match=OUTSIDE):
            dag.landing(1, mask)
        with pytest.raises(ValueError, match=OUTSIDE):
            dag.dsep(1, 2, mask)


def test_64_node_chain_uses_every_bit(kernel):
    # 0 -> 1 -> ... -> 63: no mask check applies at full width
    dag = kernel([0] + [1 << (i - 1) for i in range(1, 64)])
    assert dag.n == 64
    full = 2**64 - 1
    assert dag.closure_up(1 << 63) == full
    assert dag.closure_down(1) == full
    assert dag.closure_up(1 << 62) == full >> 1
    assert dag.closure_down(1 << 63) == 1 << 63
    assert dag.reachable(1 << 31, 0) == full
    assert dag.reachable(1 << 31, 1 << 30) == full & ~((1 << 31) - 1)
    assert not dag.dsep(1, 1 << 63, 0)
    assert dag.dsep(1, 1 << 63, 1 << 31)


def test_chain_dsep(kernel):
    dag = kernel([0, 1, 2])
    assert dag.dsep(0b001, 0b100, 0b010)
    assert not dag.dsep(0b001, 0b100, 0)


def test_collider_dsep(kernel):
    dag = kernel([0, 0, 0b011])  # 0 -> 2 <- 1
    assert dag.dsep(0b001, 0b010, 0)
    assert not dag.dsep(0b001, 0b010, 0b100)


def test_collider_descendant_opens(kernel):
    # 0 -> 2 <- 1, 2 -> 3: conditioning on the collider's child also opens it
    dag = kernel([0, 0, 0b011, 0b100])
    assert dag.dsep(0b001, 0b010, 0)
    assert not dag.dsep(0b001, 0b010, 0b1000)


def test_reachable_excludes_nothing_reachable(kernel):
    dag = kernel([0, 0])  # two isolated nodes
    assert dag.reachable(0b01, 0) == 0b01
    assert dag.dsep(0b01, 0b10, 0)


def test_closures_against_reference(kernel):
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 12)
        parents = random_parent_masks(rng, n, 0.4)
        edges = edges_from_masks(parents)
        dag = kernel(parents)
        for i in range(n):
            want = mask_of(naive_descendants(edges, i))
            assert dag.closure_down(1 << i) == want | 1 << i
            up = mask_of(naive_descendants([(b, a) for a, b in edges], i))
            assert dag.closure_up(1 << i) == up | 1 << i
        # a set's closure is the union of its members' closures
        m = rng.getrandbits(n)
        assert dag.closure_down(m) == mask_of(
            j for i in range(n) if m >> i & 1 for j in [i, *naive_descendants(edges, i)]
        )


def test_dsep_against_naive_oracle(kernel):
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 9)
        parents = random_parent_masks(rng, n, 0.35)
        edges = edges_from_masks(parents)
        dag = kernel(parents)
        a, b = rng.sample(range(n), 2)
        rest = [i for i in range(n) if i not in (a, b)]
        z = [i for i in rest if rng.random() < 0.4]
        want = naive_d_separated(edges, [a], [b], z)
        assert dag.dsep(1 << a, 1 << b, mask_of(z)) == want
        assert (not dag.reachable(1 << a, mask_of(z)) >> b & 1) == want


def test_dsep_of_sets_against_naive_oracle(kernel):
    # disjoint sets of any size: each node goes to a, b, z or none of them
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(2, 9)
        parents = random_parent_masks(rng, n, 0.35)
        edges = edges_from_masks(parents)
        dag = kernel(parents)
        roles = [rng.choice("abzz.") for _ in range(n)]
        a, b, z = ([i for i, r in enumerate(roles) if r == role] for role in "abz")
        want = naive_d_separated(edges, a, b, z)
        assert dag.dsep(mask_of(a), mask_of(b), mask_of(z)) == want


def test_opened_colliders_against_naive_oracle(kernel):
    # `opened` = W passes a collider that is an ancestor of W, and blocks
    # nothing: d-connection given z plus a new leaf child w' of each w in W
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 9)
        parents = random_parent_masks(rng, n, rng.choice((0.2, 0.35, 0.5)))
        edges = edges_from_masks(parents)
        dag = kernel(parents)
        a, b = rng.sample(range(n), 2)
        z = [i for i in range(n) if i not in (a, b) and rng.random() < 0.3]
        opened = [i for i in range(n) if rng.random() < 0.3]
        leaves = [(w, n + j) for j, w in enumerate(opened)]
        want = naive_d_separated(edges + leaves, [a], [b], z + [leaf for _, leaf in leaves])
        reached = dag.reachable(1 << a, mask_of(z), mask_of(opened))
        assert (not reached >> b & 1) == want
        # opening An(z) again changes nothing
        assert dag.reachable(1 << a, mask_of(z), mask_of(z)) == dag.reachable(1 << a, mask_of(z))
        assert dag.reachable(1 << a, mask_of(z), 0) == dag.reachable(1 << a, mask_of(z))


def test_landing_against_naive_oracle(kernel):
    # a node v of z is landed on iff it is d-connected to the source given
    # z minus v; the rest of the ball is `reachable`, and a source inside z
    # is landed on
    rng = random.Random(29)
    landed = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        parents = random_parent_masks(rng, n, rng.choice((0.15, 0.3, 0.5)))
        edges = edges_from_masks(parents)
        dag = kernel(parents)
        s = rng.randrange(n)
        z = [i for i in range(n) if i != s and rng.random() < rng.choice((0.3, 0.6))]
        got = dag.landing(1 << s, mask_of(z))
        assert got & ~mask_of(z) == 0
        for v in z:
            want = not naive_d_separated(edges, [s], [v], [u for u in z if u != v])
            assert bool(got >> v & 1) == want
            landed += want
        assert dag.landing(1 << s, mask_of(z) | 1 << s) >> s & 1
    assert landed > 100


def test_dsep_stops_where_reachable_meets_the_target(kernel):
    # dsep stops at the first round that reaches b & ~z; its answer must
    # still be that of the whole reachable set, whatever the sets share
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 14)
        dag = kernel(random_parent_masks(rng, n, rng.choice((0.15, 0.3, 0.5))))
        a, b, z = (rng.getrandbits(n) for _ in range(3))
        for a, b, z in (
            (a, b, z),  # masks drawn independently: any overlap
            (a & ~b & ~z, b & ~z, z & ~a),  # pairwise disjoint
            (a, b | a, z & ~a),  # a & b, outside z
            (a, b, z | b),  # b inside z
            (a | z, b & ~z, z),  # a & z
        ):
            assert dag.dsep(a, b, z) == (not dag.reachable(a, z) & b)


@needs_compiler
def test_backend_parity_on_random_graphs(fast_build):
    _fast = compiled(fast_build)
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 16)
        parents = random_parent_masks(rng, n, 0.3)
        pure, fast = _pure.BitDag(parents), _fast.BitDag(parents)
        for i in range(n):
            assert pure.closure_up(1 << i) == fast.closure_up(1 << i)
            assert pure.closure_down(1 << i) == fast.closure_down(1 << i)
        m = rng.getrandbits(n)
        assert pure.closure_up(m) == fast.closure_up(m)
        assert pure.closure_down(m) == fast.closure_down(m)
        # one target per node reads the whole d-connected set of a given z
        a = rng.getrandbits(n)
        z = rng.getrandbits(n) & ~a
        assert pure.reachable(a, z) == fast.reachable(a, z)
        opened = rng.getrandbits(n)
        assert pure.reachable(a, z, opened) == fast.reachable(a, z, opened)
        assert pure.landing(a, z) == fast.landing(a, z)
        assert pure.landing(a, z | a) == fast.landing(a, z | a)
        for j in range(n):
            assert pure.dsep(a, 1 << j, z) == fast.dsep(a, 1 << j, z)


@needs_compiler
def test_compiled_kernel_does_not_leak(fast_build):
    BitDag = compiled(fast_build).BitDag
    chain = [0] + [1 << (i - 1) for i in range(1, 12)]  # 0 -> 1 -> ... -> 11

    def one_round(r):
        # fresh ints above the small-int cache, so a leaked reference to an
        # argument or a result keeps its memory
        big = (1 << 40) + r
        dag = BitDag(chain)
        dag.n
        dag.closure_up((1 << 11) | (r & 1))
        dag.closure_down(1)
        dag.reachable(1, r & 2)
        dag.reachable(1, r & 2, r & 4)
        dag.landing(1, (1 << 11) | (r & 2))
        dag.dsep(1, (1 << 11) | (r & 1), 1 << 5)
        for call, *args in (
            (dag.closure_up, big),
            (dag.closure_up, -big),
            (dag.closure_down, 1 << 12),
            (dag.reachable, big, 0),
            (dag.reachable, 1, -big),
            (dag.reachable, 1),
            (dag.reachable, 1, 0, big),
            (dag.reachable, 1, 0, 0, 0),
            (dag.landing, big, 2),
            (dag.landing, 1, -big),
            (dag.landing, 1),
            (dag.landing, 1, 2, 0),
            (dag.dsep, big << 30, 2, 0),
            (dag.dsep, 1, -big, 0),
            (dag.dsep, 1, 2, 1 << 12),
            (dag.dsep, 1, 2),
            (BitDag, [0, big]),
            (BitDag, [0] * 65),
        ):
            try:
                call(*args)
            except (OverflowError, TypeError, ValueError):
                pass

    tracemalloc.start()
    try:
        for r in range(2000):
            one_round(r)
        before = tracemalloc.get_traced_memory()[0]
        for r in range(20_000):
            one_round(r)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"traced memory grew by {grown} bytes over 20000 rounds"
