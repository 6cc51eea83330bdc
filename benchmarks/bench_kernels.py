"""Compare the compiled and pure reachability kernels on identical workloads.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--nodes 40] [--queries 2000] [--seed 7]

Builds one batch of random parent-mask graphs, runs the same d-separation
queries through both backends, verifies the answers agree, and prints the
per-backend CPU time (`time.process_time`, the minimum of 5 runs) with the
speedup ratio.
"""
import argparse
import random
import time

from confounders._kernels import _pure

try:
    from confounders._kernels import _fast
except ImportError:
    _fast = None


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def make_workload(seed, n_nodes, n_queries):
    rng = random.Random(seed)
    graphs = []
    for _ in range(50):
        parents = [
            mask_of(j for j in range(i) if rng.random() < 0.25) for i in range(n_nodes)
        ]
        graphs.append(parents)
    queries = []
    for _ in range(n_queries):
        g = rng.randrange(len(graphs))
        a, b = rng.sample(range(n_nodes), 2)
        z = mask_of(
            i for i in range(n_nodes) if i not in (a, b) and rng.random() < 0.3
        )
        queries.append((g, 1 << a, 1 << b, z))
    return graphs, queries


def run(backend, graphs, queries, repeats=5):
    dags = [backend.BitDag(parents) for parents in graphs]
    answers = None
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        got = [dags[g].dsep(a, b, z) for g, a, b, z in queries]
        times.append(time.process_time() - t0)
        answers = got
    return min(times), answers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=40)
    ap.add_argument("--queries", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    graphs, queries = make_workload(args.seed, args.nodes, args.queries)
    pure_time, pure_answers = run(_pure, graphs, queries)
    print(f"pure     {pure_time * 1000:8.1f} ms  ({args.queries} queries, {args.nodes} nodes)")
    if _fast is None:
        print("compiled backend not built; run python3 setup.py build_ext --inplace first")
        return
    fast_time, fast_answers = run(_fast, graphs, queries)
    assert fast_answers == pure_answers, "backends disagree; investigate before trusting timings"
    print(f"compiled {fast_time * 1000:8.1f} ms  ({args.queries} queries, {args.nodes} nodes)")
    print(f"speedup  {pure_time / fast_time:8.1f}x  (answers identical)")


if __name__ == "__main__":
    main()
