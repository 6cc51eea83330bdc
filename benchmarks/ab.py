"""In-process A/B of two source trees on one benchmark workload's op stream.

Usage, from anywhere:
    python3 benchmarks/ab.py BASE CHANGE --workload query-session --rounds 20
        [--seed 0] [--ops N]

BASE and CHANGE are source trees of this package (each with `src/` and
`perfbench/`), for example a `git archive` of the parent commit and the
checkout. One worker process per tree imports that tree's package and its
`perfbench/workloads.py` once, draws the workload's seeded op stream (the
first N ops, by default as many as a 30-second `perfbench/run.py` run
takes), and then runs the whole stream once per round on freshly set-up
inputs. Rounds go to the two workers in ABBA order: base then change,
change then base, and so on. Each op is timed in CPU seconds of its worker
(`time.process_time`), with no yardstick and no scaling.

The report gives, for each side, the CPU of each op kind and of the whole
stream (median over rounds), and the workload's tail percentile of single
op times (p98 on `query-session`), with the change/base ratio paired by
round (median and quartiles) and the number of rounds the change was
lower. The last stdout line is the same report as JSON. The run exits 1
when any round's answers (the normalized answers `perfbench/run.py` hashes) differ
between the two sides or between rounds, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


def percentile(sorted_values, pct):
    """Nearest-rank percentile, as `perfbench/run.py` takes it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# -- the worker: one per tree -------------------------------------------------


def worker(tree, workload, seed, ops):
    """Import the tree's package and workloads, draw the op stream, then
    answer each `run` line on stdin with one JSON line: CPU seconds per op
    kind, every op's CPU seconds in stream order, and the answers' hash."""
    tree = Path(tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import confounders
    from workloads import WORKLOADS, ops_per_run

    if Path(confounders.__file__).resolve().parent != tree / "src" / "confounders":
        raise SystemExit(f"imported confounders from {confounders.__file__}, not from {tree}")
    wl = WORKLOADS[workload]
    inputs = wl.generate(seed)
    specs = list(itertools.islice(wl.specs(seed, inputs), ops or ops_per_run(wl, 30)))
    backend = getattr(confounders, "KERNEL_BACKEND", "pure")
    counts = Counter(wl.op_kind(spec) for spec in specs)
    print(json.dumps({"backend": backend, "counts": counts, "tail_pct": wl.tail_pct}), flush=True)
    for _line in sys.stdin:
        ctx = wl.setup(confounders, inputs)
        gc.collect()
        by_kind, times, digest = {}, [], hashlib.sha256()
        for spec in specs:
            c0 = time.process_time()
            try:
                answer = wl.run_op(confounders, ctx, spec)
            except Exception as exc:  # a raising op is an answer to compare, not a crash
                spent = time.process_time() - c0
                answer = f"error: {type(exc).__name__}: {exc}"
            else:
                spent = time.process_time() - c0
                answer = wl.normalize(spec, answer)
            kind = wl.op_kind(spec)
            by_kind[kind] = by_kind.get(kind, 0.0) + spent
            times.append(spent)
            digest.update(json.dumps(answer, sort_keys=True, separators=(",", ":")).encode())
        print(json.dumps({"by_kind": by_kind, "times": times, "hash": digest.hexdigest()[:16]}), flush=True)


class Worker:
    def __init__(self, tree, args):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             args.workload, str(args.seed), str(args.ops or 0)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.info = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("a worker died; its error is above")
        return json.loads(line)

    def round(self):
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


# -- the driver ---------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rounds, counts, tail_pct):
    """Per op kind, the whole stream and the tail: the op count, each
    side's median over rounds (ms) and the round-paired change/base
    ratio."""
    base, change = rounds["base"], rounds["change"]
    kinds = sorted(counts)

    def series(side, name):
        if name == "all":
            return [sum(r["times"]) * 1000 for r in side]
        if name == "tail":
            return [percentile(sorted(r["times"]), tail_pct) * 1000 for r in side]
        return [r["by_kind"].get(name, 0.0) * 1000 for r in side]

    rows = {}
    for name in kinds + ["all", "tail"]:
        b, c = series(base, name), series(change, name)
        ratios = [y / x for x, y in zip(b, c) if x > 0]
        q1, med, q3 = quartiles(ratios) if ratios else (None, None, None)
        rows[name] = {
            "ops": sum(counts.values()) if name in ("all", "tail") else counts[name],
            "base_ms": statistics.median(b),
            "change_ms": statistics.median(c),
            "ratio": med,
            "ratio_q1": q1,
            "ratio_q3": q3,
            "change_lower": sum(y < x for x, y in zip(b, c)),
        }
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=("graph-fuzz", "model-fuzz", "query-session"))
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="ops per round (default: those of a 30-second perfbench run)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be at least 1")

    workers = {}
    try:
        for side in ("base", "change"):
            workers[side] = Worker(getattr(args, side), args)
        info = {side: w.info for side, w in workers.items()}
        rounds = {"base": [], "change": []}
        for r in range(args.rounds):
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            for side in order:
                rounds[side].append(workers[side].round())
    finally:
        for w in workers.values():
            w.close()

    tail_pct = info["base"]["tail_pct"]
    counts = info["base"]["counts"]
    rows = summarize(rounds, counts, tail_pct)
    hashes = {side: sorted({r["hash"] for r in rounds[side]}) for side in rounds}
    identical = hashes["base"] == hashes["change"] and len(hashes["base"]) == 1
    for side in ("base", "change"):
        print(f"{side:7} {getattr(args, side)}  backend {info[side]['backend']}")
    print(f"workload {args.workload}, seed {args.seed}, {sum(counts.values())} ops a round, "
          f"{args.rounds} rounds in ABBA order, CPU ms (median over rounds)")
    print(f"{'':12} {'ops':>6} {'base':>10} {'change':>10} {'ratio':>7} {'quartiles':>13} {'lower':>7}")
    for name, row in rows.items():
        label = f"p{tail_pct:g} op" if name == "tail" else name
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        spread = "-" if row["ratio"] is None else f"{row['ratio_q1']:.3f}-{row['ratio_q3']:.3f}"
        print(f"{label:12} {row['ops']:6} {row['base_ms']:10.3f} {row['change_ms']:10.3f} {ratio:>7} {spread:>13} "
              f"{row['change_lower']:>3}/{args.rounds}")
    if identical:
        print(f"answers identical on both sides in every round ({hashes['base'][0]})")
    else:
        print(f"answers differ: base {hashes['base']}, change {hashes['change']}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": sum(counts.values()),
        "rounds": args.rounds,
        "tail_pct": tail_pct,
        "backend": {side: info[side]["backend"] for side in info},
        "rows": rows,
        "answers_identical": identical,
        "hashes": hashes,
    }, sort_keys=True))
    return 0 if identical else 1


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        tree, workload, seed, ops = sys.argv[2:6]
        worker(tree, workload, int(seed), int(ops))
    else:
        sys.exit(main())
