"""End-to-end benchmark of the confounders package.

    python3 perfbench/run.py --workload graph-fuzz --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src. One client drives the package's public API in a closed loop: the
next op starts when the previous one returns. Times are CPU seconds of
this process plus any children it waited for. The last stdout line is a
JSON object: correct, attempted, failed, metrics.

--trace 0 measures the end-to-end metrics. --trace 1 runs the digest
prefix of ops untraced, then the same ops with every layer wrapped
(tracer.py), and reports per-layer counts and self times plus the
tracing overhead. See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import _thread
import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
SETUP_REPS = 11
CLAIMS = 86
WALL_CAP_S = 120.0  # a run takes no new op past this much wall time
YARDSTICK_SHARE = 0.2  # yardstick CPU kept at about this share of op CPU


class DeadlineExceeded(BaseException):
    """Raised in the main thread when an op outlives its CPU deadline. A
    BaseException, so `except Exception` inside the package cannot
    swallow it."""


class Watchdog:
    """Per-op CPU deadline on the main thread.

    A daemon thread polls the main thread's CPU clock and, once the armed
    op has used more than `limit_s`, delivers SIGUSR1 to the main thread
    through `_thread.interrupt_main`; the handler raises DeadlineExceeded
    there. A process-wide CPU itimer would do the same, but while one is
    armed Linux serves CLOCK_PROCESS_CPUTIME_ID at tick resolution, which
    would blur every op time.
    """

    POLL_S = 0.05

    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.armed_at = None
        self._clock = time.pthread_getcpuclockid(threading.main_thread().ident)
        self._stop = threading.Event()
        signal.signal(signal.SIGUSR1, self._on_signal)
        self._thread = threading.Thread(target=self._watch, name="deadline", daemon=True)
        self._thread.start()

    def arm(self):
        self.armed_at = time.clock_gettime(self._clock)

    def disarm(self):
        self.armed_at = None

    def close(self):
        self._stop.set()
        self._thread.join()

    def _on_signal(self, signum, frame):
        # re-check here: a signal sent just before disarm is dropped
        start = self.armed_at
        if start is not None and time.clock_gettime(self._clock) - start > self.limit_s:
            self.armed_at = None
            raise DeadlineExceeded()

    def _watch(self):
        while not self._stop.wait(self.POLL_S):
            start = self.armed_at
            if start is not None and time.clock_gettime(self._clock) - start > self.limit_s:
                _thread.interrupt_main(signal.SIGUSR1)


def cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Yardstick:
    """The frozen copy of the package (yardstick/) in a helper process.

    It is started before `import confounders` and driven over a pipe: the
    benchmark sends a fuzz config and blocks until the helper answers with
    the CPU seconds the trial took, read from the helper's own clock. So
    the yardstick shares neither heap, garbage collector nor peak RSS with
    the measured package. The helper is reaped only after the last timed
    op, so its CPU never enters `cpu()`.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--yardstick-worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise SystemExit("the yardstick helper did not start")

    def trial(self, config):
        """CPU seconds of one fuzz trial on the frozen copy."""
        self.proc.stdin.write(json.dumps(config) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise SystemExit("the yardstick helper died")
        return float(answer)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def yardstick_worker():
    """The helper's side of Yardstick: one trial per config line."""
    import yardstick

    print("ready", flush=True)
    for line in sys.stdin:
        c0 = time.process_time()
        yardstick.fuzz(yardstick.FuzzConfig(*json.loads(line)))
        print(repr(time.process_time() - c0), flush=True)


def import_package():
    """Import confounders fresh from ./src. A compiled kernel stays loaded
    (an extension module cannot be initialised twice in one process)."""
    for name in list(sys.modules):
        if name == "confounders" or name.startswith("confounders."):
            if not str(getattr(sys.modules[name], "__file__", "")).endswith((".so", ".pyd")):
                del sys.modules[name]
    cf = importlib.import_module("confounders")
    if Path(cf.__file__).resolve().parent != SRC / "confounders":
        raise SystemExit(f"imported confounders from {cf.__file__}, not from {SRC}")
    return cf


def paper_gate(cf):
    suite = cf.run_paper_suite()
    if len(suite.rows) != CLAIMS or not suite.passed:
        bad = [row.claim for row in suite.failures()]
        return f"paper suite: {len(suite.rows)} claims, failing {bad}"
    return None


def answer_hash(answer):
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def digest(hashes):
    return hashlib.sha256("".join(hashes).encode()).hexdigest()[:16]


def run_ops(wl, cf, ctx, specs, watchdog=None):
    """Run each op once. A record is [spec, cpu seconds, outcome,
    normalized answer]."""
    records = []
    for spec in specs:
        c0 = cpu()
        outcome, answer = "ok", None
        try:
            if watchdog:
                watchdog.arm()
            try:
                answer = wl.run_op(cf, ctx, spec)
            finally:
                if watchdog:
                    watchdog.disarm()
        except DeadlineExceeded:
            outcome = "deadline"
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            # SizeLimit is the package's documented refusal (exit code 3)
            kind = "refused" if type(exc).__name__ == "SizeLimit" else "error"
            outcome = f"{kind}: {type(exc).__name__}: {exc}"
        spent = cpu() - c0
        if outcome == "ok":
            answer = wl.normalize(spec, answer)
        records.append([spec, spent, outcome, answer])
    return records


def check_records(wl, cf, ctx, inputs, records, expected):
    """Mark failed records in place (outcome != ok) and return problems.

    An op fails if it raised, was refused, missed its deadline, disagrees
    with the oracle, or, on the default seed, hashes differently from the
    recorded answer. Identical ops must give identical answers. Deadline
    misses and refusals are failed ops; everything else is also a problem
    that makes the run incorrect."""
    problems = []
    first = {}
    order = sorted(range(len(records)), key=lambda i: wl.verify_order(records[i][0]))
    for i in order:
        rec = records[i]
        spec, _spent, outcome, answer = rec
        if outcome != "ok":
            continue
        key = json.dumps(spec)
        if key in first:
            if first[key] != answer:
                rec[2] = "unstable answer"
            continue
        first[key] = answer
        verdict = wl.verify(cf, ctx, inputs, spec, answer)
        if verdict:
            rec[2] = f"wrong: {verdict}"
    for i, rec in enumerate(records):
        if rec[2] != "ok" and not rec[2].startswith(("deadline", "refused")):
            problems.append(f"op {i} {rec[0]}: {rec[2]}")
    hashes = [answer_hash(rec[3] if rec[2] == "ok" else rec[2].split(":")[0]) for rec in records[: wl.prefix_ops]]
    if expected is not None:
        for i, (got, want) in enumerate(zip(hashes, expected["op_hashes"])):
            if got != want and records[i][2] == "ok":
                records[i][2] = "digest mismatch"
                problems.append(f"op {i} {records[i][0]}: answer differs from the recorded digest")
    return problems, hashes


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def expected_for(name, seed):
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(name)


def stamp(cf, wl, args, records, hashes, expected):
    failed = sum(rec[2] != "ok" for rec in records)
    beyond = len(records) - max(1, math.ceil(wl.tail_pct / 100 * len(records))) if records else 0
    dig = digest(hashes) if len(hashes) == wl.prefix_ops else None
    return {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        # without KERNEL_BACKEND the package has only its pure kernel
        "backend": getattr(cf, "KERNEL_BACKEND", "pure"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records) if records else 0.0,
        "deadline_misses": sum(rec[2] == "deadline" for rec in records),
        "slowest_answered_ms": max((rec[1] * 1000 for rec in records if rec[2] == "ok"), default=None),
        "deadline_s": wl.deadline_s,
        "tail_percentile": wl.tail_pct,
        "samples_beyond_tail": beyond,
        "digest_ops": wl.prefix_ops,
        "digest": dig,
        "digest_expected": None if expected is None else expected["digest"],
    }


def run_one(args):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    ys = None if args.trace else Yardstick()  # started before the package is imported
    try:
        return measure(wl, args, inputs, ys)
    finally:
        if ys:
            ys.close()


def timed_setup(wl, inputs, reps, ys):
    """Set up `reps` times; each set-up is followed by one setup cycle on
    the yardstick. Returns the package, the workload context, the gate
    verdict, the raw median set-up CPU and the set-up time scaled by the
    cycle that followed it (median over reps, at the defining machine's
    speed)."""
    from workloads import SETUP_CYCLE

    cycle, nominal = SETUP_CYCLE
    raw, scaled = [], []
    for _ in range(reps):
        gc.collect()  # garbage of the previous copy of the package is not set-up work
        t0 = cpu()
        cf = import_package()
        gate = paper_gate(cf)
        ctx = wl.setup(cf, inputs)
        raw.append(cpu() - t0)
        if gate:
            break
        if ys:
            scaled.append(raw[-1] / sum(ys.trial(config) for config in cycle) * nominal)
    return cf, ctx, gate, statistics.median(raw), statistics.median(scaled) if scaled else None


def measure(wl, args, inputs, ys):
    cf, ctx, gate, setup_raw, setup_s = timed_setup(wl, inputs, 1 if args.trace else SETUP_REPS, ys)
    expected = None if args.record else expected_for(wl.name, args.seed)
    specs = wl.specs(args.seed, inputs)
    watchdog = Watchdog(wl.deadline_s) if wl.deadline_s and not gate else None
    try:
        if gate:
            records, problems, hashes, metrics = [], [gate], [], {}
        elif args.trace:
            records, problems, hashes, metrics = run_traced(wl, cf, ctx, inputs, specs, expected, watchdog)
        else:
            records, problems, hashes, slowness, cycles, peak_rss = run_timed(
                wl, cf, ctx, inputs, specs, expected, args.seconds, watchdog, ys)
            metrics = e2e_metrics(wl, records, setup_s, slowness, peak_rss)
            raw = e2e_metrics(wl, records, setup_raw, 1.0, peak_rss)
    finally:
        if watchdog:
            watchdog.close()
    info = stamp(cf, wl, args, records, hashes, expected)
    if not args.trace and not gate:
        info["slowness"] = slowness
        info["pace"] = dict(wl.pace)
        info["yardstick_cycles"] = cycles
        info["raw"] = {name: value for name, (value, _unit) in raw.items()}
        info["p50_ms_by_kind"] = p50_by_kind(wl, records, slowness)
    if args.record:
        record_expected(wl, info, hashes, problems)
    elif expected is not None and info["digest"] != expected["digest"]:
        problems.append(f"digest {info['digest']} differs from the recorded {expected['digest']}")
    report(info, metrics, problems)
    result = {
        "correct": not problems,
        "attempted": max(1, len(records)),
        "failed": info["failed"] if records else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def run_timed(wl, cf, ctx, inputs, specs, expected, seconds, watchdog, ys):
    """Run the fixed number of ops `workloads.ops_per_run` gives for
    `seconds`, unless the wall-clock cap is reached first. Whenever the
    yardstick has used less than YARDSTICK_SHARE of the ops' CPU, the
    next trial of the workload's yardstick cycle runs, so the two
    interleave finely; the run ends on a whole cycle. Returns the raw
    per-op times in the records and the machine's slowness: mean cycle
    CPU over its nominal value."""
    from workloads import ops_per_run

    cycle, nominal = wl.cycle
    records, op_cpu, trials, wall0 = [], 0.0, [], time.perf_counter()
    wall_cap = min(WALL_CAP_S, 3 * seconds + 10)
    for spec in itertools.islice(specs, ops_per_run(wl, seconds)):
        records += run_ops(wl, cf, ctx, [spec], watchdog)
        op_cpu += records[-1][1]
        if sum(trials) < YARDSTICK_SHARE * op_cpu:
            trials.append(ys.trial(cycle[len(trials) % len(cycle)]))
        if time.perf_counter() - wall0 >= wall_cap:
            break
    while not trials or len(trials) % len(cycle):
        trials.append(ys.trial(cycle[len(trials) % len(cycle)]))
    slowness = sum(trials) / (len(trials) // len(cycle)) / nominal
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if watchdog:
        # the final ops run into the deadline: state it at the defining
        # machine's speed, so their scaled time does not follow the pace
        watchdog.limit_s = wl.deadline_s * slowness
    records += run_ops(wl, cf, ctx, wl.final_ops, watchdog)
    problems, hashes = check_records(wl, cf, ctx, inputs, records, expected)
    return records, problems, hashes, slowness, len(trials) // len(cycle), peak_rss


def scaled_times(wl, records, slowness, metric):
    """Sorted op times divided by slowness ** (the workload's pace exponent
    for `metric`, 1 unless workloads.py sets another)."""
    scale = slowness ** wl.pace.get(metric, 1.0)
    return sorted(rec[1] / scale for rec in records)


def e2e_metrics(wl, records, setup_s, slowness, peak_rss):
    """End-to-end metrics with op times scaled by the slowness."""
    completed = sum(rec[2] == "ok" for rec in records)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / sum(scaled_times(wl, records, slowness, "ops_per_s")), "1/s"),
        "op_p50_ms": (statistics.median(scaled_times(wl, records, slowness, "op_p50_ms")) * 1000, "ms"),
        "op_tail_ms": (percentile(scaled_times(wl, records, slowness, "op_tail_ms"), wl.tail_pct) * 1000, "ms"),
        "ok_ratio": (completed / len(records), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def p50_by_kind(wl, records, slowness):
    """Median op time in ms per op kind, so a change to a rare kind shows
    even where another kind holds the overall median."""
    scale = slowness ** wl.pace.get("op_p50_ms", 1.0)
    by_kind = {}
    for rec in records:
        by_kind.setdefault(wl.op_kind(rec[0]), []).append(rec[1] / scale * 1000)
    return {kind: statistics.median(times) for kind, times in sorted(by_kind.items())}


def run_traced(wl, cf, ctx, inputs, specs, expected, watchdog):
    import tracer

    prefix = list(itertools.islice(specs, wl.prefix_ops))
    plain = run_ops(wl, cf, ctx, prefix, watchdog)
    tr = tracer.Tracer()
    missing = tracer.install(tr)
    if missing:
        print("not traced (gone from the package): " + ", ".join(missing))
    traced_ctx = wl.setup(cf, inputs)
    parse_s = tr.self_s["formats.parse"]
    tr.reset()  # the per-layer metrics below describe the ops alone
    traced = run_ops(wl, cf, traced_ctx, prefix, watchdog)
    metrics = tr.metrics()
    metrics["formats.parse.self_s"] = (parse_s, "s")
    shares = tr.layer_self()
    problems, hashes = check_records(wl, cf, ctx, inputs, plain, expected)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if (a[2], a[3]) != (b[2], b[3]):
            problems.append(f"op {i} {a[0]}: traced answer differs from the untraced one")
    plain_cpu = sum(rec[1] for rec in plain)
    traced_cpu = sum(rec[1] for rec in traced)
    metrics["trace.untraced_ops_per_s"] = (len(plain) / plain_cpu, "1/s")
    metrics["trace.traced_ops_per_s"] = (len(traced) / traced_cpu, "1/s")
    metrics["trace.overhead_ratio"] = (traced_cpu / plain_cpu, "ratio")
    outside = traced_cpu - sum(shares.values())
    print(f"layer self-time shares of {traced_cpu:.3f} traced CPU-s over {len(traced)} ops:")
    for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<11}{seconds:9.3f} s {100 * seconds / traced_cpu:6.1f}%")
    print(f"  {'outside':<11}{outside:9.3f} s {100 * outside / traced_cpu:6.1f}%  (benchmark loop)")
    print(f"re-parsing the inputs before the traced ops: formats self time {parse_s:.3f} s")
    print(f"tracing overhead: {plain_cpu:.3f} CPU-s untraced, {traced_cpu:.3f} traced, "
          f"x{traced_cpu / plain_cpu:.2f}")
    return plain, problems, hashes, metrics


def record_expected(wl, info, hashes, problems):
    if problems or info["seed"] != DEFAULT_SEED or info["digest"] is None:
        raise SystemExit("refusing to record: run the default seed to a clean finish first")
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    doc[wl.name] = {"digest": info["digest"], "op_hashes": hashes}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def report(info, metrics, problems):
    print(f"workload {info['workload']}  seed {info['seed']}  backend {info['backend']}  "
          f"python {info['python']}  nproc {info['nproc']}")
    slowest = info["slowest_answered_ms"]
    print(f"  ops {info['ops']}  failed {info['failed']}  fail_ratio {info['fail_ratio']:.6f}  "
          f"deadline misses {info['deadline_misses']}  slowest answered op "
          + ("-" if slowest is None else f"{slowest:.1f} ms"))
    print(f"  digest {info['digest']} over the first {info['digest_ops']} ops"
          + ("" if info["digest_expected"] is None else f" (recorded {info['digest_expected']})"))
    if "slowness" in info:
        print(f"  op_tail_ms is p{info['tail_percentile']:g}, "
              f"{info['samples_beyond_tail']} samples beyond it")
        print(f"  op times below are divided by the slowness {info['slowness']:.4f} measured by "
              f"{info['yardstick_cycles']} yardstick cycles (power 1"
              + "".join(f", {k} power {v:g}" for k, v in info["pace"].items()) + "), "
              f"setup_s by the cycle after each set-up; raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
        print("  op_p50_ms by kind: " + ", ".join(f"{k} {v:.4g}" for k, v in info["p50_ms_by_kind"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44}{value:>16.6g} {unit}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    print(json.dumps({"stamp": info}, sort_keys=True))


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    from workloads import WORKLOADS

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if proc.returncode or not isinstance(result, dict):
            print(proc.stderr, end="", file=sys.stderr)
            status = 1
        if not isinstance(result, dict):  # crashed before its result line: a failed workload
            combined["correct"] = False
            combined["attempted"] += 1
            combined["failed"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store the default seed's answer hashes in expected.json")
    args = ap.parse_args(argv)
    if not (SRC / "confounders" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if sys.argv[1:] == ["--yardstick-worker"]:
        sys.exit(yardstick_worker())
    sys.exit(main())
