"""Compare saved benchmark output of two builds, metric by metric.

    python3 perfbench/run.py --workload graph-fuzz --seed 1 > base.log   # repeat, appending
    python3 perfbench/compare.py base.log new.log

Each log holds the stdout of one or more runs. A run contributes its
stamp line and its result line. Medians per workload and metric are
printed side by side. Results whose kernel backends differ are refused
(exit 2): a built `_fast*.so` is gitignored and switches the backend
silently, so such numbers measure different programs.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    """{workload: {"backends": set, "digests": set, "metrics": {name: [values]}}}"""
    runs = defaultdict(lambda: {"backends": set(), "digests": set(), "metrics": defaultdict(list)})
    stamp = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "stamp" in doc:
                stamp = doc["stamp"]
            elif "metrics" in doc and stamp is not None:
                run = runs[stamp["workload"]]
                run["backends"].add(stamp["backend"])
                run["digests"].add((stamp["seed"], stamp["digest"]))
                for name, metric in doc["metrics"].items():
                    run["metrics"][name].append(metric["value"])
                stamp = None
    return runs


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) & set(new)):
        backends = base[workload]["backends"] | new[workload]["backends"]
        if len(backends) != 1:
            print(f"{workload}: refusing to compare kernel backends {sorted(backends)}", file=sys.stderr)
            return 2
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        seeds_b, seeds_n = dict(b["digests"]), dict(n["digests"])
        changed = sorted(s for s in seeds_b.keys() & seeds_n.keys() if seeds_b[s] != seeds_n[s])
        print(f"{workload} (backend {next(iter(b['backends']))})"
              + (f"  ANSWERS DIFFER on seeds {changed}" if changed else ""))
        for name in sorted(b["metrics"].keys() & n["metrics"].keys()):
            mb, mn = statistics.median(b["metrics"][name]), statistics.median(n["metrics"][name])
            change = f"{100 * (mn - mb) / mb:+7.1f}%" if mb else "      -"
            print(f"  {name:<44}{mb:>14.6g}{mn:>14.6g} {change}"
                  f"  (n={len(b['metrics'][name])}/{len(n['metrics'][name])})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
