"""The benchmark's digest gate: on seed 0, every workload's answers hash
to the digest recorded in perfbench/expected.json."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_seed_zero_digests_match_the_recorded_ones():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    stamps = [json.loads(line)["stamp"] for line in proc.stdout.splitlines() if line.startswith('{"stamp"')]
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    assert {s["workload"]: s["digest"] for s in stamps} == {
        name: entry["digest"] for name, entry in expected.items()
    }
