"""The README's examples run as written: its command lines on its own example
files, its Library snippet with the values its comments give, and the A/B
harness it documents."""
import json
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import confounders
from confounders.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(confounders.__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title):
    """The README text from heading `title` to the next heading of its level."""
    start = README.index(title)
    level = title.split(" ")[0]
    end = README.find("\n" + level + " ", start + len(title))
    return README[start:] if end < 0 else README[start:end]


def blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def example_dir(tmp_path):
    """tmp_path holding the two *File formats* blocks as the files the
    commands name, and the package fixtures at their checkout path."""
    formats = section("## File formats")
    (tmp_path / "examples.graph").write_text(blocks(formats, "")[0])
    (tmp_path / "examples.json").write_text(blocks(formats, "json")[0])
    shutil.copytree(SRC / "confounders" / "fixtures", tmp_path / "src/confounders/fixtures")
    return tmp_path


def test_every_readme_command_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(example_dir(tmp_path))
    commands = [
        line
        for block in blocks(section("## Command line"), "sh")
        for line in block.splitlines()
        if line.startswith("confounders ")
    ]
    assert len(commands) == 10
    for line in commands:
        code = main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), line


def test_the_library_snippet_gives_its_commented_values(tmp_path, monkeypatch):
    monkeypatch.chdir(example_dir(tmp_path))
    (snippet,) = blocks(section("## Library"), "python")
    for comment in ('# (("C",),)', "# Fraction(1, 10)", "# True"):
        assert comment in snippet
    names = {}
    exec(snippet, names)
    assert names["catalog"].sets == (("C",),)
    assert names["model"].ace() == Fraction(1, 10)
    assert names["model"].cf_unconfounded(("C",)) is True
    assert names["report"].lattice_ok


def run_ab(base, change):
    return subprocess.run(
        [sys.executable, "benchmarks/ab.py", str(base), str(change),
         "--workload", "graph-fuzz", "--rounds", "2", "--ops", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_the_ab_harness_runs_the_repo_against_itself():
    done = run_ab(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2].startswith("answers identical on both sides in every round")
    report = json.loads(lines[-1])
    assert report["answers_identical"] and report["ops"] == 10 and report["rounds"] == 2
    assert set(report["rows"]) == {"trial", "all", "tail"}
    assert report["rows"]["trial"]["ops"] == 10
    # two rounds are too few for a 95% interval of the median ratio
    for row in report["rows"].values():
        assert row["ratio_ci95_low"] is None and row["ratio_ci95_high"] is None
    assert "95% interval" in lines[3]


def test_the_median_interval_is_the_order_statistics_binomial_coverage_allows():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from ab import median_interval
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    # P(Binomial(n, 1/2) <= k - 1) <= 0.025 < P(... <= k): k = 1 at n = 6,
    # 6 at n = 20 and 14 at n = 40
    assert median_interval([5, 1, 4, 2, 6, 3]) == (1, 6)
    assert median_interval(list(range(20, 0, -1))) == (6, 15)
    assert median_interval(list(range(1, 41))) == (14, 27)
    assert median_interval([1, 2, 3, 4, 5]) == (None, None)


def test_the_ab_harness_fails_when_the_answers_differ(tmp_path):
    # a second tree whose workload reports one more trial than it ran
    other = tmp_path / "other"
    skip = shutil.ignore_patterns("__pycache__", "*.so")
    shutil.copytree(ROOT / "src", other / "src", ignore=skip)
    shutil.copytree(ROOT / "perfbench", other / "perfbench", ignore=skip)
    with open(other / "perfbench" / "workloads.py", "a") as f:
        f.write(
            "\n_normalize = FuzzWorkload.normalize\n"
            "FuzzWorkload.normalize = lambda self, spec, report: "
            "{**_normalize(self, spec, report), 'trials': 2}\n"
        )
    done = run_ab(ROOT, other)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-2].startswith("answers differ")
    assert not json.loads(done.stdout.splitlines()[-1])["answers_identical"]
