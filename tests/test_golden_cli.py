"""The full text of `classify` and `properties` on the packaged fixtures,
byte for byte, against `golden_cli.json`.

The other CLI tests check substrings; these pin every witness, number and
label the two commands print. After a deliberate output change, rewrite the
file with `PYTHONPATH=src python tests/test_golden_cli.py` and review the
diff.
"""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from confounders.cli import main
from test_cli import fx

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = ("fig1", "fig2", "fig3", "fig4", "prop5")


def cases():
    """Each command line, with the fixture files named by their file names."""
    for name in FIXTURES:
        for model in ((), ("--model", f"{name}.json")):
            for flags in ((), ("--exact",), ("--format", "json")):
                yield ("classify", f"{name}.graph", *model, *flags)
    for name in FIXTURES:
        for def_id in ("D1", "D2", "D3", "D4", "D5", "D6"):
            yield ("properties", f"{name}.graph", "--model", f"{name}.json", "--def", def_id)


def run(case):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([fx(arg) if arg.endswith((".graph", ".json")) else arg for arg in case])
    return {"code": code, "out": out.getvalue()}


@pytest.mark.parametrize("case", list(cases()), ids=" ".join)
def test_cli_output_is_the_recorded_output(case):
    assert run(case) == json.loads(GOLDEN.read_text())[" ".join(case)]


if __name__ == "__main__":
    doc = {" ".join(case): run(case) for case in cases()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
