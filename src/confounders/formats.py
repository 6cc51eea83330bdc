"""Text formats: the line-oriented graph file, the JSON model file, and
display helpers shared by the CLI.

Graph file, one directive per line, `#` starts a comment:

    node <name> [pre|exposure|outcome]
    edge <parent> <child>

Nodes must be declared before edges mention them. Exactly one node is
tagged exposure and exactly one outcome. Tagging any node `pre` narrows
the covariate pool to the tagged nodes; with no `pre` tags every
nondescendant of the exposure is eligible.

Model file, JSON:

    {
      "states": {"C": [0, 1], ...},
      "cpts": {
        "C": {"parents": [], "table": {"": ["1/2", "1/2"]}},
        "A": {"parents": ["C"], "table": {"0": ["3/4", "1/4"],
                                           "1": ["1/4", "3/4"]}}
      }
    }

Probability entries are strings, "p/q" or a finite decimal, no exponent
(ints also accepted); bare JSON floats are rejected so nothing is rounded.
Each table row lists one probability per state, in state order. Row keys
join the parent states with commas, in the cpt's declared parent order;
root nodes use the single key "".
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .errors import GraphError, ParseError
from .graph import Dag, Path
from .model import Cpt, DiscreteModel

_ROLES = ("pre", "exposure", "outcome")


def parse_graph(text):
    """Parse graph-file text into a Dag. Errors carry 1-based line numbers."""
    nodes = []
    edges = []
    seen = set()
    edge_seen = set()
    exposure = None
    outcome = None
    pre = set()
    any_pre = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) not in (2, 3):
                raise ParseError("node takes a name and an optional role", lineno)
            name = tokens[1]
            if name in seen:
                raise ParseError(f"duplicate node {name!r}", lineno)
            seen.add(name)
            nodes.append(name)
            if len(tokens) == 3:
                role = tokens[2]
                if role not in _ROLES:
                    raise ParseError(
                        f"unknown role {role!r}; expected one of {_ROLES}", lineno
                    )
                if role == "exposure":
                    if exposure is not None:
                        raise ParseError("second exposure declared", lineno)
                    exposure = name
                elif role == "outcome":
                    if outcome is not None:
                        raise ParseError("second outcome declared", lineno)
                    outcome = name
                else:
                    any_pre = True
                    pre.add(name)
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise ParseError("edge takes a parent and a child", lineno)
            parent, child = tokens[1], tokens[2]
            for name in (parent, child):
                if name not in seen:
                    raise ParseError(f"edge mentions undeclared node {name!r}", lineno)
            if (parent, child) in edge_seen:
                raise ParseError(f"duplicate edge {parent} -> {child}", lineno)
            edge_seen.add((parent, child))
            edges.append((parent, child))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
    if exposure is None:
        raise ParseError("no node declared as exposure")
    if outcome is None:
        raise ParseError("no node declared as outcome")
    try:
        return Dag(nodes, edges, exposure, outcome, pre if any_pre else None)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from exc


def load_graph(path):
    return parse_graph(_read_text(path))


def _state_from_token(token, node, states):
    token = token.strip()
    hits = [s for s in states if str(s) == token]
    if len(hits) != 1:
        raise ParseError(f"key token {token!r} matches no state of {node!r}")
    return hits[0]


def parse_model(text, dag):
    """Parse model-file JSON (text or an already-decoded dict) against a Dag."""
    if isinstance(text, (dict,)):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must hold a JSON object")
    extra = set(doc) - {"states", "cpts", "comment"}
    if extra:
        raise ParseError(f"unknown top-level keys {sorted(extra)!r}")
    if "states" not in doc or "cpts" not in doc:
        raise ParseError("model file needs 'states' and 'cpts'")
    states_doc = doc["states"]
    cpts_doc = doc["cpts"]
    if not isinstance(states_doc, dict) or not isinstance(cpts_doc, dict):
        raise ParseError("'states' and 'cpts' must be objects")

    spaces = {}
    for node, states in states_doc.items():
        if not isinstance(states, list) or not states:
            raise ParseError(f"states for {node!r} must be a nonempty list")
        for s in states:
            if isinstance(s, bool) or not isinstance(s, (int, str)):
                raise ParseError(f"state {s!r} of {node!r} must be an int or a string")
        if len({str(s) for s in states}) != len(states):
            raise ParseError(f"states of {node!r} collide when written out")
        spaces[node] = tuple(states)

    cpts = {}
    for node, block in cpts_doc.items():
        if not isinstance(block, dict) or set(block) - {"parents", "table"}:
            raise ParseError(f"cpt for {node!r} must hold 'parents' and 'table' only")
        if "parents" not in block or "table" not in block:
            raise ParseError(f"cpt for {node!r} needs 'parents' and 'table'")
        parents = block["parents"]
        if not isinstance(parents, list):
            raise ParseError(f"cpt parents for {node!r} must be a list")
        for p in parents:
            if p not in spaces:
                raise ParseError(f"cpt for {node!r} names {p!r}, which has no states")
        table_doc = block["table"]
        if not isinstance(table_doc, dict):
            raise ParseError(f"cpt table for {node!r} must be an object")
        table = {}
        for key, row in table_doc.items():
            if not isinstance(key, str):
                raise ParseError(f"cpt for {node!r}: row key {key!r} must be a string")
            if parents:
                tokens = key.split(",")
                if len(tokens) != len(parents):
                    raise ParseError(
                        f"cpt for {node!r}: key {key!r} has {len(tokens)} entries "
                        f"for {len(parents)} parents"
                    )
                parsed = tuple(
                    _state_from_token(tok, p, spaces.get(p, ()))
                    for tok, p in zip(tokens, parents)
                )
            else:
                if key.strip() != "":
                    raise ParseError(f"cpt for root {node!r}: key must be \"\"")
                parsed = ()
            if not isinstance(row, list):
                raise ParseError(f"cpt for {node!r} row {key!r} must be a list")
            for p in row:
                if isinstance(p, float) or isinstance(p, bool):
                    raise ParseError(
                        f"cpt for {node!r} row {key!r}: write probabilities as "
                        f"strings, not bare floats"
                    )
            table[parsed] = tuple(row)
        cpts[node] = Cpt(node, tuple(parents), table)

    return DiscreteModel(dag, spaces, cpts)


def load_model(path, dag):
    return parse_model(_read_text(path), dag)


def format_3dec(value):
    """Fixed three decimals, truncated toward zero: 4/15 -> '0.266'."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    scaled = (abs(value.numerator) * 1000) // value.denominator
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


# Python refuses str() of an int past its digit limit (4300 by default, and
# never under 640), so an exact number is written in 600-digit pieces
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def _int_text(n):
    """str(n) for an int of any length."""
    if -_PIECE < n < _PIECE:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    return sign + str(n) + "".join(reversed(pieces))


def _fraction_text(value):
    """str(Fraction(value)), 'p/q' or 'p', for parts of any length."""
    value = Fraction(value)
    numerator = _int_text(value.numerator)
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{_int_text(value.denominator)}"


def format_effect(value, exact=False):
    """Display form for an effect or bias: exact rational or 3 decimals."""
    return _fraction_text(value) if exact else format_3dec(value)


def format_set(names):
    """Display form for a set of names: {A, B}."""
    return "{" + ", ".join(names) + "}"


def json_ready(obj):
    """Recursively convert package objects into JSON-serializable ones.

    Fractions become 'p/q' strings, Paths their arrow form, dataclasses
    dicts, tuples/sets sorted lists where order is not meaningful.
    """
    if isinstance(obj, Fraction):
        return _fraction_text(obj)
    if isinstance(obj, Path):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_ready(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json_ready(v) for v in obj)
    return obj
