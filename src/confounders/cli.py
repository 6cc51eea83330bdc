"""Command-line frontend.

Six subcommands over the graph/model file formats:

  minimal-sets   catalog of minimally sufficient adjustment sets
  classify       per-covariate definition verdicts with witnesses
  properties     Property 1 / 2A / 2B verdicts for one definition
  paper-suite    re-derive every frozen registry claim
  fuzz           randomized theorem checking, deterministic per seed
  select         backward / forward / split-reduction selection traces

Every command takes `--format text|json`; output is deterministic given
the inputs and flags. Exit codes: 0 ok, 1 suite mismatch, 2 parse or file
problem, 3 size cap, 4 missing model, 5 positivity violation, 6 bad
config.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .adjust import _sufficient, minimal_sufficient_sets
from .classify import DEFINITIONS, _TABLE, _definitions, classify_variable
from .errors import (
    ConfounderError,
    InvalidConfig,
    MissingModel,
    ParseError,
    PositivityViolation,
    SizeLimit,
)
from .formats import format_effect, format_set, json_ready, load_graph, load_model
from .fuzz import FuzzConfig, fuzz
from .properties import _property2a, _property2b, check_property1
from .registry import run_paper_suite
from .selection import IndependenceOracle, backward_select, forward_select, robins_reduction


def _emit(text):
    sys.stdout.write(text)


def _emit_json(doc):
    _emit(json.dumps(json_ready(doc), sort_keys=True, indent=2) + "\n")


def _load_inputs(args, need_model=False):
    dag = load_graph(args.graph)
    model = None
    if getattr(args, "model", None):
        model = load_model(args.model, dag)
    if need_model and model is None:
        raise MissingModel("this invocation needs --model")
    return dag, model


def _parse_names(raw):
    """The names of a comma list, each once, in first-seen order."""
    names = (tok.strip() for tok in raw.split(","))
    return tuple(dict.fromkeys(name for name in names if name))


# -- minimal-sets ---------------------------------------------------------


def cmd_minimal_sets(args):
    dag = load_graph(args.graph)
    catalog = minimal_sufficient_sets(dag)
    union_sufficient = _sufficient(dag, catalog.union)
    if args.format == "json":
        _emit_json(
            {
                "sets": [list(s) for s in catalog.sets],
                "union": list(catalog.union),
                "union_sufficient": union_sufficient,
            }
        )
        return 0
    listed = ", ".join(format_set(s) for s in catalog.sets)
    word = "sufficient" if union_sufficient else "NOT sufficient"
    _emit(f"{listed}; union {format_set(catalog.union)} {word}\n")
    return 0


# -- classify -------------------------------------------------------------


def cmd_classify(args):
    wanted = None if args.defs is None else _definitions(_parse_names(args.defs))
    dag, model = _load_inputs(args)
    wanted = _definitions(wanted, model is not None)
    variables = (args.variable,) if args.variable else dag.covariate_pool
    reports = [classify_variable(dag, v, model=model, defs=wanted) for v in variables]
    cf_empty = model.cf_unconfounded(()) if model is not None else None

    if args.format == "json":
        doc = {
            "variables": [
                {
                    "variable": r.variable,
                    "verdicts": r.verdicts,
                    "witnesses": r.witnesses,
                    "surrogate": r.surrogate,
                    "lattice_ok": r.lattice_ok,
                    "d1_numeric": r.d1_numeric,
                    "dashed_observations": r.dashed_observations,
                }
                for r in reports
            ],
            "cf_unconfounded_empty": cf_empty,
        }
        _emit_json(doc)
        return 0

    lines = []
    for r in reports:
        cells = []
        for def_id, verdict in r.verdicts.items():
            witness = r.witnesses.get(def_id)
            wit = "" if witness is None else _TABLE[def_id].text(witness, args.exact)
            cells.append(f"{def_id} {'yes' if verdict else 'no'}{wit}")
        extras = []
        if r.surrogate is not None:
            extras.append(f"surrogate {'yes' if r.surrogate else 'no'}")
        if not r.lattice_ok:
            extras.append("LATTICE VIOLATION")
        if r.dashed_observations:
            extras.append("dashed " + ",".join(r.dashed_observations))
        tail = ("  [" + "; ".join(extras) + "]") if extras else ""
        lines.append(f"{r.variable}: " + " | ".join(cells) + tail)
    if cf_empty is not None:
        lines.append(f"cf-unconfounded given {{}}: {'yes' if cf_empty else 'no'}")
    _emit("\n".join(lines) + "\n")
    return 0


# -- properties -----------------------------------------------------------


def cmd_properties(args):
    dag, model = _load_inputs(args)
    def_id = args.definition
    p1 = check_property1(dag, model, def_id)
    positives = p1.witness["set"]
    rows = [(p1, None)]
    for c in positives:
        rows.append((_property2a(dag if model is None else model.dag, def_id, c), c))
        if model is not None:
            rows.append((_property2b(model, def_id, c), c))

    if args.format == "json":
        _emit_json(
            {
                "definition": def_id,
                "positives": positives,
                "verdicts": [
                    dict(json_ready(v), variable=c) for v, c in rows
                ],
            }
        )
        return 0

    lines = []
    for v, c in rows:
        status = "PASS" if v.holds else "FAIL"
        subject = f" {c}" if c else ""
        detail = _describe_witness(v, args.exact)
        lines.append(f"{v.property} {v.definition}{subject}: {status}{detail}")
    _emit("\n".join(lines) + "\n")
    return 0


def _describe_witness(verdict, exact):
    w = dict(verdict.witness)
    w.pop("variable", None)
    parts = []
    for key in sorted(w):
        value = w[key]
        if key in ("set", "context"):
            parts.append(f"{key} {format_set(value)}")
        elif key in ("abs_bias_with", "abs_bias_without"):
            parts.append(f"{key} {format_effect(Fraction(value), exact)}")
        else:
            parts.append(f"{key} {value}")
    return (" (" + "; ".join(parts) + ")") if parts else ""


# -- paper-suite ----------------------------------------------------------


def cmd_paper_suite(args):
    result = run_paper_suite()
    if args.format == "json":
        _emit(result.to_json())
    else:
        _emit(result.to_text())
    return 0 if result.passed else 1


# -- fuzz -----------------------------------------------------------------


def cmd_fuzz(args):
    config = FuzzConfig(
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        n_trials=args.trials,
        seed=args.seed,
        with_models=args.models,
    )
    report = fuzz(config)
    _emit(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


# -- select ---------------------------------------------------------------


def cmd_select(args):
    dag, model = _load_inputs(args, need_model=args.oracle == "numeric")
    oracle = (
        IndependenceOracle.numeric(model)
        if args.oracle == "numeric"
        else IndependenceOracle.graphical(dag)
    )
    chosen = _parse_names(args.set) if args.set else ()
    base = _parse_names(args.base) if args.base else ()

    if args.mode == "robins":
        found, split = robins_reduction(oracle, base, chosen)
        if args.format == "json":
            _emit_json(
                {
                    "mode": "robins",
                    "s1": base,
                    "s2": chosen,
                    "reducible": found,
                    "split": split,
                }
            )
            return 0
        lines = [
            f"mode: robins ({args.oracle})",
            f"S1: {format_set(base)}  S2: {format_set(chosen)}",
            f"reducible: {'yes' if found else 'no'}",
        ]
        if found:
            t1, t2 = split
            lines.append(f"T1: {format_set(t1)}  T2: {format_set(t2)}")
        _emit("\n".join(lines) + "\n")
        return 0

    runner = backward_select if args.mode == "backward" else forward_select
    trace = runner(oracle, chosen)
    if args.format == "json":
        _emit_json(
            {
                "mode": args.mode,
                "oracle": args.oracle,
                "initial": trace.initial,
                "steps": [
                    {"variable": v, "query": q, "independent": ind}
                    for v, q, ind in trace.steps
                ],
                "final": trace.final,
                "caveats": trace.caveats,
            }
        )
        return 0
    lines = [f"mode: {args.mode} ({args.oracle})", f"initial: {format_set(trace.initial)}"]
    for i, (_, query, verdict) in enumerate(trace.steps, 1):
        lines.append(f"{i}. query {query} -> {'independent' if verdict else 'dependent'}")
    lines.append(f"final: {format_set(trace.final)}")
    for caveat in trace.caveats:
        lines.append(f"caveat: {caveat}")
    _emit("\n".join(lines) + "\n")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confounders",
        description="Adjustment sets, confounder definitions, and selection "
        "procedures on discrete causal DAGs, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, exact=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if model:
            p.add_argument("--model", help="JSON model file", default=None)
        if exact:
            p.add_argument(
                "--exact", action="store_true", help="print exact rationals, not 3 decimals"
            )

    p = sub.add_parser("minimal-sets", help="catalog of minimally sufficient sets")
    p.add_argument("graph", help="graph file")
    common(p, model=False)
    p.set_defaults(func=cmd_minimal_sets)

    p = sub.add_parser("classify", help="definition verdicts per covariate")
    p.add_argument("graph")
    p.add_argument("--variable", default=None, help="one covariate (default: all)")
    p.add_argument(
        "--defs", default=None, help="comma list of definition ids (default: all available)"
    )
    common(p, exact=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("properties", help="Property 1/2A/2B verdicts for one definition")
    p.add_argument("graph")
    p.add_argument("--def", dest="definition", required=True, choices=DEFINITIONS)
    common(p, exact=True)
    p.set_defaults(func=cmd_properties)

    p = sub.add_parser("paper-suite", help="re-derive every frozen registry claim")
    common(p, model=False)
    p.set_defaults(func=cmd_paper_suite)

    p = sub.add_parser("fuzz", help="randomized theorem checking")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--edge-prob", type=float, default=0.35)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--models", action="store_true", help="also draw CPTs and check model claims")
    common(p, model=False)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("select", help="covariate selection traces")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("backward", "forward", "robins"), required=True)
    p.add_argument("--set", default="", help="comma list: start set (S2 for robins)")
    p.add_argument("--base", default="", help="comma list: S1 for robins")
    p.add_argument("--oracle", choices=("graphical", "numeric"), default="graphical")
    common(p)
    p.set_defaults(func=cmd_select)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(2, exc)
    except SizeLimit as exc:
        return _fail(3, exc)
    except MissingModel as exc:
        return _fail(4, exc)
    except PositivityViolation as exc:
        return _fail(5, exc)
    except InvalidConfig as exc:
        return _fail(6, exc)
    except ConfounderError as exc:
        return _fail(2, exc)
    except OSError as exc:
        return _fail(2, exc)


def _fail(code, exc):
    sys.stderr.write(f"error: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
