"""The two desiderata a confounder definition might satisfy.

Property 1 (collective sufficiency): adjusting for the set of ALL
covariates the definition marks positive removes confounding. Checked
graphically via sufficiency of that set, and, when a model is supplied,
also via counterfactual independence under both exposure arms.

Property 2 (individual relevance), two readings for a single positive C:
  2A  some context X exists where (X, C) is sufficient but X alone is not.
  2B  some context X exists where adding C strictly shrinks |bias|.

Only D4 satisfies Property 1 and 2A on every input; each of the other
definitions fails at least one of these somewhere, and the registry holds
a concrete counterexample for every such failure.

The public checks verify a known definition id and, for Property 2, that C
is positive. `_property2a` and `_property2b` are their unchecked bodies, for
a caller that holds the positive set already (the P1 witness's "set").
"""
from __future__ import annotations

from dataclasses import dataclass

from .adjust import _open_backdoor_witness, _sufficiency_vector, _sufficient
from .classify import _TABLE, _definitions, _require_covariate, classify_d5
from .errors import InvalidConfig
from .graph import _lane_pattern, _lane_sets


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property check. witness always carries enough to
    re-check the verdict by hand: the tested set plus what opened it, or
    the context that proves the existential."""

    property: str
    definition: str
    holds: bool
    witness: dict


def positive_covariates(dag, def_id, model=None):
    """All pool members the given definition marks positive. D5/D6 need a
    model; D1 is read graphically here."""
    _definitions((def_id,), model is not None)
    if model is not None:
        dag = model.dag
    holds = _TABLE[def_id].holds
    return tuple(c for c in dag.covariate_pool if holds(dag, model, c))


def check_property1(dag, model, def_id):
    """Does adjusting for all def_id-positive covariates suffice?

    Graph check: the positive set is sufficient. Model check (when one is
    given): additionally the counterfactual outcome under each arm is
    independent of exposure given that set. The witness's "set" is that
    set, as `positive_covariates` lists it, whatever the verdict.
    """
    if model is not None:
        dag = model.dag
    positives = positive_covariates(dag, def_id, model=model)
    witness = {"set": positives}
    if not _sufficient(dag, positives):
        witness["open_backdoor"] = str(_open_backdoor_witness(dag, positives))
        return PropertyVerdict("P1", def_id, False, witness)
    if model is not None and not model.cf_unconfounded(positives):
        witness["cf_dependent"] = True
        return PropertyVerdict("P1", def_id, False, witness)
    return PropertyVerdict("P1", def_id, True, witness)


def _check_positive(dag, def_id, variable, model=None):
    """Check the definition id, then that C is positive, unless the
    definition needs a model and none is given: the caller vouches then."""
    definition = _TABLE[_definitions((def_id,))[0]]
    if definition.on_model and model is None:
        return
    if model is not None:
        dag = model.dag
    if variable not in dag.covariate_pool or not definition.holds(dag, model, variable):
        raise InvalidConfig(
            f"{variable!r} is not {def_id}-positive; property 2 applies to positives only"
        )


def _distinguishing_lanes(dag, i):
    """The contexts that distinguish pool member i, as lanes: with S the
    pool's sufficiency vector and P_i its lanes with bit i set, the lanes
    l of (S >> 2**i) & ~S & ~P_i, where l + 2**i is sufficient and l is not."""
    sufficient = _sufficiency_vector(dag)
    return (sufficient >> (1 << i)) & ~sufficient & ~_lane_pattern(len(dag.covariate_pool), i)


def distinguishing_context(dag, variable):
    """First context X (canonical order) where (X, C) is sufficient but X
    alone is not; None when no context distinguishes C."""
    _require_covariate(dag, variable)  # `_sufficiency_vector` caps the pool
    pool = dag.covariate_pool
    return next(_lane_sets(_distinguishing_lanes(dag, pool.index(variable)), pool), None)


def check_property2a(dag, def_id, variable):
    """Is there a context X where (X, C) is sufficient but X is not?

    Precondition: C is def_id-positive. That is verified here for the
    graph definitions; for D5/D6 (model definitions) the caller vouches,
    since this check takes no model.
    """
    _check_positive(dag, def_id, variable)
    return _property2a(dag, def_id, variable)


def _property2a(dag, def_id, variable):
    context = distinguishing_context(dag, variable)
    if context is not None:
        witness = {
            "context": context,
            "open_without": str(_open_backdoor_witness(dag, context)),
        }
        return PropertyVerdict("P2A", def_id, True, witness)
    witness = {"variable": variable, "note": f"no context distinguishes {variable}"}
    return PropertyVerdict("P2A", def_id, False, witness)


def check_property2b(model, def_id, variable):
    """Is there a context X where adding C strictly shrinks |bias|?

    Precondition: C is def_id-positive (verified; D1 read graphically).
    """
    _check_positive(model.dag, def_id, variable, model=model)
    return _property2b(model, def_id, variable)


def _property2b(model, def_id, variable):
    hit, witness = classify_d5(model, variable)
    if hit:
        context, (with_c, without) = witness
        payload = {
            "context": context,
            "abs_bias_with": str(with_c),
            "abs_bias_without": str(without),
        }
        return PropertyVerdict("P2B", def_id, True, payload)
    return PropertyVerdict("P2B", def_id, False, {"variable": variable, "note": "no context shrinks |bias|"})
