"""Candidate confounder definitions on causal DAGs.

Build a Dag, optionally attach an exact discrete model, then ask the
classic questions: which adjustment sets are minimally sufficient, which
covariates count as confounders under each of six candidate definitions,
which definitions satisfy the bias-elimination/bias-reduction properties,
and what the covariate-selection procedures keep.
"""
from ._kernels import BACKEND as KERNEL_BACKEND
from .adjust import (
    AdjustmentVerdict,
    MinimalSetCatalog,
    backdoor_paths,
    is_sufficient,
    minimal_sufficient_sets,
)
from .classify import (
    ConfounderReport,
    check_implications,
    classify_d1_graphical,
    classify_d1_numeric,
    classify_d2,
    classify_d3,
    classify_d4,
    classify_d5,
    classify_d6,
    classify_variable,
    conditional_confounder,
    surrogate_confounder,
)
from .errors import ConfounderError
from .fuzz import FuzzConfig, FuzzReport, fuzz
from .graph import Dag, Graph, Path, d_separated, enumerate_paths, is_blocked
from .model import Cpt, CounterfactualJoint, DiscreteModel
from .properties import PropertyVerdict, check_property1, check_property2a, check_property2b
from .registry import RegistryEntry, registry_entries, run_paper_suite
from .selection import (
    IndependenceOracle,
    SelectionTrace,
    backward_select,
    forward_select,
    robins_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentVerdict",
    "ConfounderError",
    "ConfounderReport",
    "CounterfactualJoint",
    "Cpt",
    "Dag",
    "DiscreteModel",
    "FuzzConfig",
    "FuzzReport",
    "Graph",
    "IndependenceOracle",
    "KERNEL_BACKEND",
    "MinimalSetCatalog",
    "Path",
    "PropertyVerdict",
    "RegistryEntry",
    "SelectionTrace",
    "backdoor_paths",
    "backward_select",
    "check_implications",
    "check_property1",
    "check_property2a",
    "check_property2b",
    "classify_d1_graphical",
    "classify_d1_numeric",
    "classify_d2",
    "classify_d3",
    "classify_d4",
    "classify_d5",
    "classify_d6",
    "classify_variable",
    "conditional_confounder",
    "d_separated",
    "enumerate_paths",
    "fuzz",
    "is_blocked",
    "is_sufficient",
    "minimal_sufficient_sets",
    "registry_entries",
    "robins_reduction",
    "run_paper_suite",
    "surrogate_confounder",
]
