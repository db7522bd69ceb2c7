"""Cardinality estimation for property-graph query patterns.

Three loosely coupled phases: techniques produce partial estimates for
constraint subsets of a query, extension rules derive further estimates,
and a combiner folds the complete set into one selectivity.  An exact
matcher is the ground-truth oracle for the benchmark harness: it counts
acyclic patterns bottom-up and backtracks over the matches of the rest.
"""

from .engine import EstimateReport, EstimatorConfig, estimate, estimate_with_disjunctions
from .graph import PropertyGraph, exact_matches, exact_selectivity, load_graph, save_graph
from .query import (
    Constraint,
    PartialEstimate,
    PredicateKind,
    QueryPattern,
    extract_constraints,
    parse_query,
)
from .stats import StatisticsCatalog, build_catalog, load_catalog, save_catalog

__all__ = [
    "Constraint",
    "EstimateReport",
    "EstimatorConfig",
    "PartialEstimate",
    "PredicateKind",
    "PropertyGraph",
    "QueryPattern",
    "StatisticsCatalog",
    "build_catalog",
    "estimate",
    "estimate_with_disjunctions",
    "exact_matches",
    "exact_selectivity",
    "extract_constraints",
    "load_catalog",
    "load_graph",
    "parse_query",
    "save_catalog",
    "save_graph",
]

__version__ = "0.1.0"
