"""Conjunctive queries: syntax, evaluation, containment, cores, enumeration."""

from repro.cq.containment import are_equivalent, is_contained_in
from repro.cq.core import core_of
from repro.cq.engine import (
    CacheInfo,
    EngineCounters,
    EvaluationEngine,
    default_engine,
    set_default_engine,
)
from repro.cq.enumeration import (
    count_feature_queries,
    enumerate_feature_queries,
)
from repro.cq.evaluation import (
    compile_plan,
    evaluate,
    evaluate_ghw,
    evaluate_unary,
    indicator,
    indicator_vector,
    selects,
)
from repro.cq.homomorphism import (
    HomomorphismProgram,
    SearchCounters,
    all_homomorphisms,
    find_homomorphism,
    has_homomorphism,
    homomorphic_image,
    is_homomorphism,
    pointed_has_homomorphism,
)
from repro.cq.parser import parse_cq
from repro.cq.plan import (
    PlanCounters,
    QueryPlan,
    YannakakisPlan,
)
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable

__all__ = [
    "CQ",
    "Atom",
    "Variable",
    "CacheInfo",
    "EngineCounters",
    "EvaluationEngine",
    "SearchCounters",
    "default_engine",
    "set_default_engine",
    "parse_cq",
    "HomomorphismProgram",
    "PlanCounters",
    "QueryPlan",
    "YannakakisPlan",
    "compile_plan",
    "evaluate",
    "evaluate_unary",
    "evaluate_ghw",
    "selects",
    "indicator",
    "indicator_vector",
    "find_homomorphism",
    "has_homomorphism",
    "all_homomorphisms",
    "is_homomorphism",
    "pointed_has_homomorphism",
    "homomorphic_image",
    "is_contained_in",
    "are_equivalent",
    "core_of",
    "enumerate_feature_queries",
    "count_feature_queries",
]
