"""Approximate separability for bounded-atom statistics (paper, Section 7.2).

CQ[m]-ApxSep fixes the statistic to all CQ[m] features (as in Prop 4.1) and
asks whether some classifier misclassifies at most ``ε·|η(D)|`` entities.
The inner problem — minimum-error linear separation — is NP-complete [17],
which is why CQ[m]-ApxSep is NP-complete for non-fixed arity (Prop 7.2);
the exact branch-and-bound of :mod:`repro.linsep.approx` solves the small
instances here, with the greedy LP heuristic as the polynomial alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional

from repro.data.database import Database
from repro.data.labeling import Labeling, TrainingDatabase
from repro.exceptions import SeparabilityError
from repro.linsep.approx import (
    ApproxSeparation,
    min_errors_exact,
    min_errors_greedy,
)
from repro.core.separability import feature_pool
from repro.core.statistic import SeparatingPair, Statistic

__all__ = [
    "CqmApproxResult",
    "cqm_approx_separability",
    "cqm_approx_classify",
]

Element = Any


@dataclass(frozen=True)
class CqmApproxResult:
    """Outcome of CQ[m]-ApxSep with a witness pair.

    ``min_errors`` is exact when ``method="exact"`` was used, otherwise an
    upper bound.  ``pair`` realizes that error count on the training data.
    """

    separable: bool
    epsilon: float
    budget: int
    min_errors: int
    misclassified: FrozenSet[Element]
    pair: SeparatingPair

    def __bool__(self) -> bool:
        return self.separable


def cqm_approx_separability(
    training: TrainingDatabase,
    max_atoms: int,
    epsilon: float,
    max_occurrences: Optional[int] = None,
    method: str = "exact",
) -> CqmApproxResult:
    """CQ[m]-ApxSep (and CQ[m, p]-ApxSep): ε-error separability.

    With ``method="exact"`` the decision is sound and complete (exponential
    worst case); ``method="greedy"`` may report non-separable spuriously but
    never claims separability falsely.
    """
    if not 0 <= epsilon < 1:
        raise SeparabilityError("epsilon must lie in [0, 1)")
    pool = feature_pool(training, max_atoms, max_occurrences)
    statistic = Statistic(pool)
    vectors, labels, entities = statistic.training_collection(
        training, parents=pool.parents
    )
    if method == "exact":
        solution: ApproxSeparation = min_errors_exact(vectors, labels)
    elif method == "greedy":
        solution = min_errors_greedy(vectors, labels)
    else:
        raise SeparabilityError(f"unknown method {method!r}")
    budget = int(epsilon * len(entities))
    misclassified = frozenset(
        entities[index] for index in solution.misclassified
    )
    pair = SeparatingPair(statistic, solution.classifier)
    return CqmApproxResult(
        solution.errors <= budget,
        epsilon,
        budget,
        solution.errors,
        misclassified,
        pair,
    )


def cqm_approx_classify(
    training: TrainingDatabase,
    evaluation: Database,
    max_atoms: int,
    epsilon: float,
    max_occurrences: Optional[int] = None,
    method: str = "exact",
) -> Labeling:
    """CQ[m]-ApxCls: classify an evaluation database under ε training noise.

    The returned labeling is produced by a pair that separates the
    evaluation labeling exactly (by construction) and the training database
    with at most ``ε·|η(D)|`` errors.
    """
    result = cqm_approx_separability(
        training, max_atoms, epsilon, max_occurrences, method
    )
    if not result.separable:
        raise SeparabilityError(
            f"training database is not CQ[{max_atoms}]-separable with "
            f"error {epsilon}: best found {result.min_errors} errors for "
            f"budget {result.budget}"
        )
    return result.pair.classify(evaluation)
