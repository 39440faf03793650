"""Minimum-error linear separation (paper, Section 7).

Approximate separability asks for a classifier misclassifying at most
``ε·n`` examples.  The underlying optimization — minimize the number of
misclassified ±1 vectors — is NP-complete (Höffgen, Simon & Van Horn [17]),
so this module provides:

- an *exact* branch-and-bound solver over identical-vector groups
  (:func:`min_errors_exact`), suitable for the small instances of the test
  suite and benchmarks, with admissible conflict lower bounds and
  separability-monotonicity pruning; and
- a *greedy* LP-guided heuristic (:func:`min_errors_greedy`) that repeatedly
  drops the example with the largest soft-margin violation, giving an upper
  bound in polynomial time.

Both report an :class:`ApproxSeparation` carrying the achieved error count,
the misclassified example indexes, and an exact classifier realizing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from scipy.optimize import linprog

from repro.exceptions import SeparabilityError, SolverError
from repro.linsep.classifier import LinearClassifier
from repro.linsep.lp import _validate, find_separator, is_linearly_separable

__all__ = [
    "ApproxSeparation",
    "min_errors_exact",
    "min_errors_greedy",
    "separable_with_budget",
]


@dataclass(frozen=True)
class ApproxSeparation:
    """A classifier together with the examples it misclassifies."""

    errors: int
    misclassified: FrozenSet[int]
    classifier: LinearClassifier

    def error_rate(self, total: int) -> float:
        return self.errors / total if total else 0.0


def _group_examples(
    vectors: Sequence[Sequence[int]], labels: Sequence[int]
) -> Dict[Tuple[int, ...], Dict[int, List[int]]]:
    """Group example indexes by identical vector, split by label."""
    groups: Dict[Tuple[int, ...], Dict[int, List[int]]] = {}
    for index, (vector, label) in enumerate(zip(vectors, labels)):
        groups.setdefault(tuple(vector), {1: [], -1: []})[label].append(index)
    return groups


def min_errors_exact(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
    max_groups: int = 22,
) -> ApproxSeparation:
    """The exact minimum number of misclassified examples, with witness.

    Branch and bound over per-group predictions: a linear classifier is
    constant on identical vectors, so the search assigns each distinct
    vector a predicted label, pruning branches whose partial assignment is
    already non-separable (adding groups only adds constraints) or whose
    cost lower bound meets the incumbent.

    Raises :class:`~repro.exceptions.SolverError` when there are more than
    ``max_groups`` distinct vectors (the search is exponential by nature —
    the problem is NP-complete).
    """
    _validate(vectors, labels)
    if not vectors:
        return ApproxSeparation(0, frozenset(), LinearClassifier((), 0.0))

    groups = _group_examples(vectors, labels)
    if len(groups) > max_groups:
        raise SolverError(
            f"exact search over {len(groups)} distinct vectors exceeds "
            f"max_groups={max_groups}; use min_errors_greedy"
        )
    # Deterministic order; largest label-imbalance first so good solutions
    # are found early.
    ordered = sorted(
        groups.items(),
        key=lambda item: -abs(len(item[1][1]) - len(item[1][-1])),
    )
    group_vectors = [vector for vector, _ in ordered]
    cost_of = [
        {1: len(members[-1]), -1: len(members[1])}
        for _, members in ordered
    ]
    remaining_floor = [0] * (len(ordered) + 1)
    for index in range(len(ordered) - 1, -1, -1):
        remaining_floor[index] = remaining_floor[index + 1] + min(
            cost_of[index][1], cost_of[index][-1]
        )

    # Incumbent from the greedy heuristic (always feasible).
    greedy = min_errors_greedy(vectors, labels)
    best_cost = greedy.errors
    best_assignment: Optional[List[int]] = None

    assignment: List[int] = []

    def search(index: int, cost: int) -> None:
        nonlocal best_cost, best_assignment
        if cost + remaining_floor[index] >= best_cost:
            return
        if index == len(ordered):
            best_cost = cost
            best_assignment = list(assignment)
            return
        options = sorted(
            (1, -1), key=lambda side: cost_of[index][side]
        )
        for side in options:
            assignment.append(side)
            prefix_vectors = group_vectors[: index + 1]
            if is_linearly_separable(prefix_vectors, assignment):
                search(index + 1, cost + cost_of[index][side])
            assignment.pop()

    search(0, 0)

    if best_assignment is None:
        return greedy

    classifier = find_separator(group_vectors, best_assignment)
    if classifier is None:  # pragma: no cover - assignment was LP-verified
        raise SolverError("verified assignment lost separability")
    misclassified = []
    for (vector, members), side in zip(ordered, best_assignment):
        misclassified.extend(members[-side])
    return ApproxSeparation(
        best_cost, frozenset(misclassified), classifier
    )


def _soft_margin_violations(
    vectors: Sequence[Sequence[int]], labels: Sequence[int]
) -> List[float]:
    """Per-example slack of the minimum-total-slack soft-margin LP."""
    arity = len(vectors[0])
    n = len(vectors)
    # Variables: w1..wn, w0, xi_1..xi_n; minimize sum xi.
    n_vars = arity + 1 + n
    a_ub: List[List[float]] = []
    b_ub: List[float] = []
    for i, (vector, label) in enumerate(zip(vectors, labels)):
        row = [0.0] * n_vars
        if label == 1:
            # w·b - w0 + xi ≥ 1   →   -(w·b) + w0 - xi ≤ -1
            for j, b in enumerate(vector):
                row[j] = -float(b)
            row[arity] = 1.0
        else:
            # w·b - w0 - xi ≤ -1
            for j, b in enumerate(vector):
                row[j] = float(b)
            row[arity] = -1.0
        row[arity + 1 + i] = -1.0
        a_ub.append(row)
        b_ub.append(-1.0)
    bounds = [(-n - 1.0, n + 1.0)] * (arity + 1) + [(0.0, None)] * n
    c = [0.0] * (arity + 1) + [1.0] * n
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
    )
    if not result.success:  # pragma: no cover - LP is always feasible
        raise SolverError(f"soft-margin LP failed: {result.message}")
    return [float(result.x[arity + 1 + i]) for i in range(n)]


def min_errors_greedy(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> ApproxSeparation:
    """A feasible (not necessarily optimal) small-error separation.

    Repeatedly solves the soft-margin LP and discards the example with the
    largest slack until the remainder is exactly separable; discarded
    examples are the misclassified set.  Polynomial time; an upper bound for
    :func:`min_errors_exact`.
    """
    _validate(vectors, labels)
    active = list(range(len(vectors)))
    dropped: List[int] = []
    while True:
        active_vectors = [vectors[i] for i in active]
        active_labels = [labels[i] for i in active]
        classifier = find_separator(active_vectors, active_labels)
        if classifier is not None:
            # Dropped examples may or may not be misclassified by the final
            # classifier; report its true error set.
            misclassified = frozenset(
                i
                for i in range(len(vectors))
                if classifier.predict(vectors[i]) != labels[i]
            )
            return ApproxSeparation(
                len(misclassified), misclassified, classifier
            )
        violations = _soft_margin_violations(active_vectors, active_labels)
        worst = max(range(len(active)), key=lambda i: violations[i])
        dropped.append(active.pop(worst))


def separable_with_budget(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
    budget: int,
    method: str = "exact",
) -> Optional[ApproxSeparation]:
    """A separation with at most ``budget`` errors, or ``None``.

    With ``method="greedy"`` a ``None`` answer is *not* a proof that no such
    separation exists; with ``method="exact"`` it is.
    """
    if method == "exact":
        result = min_errors_exact(vectors, labels)
    elif method == "greedy":
        result = min_errors_greedy(vectors, labels)
    else:
        raise SeparabilityError(f"unknown method {method!r}")
    return result if result.errors <= budget else None
