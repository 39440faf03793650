"""Exact linear separability via linear programming (paper, Prop 4.1).

Deciding whether a training collection ``(b̄_i, y_i)`` is linearly separable
reduces to LP feasibility [19, 21]: maximize a margin δ subject to::

    w · b̄_i − w0 ≥ 0     for positives (the rule is ≥, boundary included)
    w · b̄_i − w0 ≤ −δ    for negatives
    −1 ≤ w_j, w0 ≤ 1,  0 ≤ δ ≤ 1

The collection is separable iff the optimum δ* is strictly positive (any
separator rescales into the box with δ > 0; δ = 0 is always feasible).

For a *certified* separator, :func:`find_separator` re-derives integral
weights with the perceptron (exact integer arithmetic) after the LP decides
separability; the LP solution seeds nothing — Novikoff's bound applies
because separability was just established.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from scipy.optimize import linprog

from repro.exceptions import SeparabilityError, SolverError
from repro.linsep.classifier import LinearClassifier
from repro.linsep.perceptron import train_perceptron

__all__ = [
    "separation_margin",
    "is_linearly_separable",
    "find_separator",
]

_MARGIN_TOLERANCE = 1e-7


def _validate(
    vectors: Sequence[Sequence[int]], labels: Sequence[int]
) -> None:
    if len(vectors) != len(labels):
        raise SeparabilityError("vectors and labels differ in length")
    if vectors:
        arity = len(vectors[0])
        if any(len(vector) != arity for vector in vectors):
            raise SeparabilityError("vectors must all have the same length")
    if any(label not in (1, -1) for label in labels):
        raise SeparabilityError("labels must be +1 or -1")


def _margin_program(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> Tuple[
    List[float], List[List[float]], List[float], List[Tuple[float, float]]
]:
    """The margin LP as ``(c, A_ub, b_ub, bounds)``: maximize ``c · x``.

    This is the form :func:`~repro.linsep.simplex.solve_lp` takes; the
    optimum is δ*.
    """
    arity = len(vectors[0])
    # Variables: w1..wn, w0, delta.
    a_ub: List[List[float]] = []
    b_ub: List[float] = []
    for vector, label in zip(vectors, labels):
        if label == 1:
            # -(w·b) + w0 ≤ 0
            row = [-float(b) for b in vector] + [1.0, 0.0]
        else:
            # w·b - w0 + δ ≤ 0
            row = [float(b) for b in vector] + [-1.0, 1.0]
        a_ub.append(row)
        b_ub.append(0.0)
    bounds = [(-1.0, 1.0)] * (arity + 1) + [(0.0, 1.0)]
    c_max = [0.0] * (arity + 1) + [1.0]
    return c_max, a_ub, b_ub, bounds


def _margin_lp(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> float:
    """Solve the margin LP with HiGHS; returns δ*."""
    c_max, a_ub, b_ub, bounds = _margin_program(vectors, labels)
    result = linprog(
        [-ci for ci in c_max],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP solver failed: {result.message}")
    return float(-result.fun)


def separation_margin(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> float:
    """The optimal margin δ* of the separability LP (0 iff not separable)."""
    _validate(vectors, labels)
    if all(label == 1 for label in labels) or all(
        label == -1 for label in labels
    ):
        return 1.0
    return _margin_lp(vectors, labels)


def is_linearly_separable(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> bool:
    """Whether some ``Λ_w̄`` classifies every example correctly."""
    return separation_margin(vectors, labels) > _MARGIN_TOLERANCE


def find_separator(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> Optional[LinearClassifier]:
    """An exact separating classifier, or ``None`` if none exists.

    The returned classifier has integral weights and verifies exactly
    (``classifier.separates(vectors, labels)`` is re-checked before return).
    """
    _validate(vectors, labels)
    if not vectors:
        return LinearClassifier((), 0.0)
    if all(label == 1 for label in labels):
        return LinearClassifier.constant(len(vectors[0]), 1)
    if all(label == -1 for label in labels):
        return LinearClassifier.constant(len(vectors[0]), -1)
    if not is_linearly_separable(vectors, labels):
        return None
    classifier = train_perceptron(vectors, labels)
    if classifier is None:  # pragma: no cover - LP certified separability
        raise SolverError(
            "perceptron failed to converge on LP-certified separable data"
        )
    return classifier
