"""Sparse (L1-minimal) separating classifiers.

Section 6 motivates the dimension bound as the count of nonzero classifier
coefficients [11, 26].  The classic convex surrogate is L1 minimization:

    minimize  Σ|w_i|   subject to   w·x_e − w0 ≥ +1   (positives)
                                    w·x_e − w0 ≤ −1   (negatives)

solved as an LP with the usual ``w = u − v`` split.  The optimum is a
separating classifier whose support (nonzero weights) is typically far
smaller than the full pool, giving a polynomial-time upper bound for the
NP-hard minimum dimension that :mod:`repro.core.minimize` can then refine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from scipy.optimize import linprog

from repro.exceptions import SolverError
from repro.linsep.classifier import LinearClassifier
from repro.linsep.lp import _validate, is_linearly_separable

__all__ = ["find_sparse_separator", "support_size"]

_ZERO_TOLERANCE = 1e-7


def find_sparse_separator(
    vectors: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> Optional[LinearClassifier]:
    """An L1-minimal separating classifier, or ``None`` if not separable.

    The returned classifier is verified to separate the collection exactly
    (tiny weights below the numerical tolerance are snapped to zero first;
    if snapping breaks separation, the unsnapped optimum is returned).
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

    arity = len(vectors[0])
    # Variables: u_1..u_n, v_1..v_n (w = u - v), w0; minimize Σu + Σv.
    n_vars = 2 * arity + 1
    c = [1.0] * (2 * arity) + [0.0]
    a_ub: List[List[float]] = []
    b_ub: List[float] = []
    for vector, label in zip(vectors, labels):
        row = [0.0] * n_vars
        for j, b in enumerate(vector):
            row[j] = -float(b) * label
            row[arity + j] = float(b) * label
        row[2 * arity] = float(label)
        a_ub.append(row)
        b_ub.append(-1.0)
    bounds = [(0.0, None)] * (2 * arity) + [(None, None)]
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
    )
    if not result.success:  # pragma: no cover - separability was checked
        raise SolverError(f"sparse LP failed: {result.message}")

    weights = tuple(
        float(result.x[j] - result.x[arity + j]) for j in range(arity)
    )
    threshold = float(result.x[2 * arity])
    snapped = LinearClassifier(
        tuple(0.0 if abs(w) < _ZERO_TOLERANCE else w for w in weights),
        threshold,
    )
    if snapped.separates(vectors, labels):
        return snapped
    raw = LinearClassifier(weights, threshold)
    if raw.separates(vectors, labels):  # pragma: no cover - rare numerics
        return raw
    raise SolverError(
        "sparse LP optimum failed exact verification"
    )  # pragma: no cover


def support_size(classifier: LinearClassifier) -> int:
    """Number of nonzero weights (the §6 regularization quantity)."""
    return sum(1 for w in classifier.weights if w != 0)
