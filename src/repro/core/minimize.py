"""Statistic minimization: shrink a separating statistic's dimension.

Section 6 motivates bounding the dimension as classic regularization (the
number of nonzero coefficients [11, 26]).  Given a separating pair produced
by, e.g., Prop 4.1's all-features construction, these routines find smaller
statistics over the same feature pool:

- :func:`prune_zero_weights` — drop features the classifier ignores (free);
- :func:`greedy_minimize` — backward elimination: drop any feature whose
  removal keeps the remainder separable (polynomially many LP calls; result
  is inclusion-minimal, not necessarily minimum);
- :func:`exact_minimize` — smallest separating subset by exhaustive subset
  search over the *distinct dichotomies* (exponential; NP-hard by
  Prop 6.9's vertex-cover argument, so the exponent is honest).
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from repro.data.labeling import TrainingDatabase
from repro.exceptions import NotSeparableError, SolverError
from repro.linsep.lp import find_separator, is_linearly_separable
from repro.core.statistic import SeparatingPair, Statistic

__all__ = [
    "prune_zero_weights",
    "sparse_minimize",
    "greedy_minimize",
    "exact_minimize",
]


def _rebuild(
    training: TrainingDatabase,
    statistic: Statistic,
    keep: Sequence[int],
) -> Optional[SeparatingPair]:
    """A verified separating pair over the kept feature indexes, or None."""
    reduced = Statistic([statistic[i] for i in keep])
    vectors, labels, _ = reduced.training_collection(training)
    classifier = find_separator(vectors, labels)
    if classifier is None:
        return None
    return SeparatingPair(reduced, classifier)


def prune_zero_weights(
    training: TrainingDatabase, pair: SeparatingPair
) -> SeparatingPair:
    """Drop features with weight 0 (:meth:`SeparatingPair.support`).

    The restriction labels every database as the pair does, so it needs
    no refit; ``training`` is taken for the minimizers' common signature.
    """
    return pair.support()


def sparse_minimize(
    training: TrainingDatabase, pair: SeparatingPair
) -> SeparatingPair:
    """Restrict the statistic to the support of an L1-minimal classifier.

    A polynomial-time (convex-surrogate) shrinking step: solve the lasso-
    style LP over the pair's feature pool and keep only features with
    nonzero optimal weight.  Typically much smaller than the full pool and
    a strong starting point for :func:`greedy_minimize` /
    :func:`exact_minimize`.
    """
    from repro.linsep.sparse import find_sparse_separator

    if not pair.separates(training):
        raise NotSeparableError("the input pair does not separate training")
    vectors, labels, _ = pair.statistic.training_collection(training)
    sparse = find_sparse_separator(vectors, labels)
    if sparse is None:  # pragma: no cover - the pair separates
        raise SolverError("sparse LP lost separability")
    keep = [
        index
        for index, weight in enumerate(sparse.weights)
        if weight != 0
    ]
    if not keep:
        keep = [0]
    rebuilt = _rebuild(training, pair.statistic, keep)
    if rebuilt is None:  # pragma: no cover - support must separate
        raise SolverError("sparse support lost separability")
    return rebuilt


def greedy_minimize(
    training: TrainingDatabase, pair: SeparatingPair
) -> SeparatingPair:
    """Backward elimination to an inclusion-minimal separating statistic.

    Repeatedly tries to drop one feature; each attempt is one exact LP.
    The result separates ``training`` and no single feature can be removed
    from it — a local optimum of the dimension objective.
    """
    if not pair.separates(training):
        raise NotSeparableError("the input pair does not separate training")
    current = prune_zero_weights(training, pair)
    keep: List[int] = list(range(current.statistic.dimension))
    statistic = current.statistic
    vectors_cache, labels, _ = statistic.training_collection(training)

    changed = True
    while changed and len(keep) > 1:
        changed = False
        for position in range(len(keep)):
            candidate = keep[:position] + keep[position + 1:]
            projected = [
                tuple(vector[i] for i in candidate)
                for vector in vectors_cache
            ]
            if is_linearly_separable(projected, labels):
                keep = candidate
                changed = True
                break
    rebuilt = _rebuild(training, statistic, keep)
    assert rebuilt is not None
    return rebuilt


def exact_minimize(
    training: TrainingDatabase,
    pair: SeparatingPair,
    max_dimension: Optional[int] = None,
) -> SeparatingPair:
    """The minimum-dimension separating sub-statistic of the pair's pool.

    Deduplicates features by their entity dichotomy first (identical
    columns are interchangeable), then searches subsets by increasing size.
    Exponential in the optimum; bound the search with ``max_dimension``.
    """
    if not pair.separates(training):
        raise NotSeparableError("the input pair does not separate training")
    statistic = pair.statistic
    vectors, labels, _entities = statistic.training_collection(training)
    if all(label == labels[0] for label in labels):
        reduced = _rebuild(training, statistic, [0])
        assert reduced is not None
        return reduced

    # One representative feature index per distinct column.
    column_of = {}
    for index in range(statistic.dimension):
        column = tuple(vector[index] for vector in vectors)
        column_of.setdefault(column, index)
    representatives = sorted(column_of.values())

    ceiling = (
        len(representatives)
        if max_dimension is None
        else min(max_dimension, len(representatives))
    )
    for size in range(1, ceiling + 1):
        for chosen in combinations(representatives, size):
            projected = [
                tuple(vector[i] for i in chosen) for vector in vectors
            ]
            if is_linearly_separable(projected, labels):
                rebuilt = _rebuild(training, statistic, chosen)
                assert rebuilt is not None
                return rebuilt
    raise NotSeparableError(
        f"no separating subset of dimension <= {ceiling} exists"
    )
