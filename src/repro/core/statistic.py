"""Statistics: sequences of feature queries (paper, Section 3).

A statistic ``Π = (q1, ..., qn)`` maps every entity ``e`` of a database to
the ±1 vector ``Π^D(e) = (1_{q1(D)}(e), ..., 1_{qn(D)}(e))``.  Together with
a linear classifier it forms a *separating pair*.

Vector materialization goes through the
:class:`~repro.cq.engine.EvaluationEngine` batch entry points, so repeated
classification against the same database reuses cached query answers.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cq.engine import EvaluationEngine, default_engine
from repro.cq.query import CQ
from repro.data.database import Database
from repro.data.labeling import Labeling, TrainingDatabase
from repro.exceptions import QueryError, SeparabilityError
from repro.linsep.classifier import LinearClassifier

__all__ = ["Statistic", "SeparatingPair"]

Element = Any


class Statistic:
    """An immutable sequence of unary feature queries."""

    __slots__ = ("_queries",)

    def __init__(self, queries: Iterable[CQ]) -> None:
        query_tuple = tuple(queries)
        for query in query_tuple:
            if not query.is_unary:
                raise QueryError(
                    f"statistics consist of unary feature queries, got {query}"
                )
        self._queries = query_tuple

    @property
    def queries(self) -> Tuple[CQ, ...]:
        return self._queries

    @property
    def dimension(self) -> int:
        """The number of feature queries (the regularized quantity of §6)."""
        return len(self._queries)

    def max_atoms(self) -> int:
        """The largest body size among the feature queries."""
        return max(
            (query.atom_count() for query in self._queries), default=0
        )

    def __iter__(self) -> Iterator[CQ]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __getitem__(self, index: int) -> CQ:
        return self._queries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statistic):
            return NotImplemented
        return self._queries == other._queries

    def __hash__(self) -> int:
        return hash(self._queries)

    def __repr__(self) -> str:
        return f"Statistic(dimension={self.dimension})"

    # ------------------------------------------------------------------

    def vector(
        self,
        database: Database,
        entity: Element,
        engine: Optional[EvaluationEngine] = None,
    ) -> Tuple[int, ...]:
        """``Π^D(e)`` for a single entity (memoized pointed checks)."""
        return (engine or default_engine()).indicator_vector(
            self._queries, database, entity
        )

    def vectors(
        self,
        database: Database,
        entities: Optional[Sequence[Element]] = None,
        engine: Optional[EvaluationEngine] = None,
        parents: Optional[Sequence[Optional[int]]] = None,
    ) -> Dict[Element, Tuple[int, ...]]:
        """``Π^D`` over all (or the given) entities, evaluated batch-wise.

        Each feature query is evaluated once over the database (and the
        engine memoizes the answer), so the cost is ``dimension`` query
        evaluations rather than ``dimension × n`` pointed checks.
        ``parents`` bounds each query's search by an earlier query's
        answers (see
        :meth:`~repro.cq.engine.EvaluationEngine.evaluate_unary_batch`).
        """
        return (engine or default_engine()).evaluate_statistic(
            self._queries, database, entities, parents=parents
        )

    def training_collection(
        self,
        training: TrainingDatabase,
        engine: Optional[EvaluationEngine] = None,
        parents: Optional[Sequence[Optional[int]]] = None,
    ) -> Tuple[List[Tuple[int, ...]], List[int], List[Element]]:
        """``(Π^D(e), λ(e))`` rows in a deterministic entity order.

        ``parents`` belong to this fill, not to the statistic: the CQ[m]
        fits pass the ones their enumeration recorded.
        """
        entities = sorted(training.entities, key=repr)
        vector_map = self.vectors(
            training.database, entities, engine=engine, parents=parents
        )
        vectors = [vector_map[entity] for entity in entities]
        labels = [training.label(entity) for entity in entities]
        return vectors, labels, entities


class SeparatingPair:
    """A statistic together with a linear classifier, ``(Π, Λ_w̄)``."""

    __slots__ = ("_statistic", "_classifier")

    def __init__(
        self, statistic: Statistic, classifier: LinearClassifier
    ) -> None:
        if classifier.arity != statistic.dimension:
            raise SeparabilityError(
                f"classifier arity {classifier.arity} does not match "
                f"statistic dimension {statistic.dimension}"
            )
        self._statistic = statistic
        self._classifier = classifier

    @property
    def statistic(self) -> Statistic:
        return self._statistic

    @property
    def classifier(self) -> LinearClassifier:
        return self._classifier

    def support(self) -> "SeparatingPair":
        """The pair restricted to the features with a nonzero weight.

        It labels every database exactly as the whole pair does.
        ``LinearClassifier.score`` sums ``w*b`` in feature order, and a
        zero weight adds only ±0.0, so every partial sum and every
        ``score >= threshold`` decision is unchanged.  A constant
        classifier has an empty support and still labels every entity.
        """
        weights = self._classifier.weights
        kept = [index for index, weight in enumerate(weights) if weight != 0]
        return SeparatingPair(
            Statistic(self._statistic[index] for index in kept),
            LinearClassifier(
                tuple(weights[index] for index in kept),
                self._classifier.threshold,
            ),
        )

    def predict(
        self,
        database: Database,
        entity: Element,
        engine: Optional[EvaluationEngine] = None,
    ) -> int:
        """``Λ_w̄(Π^D(e))``."""
        return self._classifier.predict(
            self._statistic.vector(database, entity, engine=engine)
        )

    def classify(
        self,
        database: Database,
        engine: Optional[EvaluationEngine] = None,
    ) -> Labeling:
        """The labeling of all entities of an evaluation database."""
        vector_map = self._statistic.vectors(database, engine=engine)
        return Labeling(
            {
                entity: self._classifier.predict(vector)
                for entity, vector in vector_map.items()
            }
        )

    def errors(
        self,
        training: TrainingDatabase,
        engine: Optional[EvaluationEngine] = None,
    ) -> int:
        """Number of training entities classified against their label."""
        vectors, labels, _ = self._statistic.training_collection(
            training, engine=engine
        )
        return self._classifier.errors(vectors, labels)

    def separates(
        self,
        training: TrainingDatabase,
        engine: Optional[EvaluationEngine] = None,
    ) -> bool:
        """Whether the pair classifies every training entity correctly."""
        return self.errors(training, engine=engine) == 0

    def __repr__(self) -> str:
        return (
            f"SeparatingPair(dimension={self._statistic.dimension}, "
            f"classifier={self._classifier!r})"
        )
