"""Separability with a bounded number of feature atoms (paper, Section 4).

Prop 4.1: a training database is CQ[m]-separable iff it is separated by the
statistic of *all* feature queries in CQ[m] mentioning relations of the
database; separability then reduces to exact linear separability of the
induced ±1 vectors, which is a polynomial-size LP.  The same construction is
constructive — it yields a separating pair — and restricting variable
occurrences gives the PTIME class CQ[m, p] of Prop 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cq.engine import EvaluationEngine
from repro.cq.enumeration import FeaturePool, enumerate_feature_queries
from repro.data.labeling import TrainingDatabase
from repro.data.schema import EntitySchema, RelationSymbol
from repro.exceptions import SeparabilityError
from repro.linsep.lp import find_separator
from repro.core.statistic import SeparatingPair, Statistic

__all__ = [
    "SeparabilityResult",
    "feature_pool",
    "cqm_separability",
]

Element = Any


@dataclass(frozen=True)
class SeparabilityResult:
    """Outcome of a (constructive) separability check.

    ``separating_pair`` is ``None`` exactly when ``separable`` is False.
    ``vectors`` maps each entity to its feature vector under the full
    statistic used by the check (useful for diagnostics and benchmarks).
    """

    separable: bool
    separating_pair: Optional[SeparatingPair]
    statistic: Statistic
    vectors: Dict[Element, Tuple[int, ...]]

    def __bool__(self) -> bool:
        return self.separable


def feature_pool(
    training: TrainingDatabase,
    max_atoms: int,
    max_occurrences: Optional[int] = None,
    dedupe: str = "equivalence",
) -> FeaturePool:
    """The full CQ[m] (or CQ[m, p]) statistic over the database's relations.

    Following the proof of Prop 4.1, only relation symbols that actually
    appear in the database are used (others cannot affect entity vectors:
    a feature with an atom over an absent relation selects nothing).  The
    returned :class:`~repro.cq.enumeration.FeaturePool` carries each
    query's parent.
    """
    database = training.database
    entity_symbol = database.entity_symbol
    symbols = [
        RelationSymbol(name, database.schema.arity_of(name))
        for name in database.relation_names
    ]
    schema = EntitySchema(symbols, entity_symbol=entity_symbol)
    return enumerate_feature_queries(
        schema,
        max_atoms,
        max_occurrences=max_occurrences,
        entity_symbol=entity_symbol,
        dedupe=dedupe,
    )


def cqm_separability(
    training: TrainingDatabase,
    max_atoms: int,
    max_occurrences: Optional[int] = None,
    dedupe: str = "equivalence",
    engine: Optional[EvaluationEngine] = None,
) -> SeparabilityResult:
    """CQ[m]-SEP (and CQ[m, p]-SEP) with feature generation (Prop 4.1/4.3).

    Enumerates the finite statistic of all feature queries, evaluates it
    over the training database through the (given or default) evaluation
    engine, and decides exact linear separability by LP; on success the
    returned pair contains an integral classifier verified to separate the
    training database.

    The fill follows the refinement order the enumeration walked: each
    feature is evaluated only on the entities its parent in the pool
    selects (see :mod:`repro.cq.enumeration`).  The parents go to this
    fill only; the returned statistic and pair do not carry them.
    """
    if max_atoms < 0:
        raise SeparabilityError("max_atoms must be nonnegative")
    pool = feature_pool(training, max_atoms, max_occurrences, dedupe)
    statistic = Statistic(pool)
    vectors, labels, entities = statistic.training_collection(
        training, engine=engine, parents=pool.parents
    )
    classifier = find_separator(vectors, labels)
    vector_map = dict(zip(entities, vectors))
    if classifier is None:
        return SeparabilityResult(False, None, statistic, vector_map)
    pair = SeparatingPair(statistic, classifier)
    return SeparabilityResult(True, pair, statistic, vector_map)
