"""Evaluation of conjunctive queries over databases (paper, Section 2).

``q(D)`` is the set of tuples ``ā`` with ``(D_q, x̄) → (D, ā)``.  For unary
queries the result is exposed as a set of elements, and the *indicator
function* ``1_{q(D)} : η(D) → {1, -1}`` of the paper is provided directly.

These module-level functions are thin compatible wrappers over the
process-wide :class:`~repro.cq.engine.EvaluationEngine`, which attaches a
lazily-built index to each database and memoizes query answers and
pointed homomorphism checks; pass ``engine=`` to use a private engine
(e.g. with its own cache bounds).  The uncached reference implementation
is the frozen oracle in :mod:`repro.cq.naive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, FrozenSet, Iterable, Optional, Tuple

from repro.cq.engine import EvaluationEngine, default_engine
from repro.cq.query import CQ
from repro.data.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cq.plan import QueryPlan

__all__ = [
    "evaluate",
    "evaluate_unary",
    "evaluate_ghw",
    "selects",
    "indicator",
    "indicator_vector",
    "compile_plan",
]

Element = Any


def evaluate(
    query: CQ,
    database: Database,
    engine: Optional[EvaluationEngine] = None,
) -> FrozenSet[Tuple[Element, ...]]:
    """``q(D)`` as a set of tuples over ``dom(D)``.

    Implemented as one pointed homomorphism check per candidate
    assignment of the free variables, memoized as a whole answer;
    candidates are pre-filtered by the database's positional-occurrence
    index, so unary feature queries only ever test entities.
    """
    return (engine or default_engine()).evaluate(query, database)


def evaluate_unary(
    query: CQ,
    database: Database,
    engine: Optional[EvaluationEngine] = None,
) -> FrozenSet[Element]:
    """``q(D)`` for a unary query, as a set of elements (paper convention)."""
    return (engine or default_engine()).evaluate_unary(query, database)


def evaluate_ghw(
    query: CQ,
    database: Database,
    k: int,
    engine: Optional[EvaluationEngine] = None,
) -> FrozenSet[Element]:
    """``q(D)`` for a unary query of ghw ≤ k, by its single-pass plan.

    Raises :class:`~repro.exceptions.DecompositionError` if ``ghw(q) > k``.
    """
    return (engine or default_engine()).evaluate_ghw(query, database, k)


def selects(
    query: CQ,
    database: Database,
    element: Element,
    engine: Optional[EvaluationEngine] = None,
) -> bool:
    """Whether ``element ∈ q(D)`` for a unary query (single pointed check)."""
    return (engine or default_engine()).selects(query, database, element)


def indicator(
    query: CQ,
    database: Database,
    element: Element,
    engine: Optional[EvaluationEngine] = None,
) -> int:
    """The paper's ``1_{q(D)}(e)``: +1 if selected, -1 otherwise."""
    return (engine or default_engine()).indicator(query, database, element)


def indicator_vector(
    queries: Iterable[CQ],
    database: Database,
    element: Element,
    engine: Optional[EvaluationEngine] = None,
) -> Tuple[int, ...]:
    """``Π^D(e)`` for the statistic given as an iterable of feature queries."""
    return (engine or default_engine()).indicator_vector(
        queries, database, element
    )


def compile_plan(
    query: CQ,
    engine: Optional[EvaluationEngine] = None,
) -> "QueryPlan":
    """The engine's compiled (and cached) plan for ``query``.

    Compiling is idempotent — the engine caches one
    :class:`~repro.cq.plan.QueryPlan` per query — so this doubles as an
    explicit warm-up hook: compile a statistic's plans up front and every
    later ``selects``/``evaluate`` call starts on the hot path.
    """
    return (engine or default_engine()).plan_for(query)
