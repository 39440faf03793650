"""Indexed, memoized CQ evaluation engine (the library's hot path).

Every paper algorithm — separability checks (Prop 4.1/4.3), statistic
materialization (Section 3), QBE (Section 6), and GHW(k) classification
(Algorithm 1) — bottoms out in pointed homomorphism checks.  The
:class:`EvaluationEngine` makes repeated checks cheap in three ways:

- **Indexing.**  Checks read the target database's lazily-built
  :class:`~repro.data.database.DatabaseIndex` (per-(relation, position)
  occurrence sets, facts-by-relation maps), computed once per
  :class:`~repro.data.database.Database` instance and reused across all
  searches against it.
- **Memoization.**  Whole query answers (``q(D)``) are cached in a bounded
  LRU keyed by ``(query, database)``, and every ``q(D)`` resolves along one
  path: answer memo, warm-state store, vectorized sweep (numpy backend),
  then the caller's compute step.  Single pointed hom checks are cached in
  their own LRU keyed by ``(source database, target database, frozen fixed
  assignment)``, and cover-game results in a third.  Keys hold the actual
  :class:`Database` objects, whose value-based ``__eq__``/``__hash__`` make
  aliasing impossible: two databases share an entry iff they have exactly
  the same facts (in which case every result coincides), and a hash
  collision between distinct databases is resolved by equality like in any
  dict.  Databases are immutable, so entries never go stale; derived
  databases are new objects with new keys.
- **Batching.**  :meth:`evaluate_statistic` and :meth:`indicator_matrix`
  evaluate each feature query once per database and read vectors off the
  answer sets, instead of re-deriving candidates per ``selects`` call.
- **Compiled plans.**  Each query is compiled once into a
  :class:`~repro.cq.plan.QueryPlan` (cached in its own LRU keyed by the
  query alone) whose precompiled homomorphism program replaces the
  per-check query-side analysis — fact ordering, occurrence signatures,
  zip schedule — and whose single-pass Yannakakis plan backs
  :meth:`EvaluationEngine.evaluate_ghw`.  Plans are database-independent,
  so the plan cache survives :meth:`EvaluationEngine.apply_delta`
  untouched.

Instrumentation counters (hom checks attempted, backtrack nodes expanded,
cache hits/misses, cover games played) are threaded through to
``benchmarks/harness.py`` so benches report work done, not just wall-clock.

The module-level functions in :mod:`repro.cq.evaluation` are thin wrappers
over a process-wide default engine; the frozen uncached reference lives in
:mod:`repro.cq.naive` for differential testing.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy

from repro.cq.homomorphism import SearchCounters, has_homomorphism

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.cq.plan import HomomorphismProgram, PlanCounters, QueryPlan
    from repro.runtime.executor import Executor
from repro.cq.query import CQ
from repro.data.database import Database
from repro.exceptions import (
    DatabaseError,
    DecompositionError,
    QueryError,
    ReproError,
)

__all__ = [
    "CacheInfo",
    "EngineCounters",
    "EvaluationEngine",
    "default_engine",
    "set_default_engine",
]

Element = Any
Rows = FrozenSet[Tuple[Element, ...]]

DEFAULT_CACHE_SIZE = 4096

#: Engine backends: the pure-Python reference hot path, and the opt-in
#: numpy-bitset batch evaluator (:mod:`repro.cq.vectorized`).
BACKENDS = ("python", "numpy")


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-style cache statistics.

    ``retained``/``invalidated`` count delta reconciliations (see
    :meth:`EvaluationEngine.apply_delta`): entries migrated to the new
    database version versus entries evicted because their query mentioned
    a touched relation.  Both stay 0 for engines never fed a delta.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    retained: int = 0
    invalidated: int = 0

    @classmethod
    def total(cls, infos: Iterable["CacheInfo"]) -> "CacheInfo":
        """Field-wise sum of several caches' statistics."""
        # The zero row keeps the sum of no caches well-formed.
        return cls(*(sum(field) for field in zip(cls(0, 0, 0, 0), *infos)))


class EngineCounters:
    """Work counters for one :class:`EvaluationEngine`.

    ``search`` tallies the underlying backtracking searches (checks started
    and nodes expanded); ``cover_games`` counts cover-game decisions actually
    played (cache misses of the game cache); ``vectorized_sweeps`` counts
    evaluations answered by the numpy-bitset backend (always 0 on
    ``backend="python"`` engines); ``plan_compilations`` counts
    :meth:`QueryPlan.compile` runs actually performed (a plan served from
    the plan LRU does not count).
    """

    __slots__ = ("search", "cover_games", "vectorized_sweeps",
                 "plan_compilations")

    def __init__(self) -> None:
        self.search = SearchCounters()
        self.cover_games = 0
        self.vectorized_sweeps = 0
        self.plan_compilations = 0

    @property
    def hom_checks(self) -> int:
        return self.search.hom_checks

    @property
    def backtrack_nodes(self) -> int:
        return self.search.backtrack_nodes

    def reset(self) -> None:
        self.search = SearchCounters()
        self.cover_games = 0
        self.vectorized_sweeps = 0
        self.plan_compilations = 0

    def __repr__(self) -> str:
        return (
            f"EngineCounters(hom_checks={self.hom_checks}, "
            f"backtrack_nodes={self.backtrack_nodes}, "
            f"cover_games={self.cover_games}, "
            f"vectorized_sweeps={self.vectorized_sweeps}, "
            f"plan_compilations={self.plan_compilations})"
        )


class _LRUCache:
    """A small bounded LRU over an :class:`OrderedDict`.

    **Concurrency contract.**  The cache (like the whole engine) is
    single-threaded per process: the runtime subsystem parallelizes across
    *processes* with one engine each (:mod:`repro.runtime`), never across
    threads sharing an engine, so no locking is needed here.  The one
    re-entrancy hazard within a single thread is user-defined
    ``__hash__``/``__eq__`` on cache keys (databases hold arbitrary
    hashable elements) calling back into engine code and thereby into
    ``lookup``/``store`` while a lookup or eviction is mid-flight;
    both methods below tolerate the entry they are touching having been
    evicted or the dict having been cleared by such a re-entrant call.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "retained", "invalidated")

    _MISSING = object()

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.retained = 0
        self.invalidated = 0

    def lookup(self, key: Any) -> Any:
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return self._MISSING
        self.hits += 1
        try:
            self._data.move_to_end(key)
        except KeyError:
            # The key's __eq__/__hash__ re-entered store()/clear() during
            # the get above and this entry was evicted; the value we read
            # is still the correct result.
            pass
        return value

    def store(self, key: Any, value: Any) -> None:
        self._data[key] = value
        try:
            self._data.move_to_end(key)
        except KeyError:  # re-entrant clear()/eviction removed the entry
            return
        while len(self._data) > self.maxsize:
            try:
                self._data.popitem(last=False)
            except KeyError:  # re-entrant clear() emptied the dict
                break

    def reconcile(
        self, decide: Callable[[Any], Tuple[str, Any]]
    ) -> Tuple[int, int]:
        """Rebuild the cache under a key migration, preserving recency order.

        ``decide(key)`` returns ``("keep", None)``, ``("rekey", new_key)``,
        or ``("drop", None)``.  Returns ``(migrated, dropped)`` and folds
        both into the ``retained``/``invalidated`` tallies.  Migrating a
        key onto an existing one keeps the migrated value (the entries are
        equal results by construction, so either is correct).
        """
        migrated = dropped = 0
        items = list(self._data.items())
        self._data.clear()
        for key, value in items:
            action, new_key = decide(key)
            if action == "drop":
                dropped += 1
                continue
            if action == "rekey":
                if new_key != key:
                    migrated += 1
                self._data[new_key] = value
            else:
                self._data[key] = value
        self.retained += migrated
        self.invalidated += dropped
        return migrated, dropped

    def info(self) -> CacheInfo:
        return CacheInfo(
            self.hits,
            self.misses,
            self.maxsize,
            len(self._data),
            self.retained,
            self.invalidated,
        )

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.retained = 0
        self.invalidated = 0


class EvaluationEngine:
    """Indexed and memoized evaluation of CQs and homomorphism relations.

    Parameters
    ----------
    cache_size:
        Maximum number of entries per internal cache (pointed hom checks,
        query answers, cover games, compiled plans).  Results are exact
        regardless of the size; a small cache only trades speed for memory.
    backend:
        ``"python"`` (the default) keeps every evaluation on the pure
        reference hot path.  ``"numpy"`` opts into the vectorized bitset
        backend (:mod:`repro.cq.vectorized`): whole-query evaluations,
        hom checks, and bounded-ghw answers run as batched array sweeps
        when the instance fits, and fall back to the Python path
        otherwise — results are bit-identical either way (enforced by the
        ``tests/vectorized`` differential harness), and
        :meth:`backend_info` reports the backend plus the most recent
        fallback reason.
    max_vector_cells:
        Cap on the ``rows × columns`` size of any intermediate join table
        the numpy backend materializes; larger joins fall back to the
        Python path.  Ignored on ``backend="python"``.
    store:
        Optional warm-state store (a path string,
        :class:`~repro.store.ContentStore`, or
        :class:`~repro.store.WarmStore`).  When set, memoized answers are
        persisted to disk and consulted on LRU misses, so a fresh process
        against the same store answers without evaluating.  Compiled plans
        are not persisted: compiling one from its query is cheaper than
        decoding it.
        Results are bit-identical with or without a store: every loaded
        entry is checksum-verified and decode-validated, and anything
        suspect is quarantined and recomputed.  Default ``None`` keeps the
        engine purely in-memory.
    """

    def __init__(
        self,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: str = "python",
        max_vector_cells: Optional[int] = None,
        store: Optional[Any] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown engine backend {backend!r}; "
                f"choose one of {', '.join(BACKENDS)}"
            )
        self._caches = {
            name: _LRUCache(cache_size)
            for name in ("hom", "answers", "games", "plans")
        }
        self._hom_cache = self._caches["hom"]
        self._answer_cache = self._caches["answers"]
        self._game_cache = self._caches["games"]
        self._plan_cache = self._caches["plans"]
        self.backend = backend
        if max_vector_cells is None:
            from repro.cq.vectorized import DEFAULT_MAX_CELLS

            max_vector_cells = DEFAULT_MAX_CELLS
        self.max_vector_cells = max_vector_cells
        if store is None:
            self.store = None
        else:
            # Local import: the store subsystem is optional machinery the
            # default (store-less) engine never pays for.
            from repro.store.warm import open_store

            self.store = open_store(store)
        self.counters = EngineCounters()
        self._plan_counters: Optional["PlanCounters"] = None
        #: Most recent reason a vectorized evaluation fell back, or None.
        self.backend_fallback_reason: Optional[str] = None
        self._backend_fallbacks = 0

    # ------------------------------------------------------------------
    # Backend selection and fallback accounting
    # ------------------------------------------------------------------

    def backend_info(self) -> Dict[str, Any]:
        """Requested/active backend, numpy version, fallback accounting.

        JSON-safe; surfaced by ``InferenceService.metrics_snapshot()`` and
        the benchmark report headers so results stay attributable to the
        backend that produced them.  ``active`` always equals
        ``requested``; both keys stay for the ``/metrics`` schema.
        """
        return {
            "requested": self.backend,
            "active": self.backend,
            "numpy": numpy.__version__,
            "fallbacks": self._backend_fallbacks,
            "fallback_reason": self.backend_fallback_reason,
        }

    def _note_fallback(self, reason: str) -> None:
        self.backend_fallback_reason = reason
        self._backend_fallbacks += 1

    def _vectorized_answer(
        self, query: CQ, database: Database
    ) -> Optional[Rows]:
        """``q(D)`` via the vectorized backend, or ``None`` on fallback."""
        from repro.cq.vectorized import VectorizedFallback

        program = self.plan_for(query).vectorized()
        try:
            result = program.evaluate(
                database, max_cells=self.max_vector_cells
            )
        except VectorizedFallback as fallback:
            self._note_fallback(str(fallback))
            return None
        self.counters.vectorized_sweeps += 1
        return result

    def _vectorized_hom(
        self,
        source: Database,
        target: Database,
        fixed: Optional[Mapping[Element, Element]],
    ) -> Optional[bool]:
        """Decide ``source → target`` vectorized, or ``None`` on fallback."""
        from repro.cq.vectorized import VectorizedFallback, VectorizedProgram

        key = ("vectorized-hom", source)
        program = self._plan_cache.lookup(key)
        if program is _LRUCache._MISSING:
            program = VectorizedProgram.compile_database(source)
            self._plan_cache.store(key, program)
        try:
            decision = program.decide(
                target, fixed, max_cells=self.max_vector_cells
            )
        except VectorizedFallback as fallback:
            self._note_fallback(str(fallback))
            return None
        # Count the decision as one hom check (metric continuity with the
        # backtracking path) plus one vectorized sweep.
        self.counters.search.hom_checks += 1
        self.counters.vectorized_sweeps += 1
        return decision

    @property
    def plan_counters(self) -> "PlanCounters":
        """Work tally of single-pass structured plan executions."""
        if self._plan_counters is None:
            # Local import: repro.cq.plan is loaded lazily so constructing
            # the module-level default engine stays import-cycle free.
            from repro.cq.plan import PlanCounters

            self._plan_counters = PlanCounters()
        return self._plan_counters

    # ------------------------------------------------------------------
    # Compiled query plans
    # ------------------------------------------------------------------

    def plan_for(self, query: CQ) -> "QueryPlan":
        """The compiled :class:`~repro.cq.plan.QueryPlan` for ``query``.

        Compiled at most once per query (LRU-cached by the query alone —
        plans never depend on a target database).  Hits and misses appear
        under ``"plans"`` in :meth:`cache_details` and are folded into
        :meth:`cache_info`.
        """
        cached = self._plan_cache.lookup(query)
        if cached is not _LRUCache._MISSING:
            return cached
        from repro.cq.plan import QueryPlan

        plan = QueryPlan.compile(query)
        self.counters.plan_compilations += 1
        self._plan_cache.store(query, plan)
        return plan

    # ------------------------------------------------------------------
    # Homomorphism checks
    # ------------------------------------------------------------------

    def has_homomorphism(
        self,
        source: Database,
        target: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        program: Optional["HomomorphismProgram"] = None,
    ) -> bool:
        """Memoized ``source → target`` extending ``fixed``.

        The hom memo holds single pointed checks like this one (from
        :meth:`selects`, :meth:`pointed_has_homomorphism`, and direct
        calls); the per-candidate checks inside a ``q(D)`` computation
        bypass it.  When a precompiled ``program`` (over ``source``,
        seeded with the keys of ``fixed``) is given, a cache miss executes
        it instead of the direct search — the decision is identical, only
        the per-check query-side analysis is skipped and the search tree
        is pruned through the target's ``facts_at`` index.
        """
        frozen = frozenset(fixed.items()) if fixed else frozenset()
        key = (source, target, frozen)
        cached = self._hom_cache.lookup(key)
        if cached is not _LRUCache._MISSING:
            return cached
        if self.backend == "numpy":
            decision = self._vectorized_hom(source, target, fixed)
            if decision is not None:
                self._hom_cache.store(key, decision)
                return decision
        if program is not None:
            result = program.run(target, fixed, self.counters.search)
        else:
            result = has_homomorphism(
                source, target, fixed, self.counters.search
            )
        self._hom_cache.store(key, result)
        return result

    def pointed_has_homomorphism(
        self,
        source: Database,
        source_tuple: Sequence[Element],
        target: Database,
        target_tuple: Sequence[Element],
    ) -> bool:
        """Memoized ``(D, ā) → (D', b̄)``."""
        if len(source_tuple) != len(target_tuple):
            raise DatabaseError(
                "pointed homomorphism requires equal-length tuples"
            )
        fixed: Dict[Element, Element] = {}
        for element, image in zip(source_tuple, target_tuple):
            if fixed.setdefault(element, image) != image:
                return False
        return self.has_homomorphism(source, target, fixed)

    # ------------------------------------------------------------------
    # CQ evaluation
    # ------------------------------------------------------------------

    def _free_variable_candidates(
        self, query: CQ, database: Database
    ) -> List[Set[Element]]:
        """Per-free-variable candidate sets from the database's index.

        Raises :class:`~repro.exceptions.QueryError` for a free variable
        that appears in no atom: it has no positional constraint at all, so
        no candidate set is sound, and the historical behavior (an empty set,
        silently dropping the variable from all results) hid the malformed
        query.  :class:`~repro.cq.query.CQ` rejects detached free variables
        at construction, so this only triggers on hand-rolled query objects.
        """
        positions = database.index.positions
        candidate_sets: List[Set[Element]] = []
        for variable in query.free_variables:
            candidates: Optional[Set[Element]] = None
            for atom in query.atoms:
                for index, argument in enumerate(atom.arguments):
                    if argument != variable:
                        continue
                    allowed = positions.get((atom.relation, index), frozenset())
                    candidates = (
                        set(allowed)
                        if candidates is None
                        else candidates & allowed
                    )
            if candidates is None:
                raise QueryError(
                    f"free variable {variable} does not occur in any atom"
                )
            candidate_sets.append(candidates)
        return candidate_sets

    def _resolve(
        self,
        queries: Sequence[CQ],
        database: Database,
        compute: Optional[Callable[[List[CQ]], Sequence[Rows]]],
        sweep: bool = True,
    ) -> List[Optional[Rows]]:
        """``q(D)`` rows per query, along the engine's one resolution path.

        Each distinct query takes the first step that answers it: the
        answer memo, the warm-state store, a vectorized sweep (numpy
        backend only), then ``compute``, which maps the queries still
        pending to their rows.  Computed rows are memoized and persisted.
        A query no step answers (no ``compute`` given) resolves to
        ``None``.  ``sweep=False`` skips the sweep for a ``compute`` that
        hands the queries to other engines, which sweep for themselves.
        """
        resolved: List[Optional[Rows]] = []
        pending: Dict[CQ, None] = {}  # insertion-ordered set
        for query in queries:
            rows = self._answer_cache.lookup((query, database))
            if rows is _LRUCache._MISSING:
                rows = None
                if self.store is not None and query not in pending:
                    rows = self.store.load_answer(query, database)
                if rows is None:
                    pending[query] = None
                else:
                    self._answer_cache.store((query, database), rows)
            resolved.append(rows)
        if not pending:
            return resolved
        computed: Dict[CQ, Rows] = {}
        if sweep and self.backend == "numpy":
            for query in pending:
                rows = self._vectorized_answer(query, database)
                if rows is not None:
                    computed[query] = rows
        remaining = [query for query in pending if query not in computed]
        if remaining and compute is not None:
            computed.update(zip(remaining, compute(remaining)))
        for query, rows in computed.items():
            self._answer_cache.store((query, database), rows)
            if self.store is not None:
                self.store.save_answer(query, database, rows)
        return [
            computed.get(query) if rows is None else rows
            for query, rows in zip(queries, resolved)
        ]

    def _backtrack(
        self, database: Database, queries: Sequence[CQ]
    ) -> List[Rows]:
        """``q(D)`` per query, by its compiled backtracking program.

        One run of the plan's :class:`~repro.cq.plan.HomomorphismProgram`
        per candidate assignment of the free variables (candidates
        pre-filtered through the database index).  The runs bypass the hom
        memo: the answer memo already covers the whole ``q(D)``.
        """
        answers: List[Rows] = []
        for query in queries:
            candidate_sets = self._free_variable_candidates(query, database)
            if not all(candidate_sets):
                answers.append(frozenset())
                continue
            program = self.plan_for(query).program
            free = query.free_variables
            answers.append(
                frozenset(
                    values
                    for values in itertools.product(*candidate_sets)
                    if program.run(
                        database, dict(zip(free, values)), self.counters.search
                    )
                )
            )
        return answers

    def evaluate(self, query: CQ, database: Database) -> Rows:
        """``q(D)`` as a set of tuples, memoized per ``(query, database)``.

        Computed by the query's compiled backtracking program.  With a
        warm-state store, a memo miss consults the persisted answer before
        any computation, and every computed answer is persisted.
        """
        (rows,) = self._resolve(
            (query,), database, partial(self._backtrack, database)
        )
        return rows

    def evaluate_unary(
        self, query: CQ, database: Database
    ) -> FrozenSet[Element]:
        """``q(D)`` for a unary query, as a set of elements."""
        if not query.is_unary:
            raise QueryError("evaluate_unary requires a unary CQ")
        return frozenset(row[0] for row in self.evaluate(query, database))

    def evaluate_ghw(
        self, query: CQ, database: Database, k: int
    ) -> FrozenSet[Element]:
        """``q(D)`` via the compiled single-pass Yannakakis plan (ghw ≤ k).

        The decomposition is found and compiled at most once per
        ``(query, k)`` (on the cached :class:`~repro.cq.plan.QueryPlan`);
        answers share the same memo as :meth:`evaluate`, which is sound
        because the single-pass plan is differentially verified to agree
        with the backtracking path.  Raises
        :class:`~repro.exceptions.DecompositionError` if ``ghw(q) > k``.
        """
        if not query.is_unary:
            raise QueryError("structured evaluation requires a unary CQ")
        structured = self.plan_for(query).structured(k)
        if structured is None:
            raise DecompositionError(f"query has ghw > {k}")

        def single_pass(_: List[CQ]) -> List[Rows]:
            answer = structured.evaluate(database, self.plan_counters)
            return [frozenset((element,) for element in answer)]

        (rows,) = self._resolve((query,), database, single_pass)
        return frozenset(row[0] for row in rows)

    def selects(self, query: CQ, database: Database, element: Element) -> bool:
        """Whether ``element ∈ q(D)``, by one memoized pointed check.

        On the numpy backend the whole answer set is resolved (and
        memoized) in one vectorized sweep instead — repeated ``selects``
        over the same pair then amortize to cache lookups, which is the
        access pattern of every indicator-matrix fill.
        """
        if not query.is_unary:
            raise QueryError("selects requires a unary CQ")
        if self.backend == "numpy":
            (rows,) = self._resolve((query,), database, None)
            if rows is not None:
                return (element,) in rows
        return self.has_homomorphism(
            query.canonical_database,
            database,
            {query.free_variable: element},
            self.plan_for(query).program,
        )

    def indicator(
        self, query: CQ, database: Database, element: Element
    ) -> int:
        """The paper's ``1_{q(D)}(e)``: +1 if selected, -1 otherwise."""
        return 1 if self.selects(query, database, element) else -1

    def indicator_vector(
        self, queries: Iterable[CQ], database: Database, element: Element
    ) -> Tuple[int, ...]:
        """``Π^D(e)`` for one element via memoized pointed checks."""
        return tuple(
            self.indicator(query, database, element) for query in queries
        )

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------

    def _evaluate_queries(
        self,
        queries: Sequence[CQ],
        database: Database,
        executor: Optional["Executor"],
    ) -> List[FrozenSet[Element]]:
        """Answer sets for a batch of unary queries, optionally sharded.

        The batch resolves in one pass.  Its compute step is the compiled
        backtracking program, or — with a multi-worker executor — shards
        dispatched to worker processes (each running the same pure
        :meth:`evaluate_unary` on its own engine), merged back in query
        order and memoized here, so parallel results are bit-identical to
        serial ones and later serial calls stay warm.
        """
        for query in queries:
            if not query.is_unary:
                raise QueryError("evaluate_unary requires a unary CQ")
        if executor is None or executor.workers <= 1 or len(queries) <= 1:
            resolved = self._resolve(
                queries, database, partial(self._backtrack, database)
            )
        else:
            resolved = self._resolve(
                queries,
                database,
                partial(self._dispatch, executor, database),
                sweep=False,
            )
        return [frozenset(row[0] for row in rows) for rows in resolved]

    def _dispatch(
        self, executor: "Executor", database: Database, queries: List[CQ]
    ) -> List[Rows]:
        """``q(D)`` per unary query, computed by the executor's workers."""
        # Local import: repro.runtime imports this module at load time.
        from repro.runtime.tasks import evaluate_unary_queries

        # Broadcast the shared target database once (digest-keyed): shard
        # payloads carry a tiny ref, workers resolve it from their resident
        # cache, and only the query chunks ship.
        target = executor.broadcast(database)
        answers = executor.run(
            evaluate_unary_queries,
            queries,
            lambda chunk: (tuple(chunk), target),
        )
        return [
            frozenset((element,) for element in answer) for answer in answers
        ]

    def indicator_matrix(
        self,
        queries: Sequence[CQ],
        database: Database,
        elements: Sequence[Element],
        executor: Optional["Executor"] = None,
    ) -> Tuple[Tuple[int, ...], ...]:
        """Rows ``Π^D(e)`` for each element, amortizing across elements.

        Each query is evaluated once over the database (memoized), and all
        element rows are read off the answer sets — ``len(queries)`` query
        evaluations instead of ``len(queries) × len(elements)`` independent
        ``selects`` candidate derivations.  With a multi-worker
        ``executor`` the query evaluations are sharded across worker
        processes (order-preserving, bit-identical results).
        """
        answers = self._evaluate_queries(queries, database, executor)
        return tuple(
            tuple(1 if element in answer else -1 for answer in answers)
            for element in elements
        )

    def evaluate_statistic(
        self,
        statistic: Iterable[CQ],
        database: Database,
        entities: Optional[Sequence[Element]] = None,
        executor: Optional["Executor"] = None,
    ) -> Dict[Element, Tuple[int, ...]]:
        """``Π^D`` over all (or the given) entities, evaluated batch-wise.

        Accepts a :class:`~repro.core.statistic.Statistic` or any iterable
        of unary feature queries, and an optional
        :class:`~repro.runtime.Executor` to shard the per-query work.
        """
        queries = list(statistic)
        if entities is None:
            entities = sorted(database.entities(), key=repr)
        rows = self.indicator_matrix(queries, database, entities, executor)
        return dict(zip(entities, rows))

    # ------------------------------------------------------------------
    # Cover games (Section 5; used by Algorithm 1 and GHW-QBE)
    # ------------------------------------------------------------------

    def cover_game(
        self,
        source: Database,
        source_tuple: Sequence[Element],
        target: Database,
        target_tuple: Sequence[Element],
        k: int,
    ) -> bool:
        """Memoized ``(D, ā) →_k (D', b̄)`` (existential k-cover game)."""
        key = (source, tuple(source_tuple), target, tuple(target_tuple), k)
        cached = self._game_cache.lookup(key)
        if cached is not _LRUCache._MISSING:
            return cached
        # Local import: repro.covergame imports repro.cq at module load.
        from repro.covergame.game import cover_game_holds

        self.counters.cover_games += 1
        result = cover_game_holds(source, source_tuple, target, target_tuple, k)
        self._game_cache.store(key, result)
        return result

    # ------------------------------------------------------------------
    # Delta-aware cache invalidation (repro.stream integration)
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        before: Database,
        after: Database,
        touched_relations: Iterable[str],
    ) -> Dict[str, int]:
        """Migrate caches across a database delta, relation-scoped.

        ``after`` is ``before`` plus a delta whose facts all lie in
        ``touched_relations``; ``before`` is assumed retired (a streaming
        consumer moves on to the new version and never queries the old
        snapshot again).  Every cached result keyed to ``before`` is
        reconciled:

        - **Retained.**  Entries whose query/source side mentions only
          relations *disjoint* from ``touched_relations`` are rekeyed to
          ``after``.  This is sound because every engine result — a query
          answer, a (pointed) hom check, a cover game — depends only on
          the target's facts over the relations the query/source mentions
          (a homomorphism maps source facts to target facts; nothing else
          about the target is inspected), and those facts are unchanged.
        - **Invalidated.**  Entries whose query mentions a touched relation,
          and entries where the retired ``before`` appears on the *source*
          side (the delta changed the source itself), are evicted.

        Entries referencing neither database are untouched, and the plan
        cache is not reconciled at all: compiled plans depend only on the
        query, never on any target database, so every plan stays valid
        across any delta.
        Returns the ``{"retained": ..., "invalidated": ...}`` counts for
        this delta; cumulative tallies appear in :meth:`cache_info` and
        :meth:`work_snapshot`.
        """
        touched = frozenset(touched_relations)

        def involves(database: Database) -> bool:
            return database is before or database == before

        def decide_answer(key: Any) -> Tuple[str, Any]:
            query, database = key
            if not involves(database):
                return ("keep", None)
            if touched.isdisjoint(query.mentioned_relations()):
                return ("rekey", (query, after))
            return ("drop", None)

        def decide_hom(key: Any) -> Tuple[str, Any]:
            source, target, frozen = key
            if involves(target):
                if touched.isdisjoint(source.relation_names):
                    return ("rekey", (source, after, frozen))
                return ("drop", None)
            if involves(source):
                return ("drop", None)
            return ("keep", None)

        def decide_game(key: Any) -> Tuple[str, Any]:
            source, source_tuple, target, target_tuple, k = key
            if involves(target):
                if touched.isdisjoint(source.relation_names):
                    return (
                        "rekey",
                        (source, source_tuple, after, target_tuple, k),
                    )
                return ("drop", None)
            if involves(source):
                return ("drop", None)
            return ("keep", None)

        retained = invalidated = 0
        for cache, decide in (
            (self._answer_cache, decide_answer),
            (self._hom_cache, decide_hom),
            (self._game_cache, decide_game),
        ):
            migrated, dropped = cache.reconcile(decide)
            retained += migrated
            invalidated += dropped
        result = {"retained": retained, "invalidated": invalidated}
        if self.store is not None:
            # Hygiene mirror of the in-memory rule: the retired digest's
            # touched entries are dead weight on disk (content-addressed
            # keys make them unreachable for correctness purposes anyway).
            result["store_invalidated"] = self.store.invalidate_database(
                before, touched
            )
        return result

    # ------------------------------------------------------------------
    # Cache management and instrumentation
    # ------------------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Aggregated statistics over all internal caches."""
        return CacheInfo.total(self.cache_details().values())

    def cache_details(self) -> Dict[str, CacheInfo]:
        """Per-cache statistics keyed by cache name."""
        return {name: cache.info() for name, cache in self._caches.items()}

    def clear(self) -> None:
        """Drop all cached results (and their hit/miss tallies)."""
        for cache in self._caches.values():
            cache.clear()
        self._plan_counters = None

    def work_snapshot(self) -> Dict[str, int]:
        """Cumulative work counters, for delta-based benchmark reporting."""
        info = self.cache_info()
        snapshot = {
            "hom_checks": self.counters.hom_checks,
            "backtrack_nodes": self.counters.backtrack_nodes,
            "cover_games": self.counters.cover_games,
            "vectorized_sweeps": self.counters.vectorized_sweeps,
            "plan_compilations": self.counters.plan_compilations,
            "backend_fallbacks": self._backend_fallbacks,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "cache_retained": info.retained,
            "cache_invalidated": info.invalidated,
        }
        if self.store is not None:
            snapshot["store_memo_hits"] = self.store.memo_hits
            snapshot["store_memo_misses"] = self.store.memo_misses
        return snapshot


_default_engine = EvaluationEngine()


def default_engine() -> EvaluationEngine:
    """The process-wide engine behind the module-level wrapper functions."""
    return _default_engine


def set_default_engine(engine: EvaluationEngine) -> EvaluationEngine:
    """Swap the process-wide engine; returns the previous one."""
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
