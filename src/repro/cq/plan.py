"""Compile-once query plans: amortizing query-side work across databases.

The paper's tractability story (Table 1, Section 5) evaluates a *fixed*
statistic — the same CQs — over *many* databases.  A check that starts from
a bare source database redoes the query-side analysis every time:
:func:`~repro.cq.homomorphism.all_homomorphisms` compiles a fresh
:class:`~repro.cq.homomorphism.HomomorphismProgram` per call.  This module
compiles each query once into a :class:`QueryPlan` and reuses the plan
against arbitrary target databases:

- :class:`~repro.cq.homomorphism.HomomorphismProgram` (defined with the
  other homomorphism functions, re-exported here) — the backtracking path
  over the query's canonical database, seeded with its free variables, so
  the fact order, occurrence signatures, zip schedule and lookup slots are
  derived once per query instead of once per check.
- :class:`YannakakisPlan` — the bounded-ghw path, compiled from a tree
  decomposition: the free variable is kept as the leading column of *every*
  bag relation, so a single bottom-up semijoin pass over hash-joined bag
  relations decides all candidate values at once, and the answer is the
  projection of the root onto the free column.  Each bag is therefore
  materialized once per evaluation, not once per candidate value.  (A
  downward pass would fully reduce the non-root bags too, but is
  unnecessary when only the root is projected: after the upward pass every
  surviving root row already extends to a full join result.)
- :class:`QueryPlan` — one compiled unit per CQ, holding the homomorphism
  program for the canonical database and lazily-compiled Yannakakis plans
  per width bound.

Plans are **database-independent**: they read only the query (and its
decomposition), never a target's facts, so a plan compiled once is valid
for every database the query is ever evaluated on — including across
:meth:`~repro.cq.engine.EvaluationEngine.apply_delta` migrations, which is
why the engine's plan cache survives streaming deltas untouched.  Plan
execution is instrumented through the same
:class:`~repro.cq.homomorphism.SearchCounters` as every other homomorphism
check, plus :class:`PlanCounters` for the structured path's materialization
work.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cq.homomorphism import HomomorphismProgram
from repro.cq.query import CQ
from repro.cq.terms import Variable
from repro.cq.vectorized import VectorizedProgram
from repro.data.database import Database
from repro.exceptions import DecompositionError, QueryError
from repro.hypergraph.decomposition import TreeDecomposition

__all__ = [
    "PlanCounters",
    "HomomorphismProgram",
    "YannakakisPlan",
    "QueryPlan",
]

Element = Any
_Row = Tuple  # binding tuple over a bag's column order

#: Sentinel for "no value yet" in pattern extraction (``None`` is a legal
#: database element, so it cannot play that role).
_UNSET = object()


class PlanCounters:
    """Work tally of single-pass structured (Yannakakis) evaluation.

    ``evaluations`` counts plan executions; ``bag_relations`` counts bag
    relations materialized; ``bag_rows`` counts rows produced while
    materializing them; ``semijoins`` counts upward-pass semijoin steps.
    One evaluation materializes each bag of the decomposition at most once,
    so ``bag_relations`` grows by at most the bag count per evaluation.
    """

    __slots__ = ("evaluations", "bag_relations", "bag_rows", "semijoins")

    def __init__(self) -> None:
        self.evaluations = 0
        self.bag_relations = 0
        self.bag_rows = 0
        self.semijoins = 0

    def __repr__(self) -> str:
        return (
            f"PlanCounters(evaluations={self.evaluations}, "
            f"bag_relations={self.bag_relations}, "
            f"bag_rows={self.bag_rows}, semijoins={self.semijoins})"
        )


# ----------------------------------------------------------------------
# Bounded ghw: single-pass hash-join Yannakakis plans
# ----------------------------------------------------------------------


class _AtomStep:
    """One compiled hash-join step of a bag materialization."""

    __slots__ = (
        "relation",
        "pattern",
        "shared_row_positions",
        "shared_binding_positions",
        "new_binding_positions",
    )

    def __init__(
        self,
        relation: str,
        pattern: Tuple[int, ...],
        shared_row_positions: Tuple[int, ...],
        shared_binding_positions: Tuple[int, ...],
        new_binding_positions: Tuple[int, ...],
    ) -> None:
        self.relation = relation
        self.pattern = pattern
        self.shared_row_positions = shared_row_positions
        self.shared_binding_positions = shared_binding_positions
        self.new_binding_positions = new_binding_positions


class _BagProgram:
    """Compiled materialization recipe for one bag relation."""

    __slots__ = ("columns", "steps", "pad_count")

    def __init__(
        self,
        columns: Tuple[Variable, ...],
        steps: Tuple[_AtomStep, ...],
        pad_count: int,
    ) -> None:
        self.columns = columns
        self.steps = steps
        self.pad_count = pad_count


class YannakakisPlan:
    """A decomposition compiled into a single-pass semijoin program.

    Every bag relation carries the free variable as its leading column, so
    the bags trivially satisfy the running-intersection property for the
    free variable and one bottom-up semijoin pass suffices: a root row
    surviving the pass extends to a full join result, hence projecting the
    root onto the free column yields exactly ``q(D)``.
    """

    __slots__ = (
        "query",
        "decomposition",
        "_candidate_steps",
        "_bags",
        "_order",
        "_parent",
        "_semijoin_positions",
    )

    def __init__(self, query: CQ, decomposition: TreeDecomposition) -> None:
        if not query.is_unary:
            raise QueryError("structured evaluation requires a unary CQ")
        if decomposition.query != query:
            raise DecompositionError(
                "decomposition does not belong to this query"
            )
        self.query = query
        self.decomposition = decomposition
        free = query.free_variable

        # Atoms mentioning only the free variable constrain the candidate
        # column directly; they are folded into the initial candidate set
        # rather than joined into every bag.
        self._candidate_steps: Tuple[Tuple[str, Tuple[int, ...]], ...] = tuple(
            (atom.relation, tuple(0 for _ in atom.arguments))
            for atom in query.atoms
            if set(atom.arguments) == {free}
        )

        bags: List[_BagProgram] = []
        for bag in decomposition.bags:
            columns: List[Variable] = [free]
            steps: List[_AtomStep] = []
            pending = [
                atom
                for atom in query.atoms
                if set(atom.arguments) != {free}
                and all(
                    variable == free or variable in bag
                    for variable in atom.arguments
                )
            ]
            while pending:
                # Join next an atom that shares a column with the rows so
                # far, so no step is a cross product while one can be
                # avoided; fall back to query order when none does.
                index = next(
                    (
                        position
                        for position, atom in enumerate(pending)
                        if any(v in columns for v in atom.arguments)
                    ),
                    0,
                )
                atom = pending.pop(index)
                var_order = list(dict.fromkeys(atom.arguments))
                pattern = tuple(
                    var_order.index(variable) for variable in atom.arguments
                )
                shared = [v for v in var_order if v in columns]
                fresh = [v for v in var_order if v not in columns]
                steps.append(
                    _AtomStep(
                        atom.relation,
                        pattern,
                        tuple(columns.index(v) for v in shared),
                        tuple(var_order.index(v) for v in shared),
                        tuple(var_order.index(v) for v in fresh),
                    )
                )
                columns.extend(fresh)
            pad = [v for v in sorted(bag) if v not in columns]
            columns.extend(pad)
            bags.append(_BagProgram(tuple(columns), tuple(steps), len(pad)))
        self._bags = tuple(bags)

        # Tree traversal: DFS from node 0, with parents precomputed.
        n = len(decomposition.bags)
        adjacency: Dict[int, List[int]] = {i: [] for i in range(n)}
        for left, right in decomposition.edges:
            adjacency[left].append(right)
            adjacency[right].append(left)
        order: List[int] = []
        parent: Dict[int, Optional[int]] = {0: None}
        stack = [0]
        seen = {0}
        while stack:
            node = stack.pop()
            order.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    parent[neighbor] = node
                    stack.append(neighbor)
        self._order = tuple(order)
        self._parent = parent

        # Per-node semijoin column positions against its parent.  The free
        # variable leads every bag, so the shared column list is never
        # empty and always propagates free-value consistency.
        semijoin: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for node, parent_node in parent.items():
            if parent_node is None:
                continue
            parent_columns = self._bags[parent_node].columns
            child_columns = self._bags[node].columns
            shared = [v for v in parent_columns if v in child_columns]
            semijoin[node] = (
                tuple(parent_columns.index(v) for v in shared),
                tuple(child_columns.index(v) for v in shared),
            )
        self._semijoin_positions = semijoin

    # ------------------------------------------------------------------

    @staticmethod
    def _pattern_rows(
        database: Database,
        relation: str,
        pattern: Tuple[int, ...],
        memo: Dict[Tuple[str, Tuple[int, ...]], Tuple[_Row, ...]],
    ) -> Tuple[_Row, ...]:
        """All variable-binding rows of an atom pattern, one relation scan.

        ``pattern[i]`` is the variable slot of argument position ``i``;
        repeated slots enforce equality.  Memoized per evaluation so atoms
        sharing a pattern scan the relation once.
        """
        key = (relation, pattern)
        cached = memo.get(key)
        if cached is not None:
            return cached
        n_slots = max(pattern) + 1 if pattern else 0
        rows: List[_Row] = []
        for fact in database.facts_of(relation):
            values: List[Any] = [_UNSET] * n_slots
            consistent = True
            for slot, element in zip(pattern, fact.arguments):
                current = values[slot]
                if current is _UNSET:
                    values[slot] = element
                elif current != element:
                    consistent = False
                    break
            if consistent:
                rows.append(tuple(values))
        result = tuple(rows)
        memo[key] = result
        return result

    def _candidates(
        self,
        database: Database,
        memo: Dict[Tuple[str, Tuple[int, ...]], Tuple[_Row, ...]],
    ) -> Set[Element]:
        candidates: Optional[Set[Element]] = None
        for relation, pattern in self._candidate_steps:
            values = {
                row[0]
                for row in self._pattern_rows(
                    database, relation, pattern, memo
                )
            }
            candidates = (
                values if candidates is None else candidates & values
            )
            if not candidates:
                return set()
        if candidates is None:
            candidates = set(database.domain)
        return candidates

    def evaluate(
        self,
        database: Database,
        counters: Optional[PlanCounters] = None,
    ) -> FrozenSet[Element]:
        """``q(D)`` in one pass: materialize bags, semijoin up, project root."""
        if counters is not None:
            counters.evaluations += 1
        memo: Dict[Tuple[str, Tuple[int, ...]], Tuple[_Row, ...]] = {}
        candidates = self._candidates(database, memo)
        if not candidates:
            return frozenset()

        relations: List[Set[_Row]] = []
        sorted_domain: Optional[Tuple[Element, ...]] = None
        for bag in self._bags:
            rows: Set[_Row] = {(value,) for value in candidates}
            if counters is not None:
                counters.bag_relations += 1
            for step in bag.steps:
                bindings = self._pattern_rows(
                    database, step.relation, step.pattern, memo
                )
                buckets: Dict[Tuple, List[_Row]] = {}
                for binding in bindings:
                    buckets.setdefault(
                        tuple(
                            binding[i]
                            for i in step.shared_binding_positions
                        ),
                        [],
                    ).append(binding)
                joined: Set[_Row] = set()
                for row in rows:
                    key = tuple(row[i] for i in step.shared_row_positions)
                    for binding in buckets.get(key, ()):
                        joined.add(
                            row
                            + tuple(
                                binding[i]
                                for i in step.new_binding_positions
                            )
                        )
                rows = joined
                if not rows:
                    return frozenset()
            if bag.pad_count:
                # Unconstrained bag variables range over the whole domain.
                if sorted_domain is None:
                    sorted_domain = database.index.sorted_domain
                for _ in range(bag.pad_count):
                    rows = {
                        row + (element,)
                        for row in rows
                        for element in sorted_domain
                    }
            if counters is not None:
                counters.bag_rows += len(rows)
            relations.append(rows)

        # Upward semijoin pass: children reduce parents, leaves first.
        for node in reversed(self._order):
            parent_node = self._parent[node]
            if parent_node is None:
                continue
            parent_positions, child_positions = self._semijoin_positions[node]
            keys = {
                tuple(row[i] for i in child_positions)
                for row in relations[node]
            }
            surviving = {
                row
                for row in relations[parent_node]
                if tuple(row[i] for i in parent_positions) in keys
            }
            if counters is not None:
                counters.semijoins += 1
            if not surviving:
                return frozenset()
            relations[parent_node] = surviving

        root = relations[self._order[0]]
        return frozenset(row[0] for row in root)

    def __repr__(self) -> str:
        return (
            f"YannakakisPlan(bags={len(self._bags)}, "
            f"query={self.query!s})"
        )


# ----------------------------------------------------------------------
# One compiled unit per CQ
# ----------------------------------------------------------------------


class QueryPlan:
    """Everything compiled once for one CQ, reused across databases.

    ``program`` is the :class:`HomomorphismProgram` over the query's
    canonical database, seeded with its free variables — the unit the
    engine's ``selects``/``evaluate`` hot paths execute.  Structured
    (bounded-ghw) plans are compiled lazily per width bound via
    :meth:`structured` and cached on the plan, so the decomposition search
    also runs at most once per ``(query, k)``.  The vectorized program
    (numpy-bitset backend, :mod:`repro.cq.vectorized`) is compiled lazily
    via :meth:`vectorized`; compilation reads only the query.
    """

    __slots__ = ("query", "program", "_structured", "_vectorized")

    def __init__(self, query: CQ, program: HomomorphismProgram) -> None:
        self.query = query
        self.program = program
        self._structured: Dict[int, Optional[YannakakisPlan]] = {}
        self._vectorized: Optional[Any] = None

    @classmethod
    def compile(cls, query: CQ) -> "QueryPlan":
        program = HomomorphismProgram.compile(
            query.canonical_database, query.free_variables
        )
        return cls(query, program)

    def structured(self, k: int) -> Optional[YannakakisPlan]:
        """The single-pass plan for width ``k``, or ``None`` if ghw > k.

        The decomposition (and the ``None`` outcome) is cached per ``k``.
        """
        if k not in self._structured:
            # Local import: repro.hypergraph.ghw imports repro.cq at load.
            from repro.hypergraph.ghw import decompose

            decomposition = decompose(self.query, k)
            self._structured[k] = (
                None
                if decomposition is None
                else YannakakisPlan(self.query, decomposition)
            )
        return self._structured[k]

    def vectorized(self) -> Any:
        """The compiled :class:`~repro.cq.vectorized.VectorizedProgram`.

        Compiled at most once per plan; like every plan artifact it is
        database-independent, so it survives deltas and is valid against
        any target.
        """
        if self._vectorized is None:
            self._vectorized = VectorizedProgram.compile_query(self.query)
        return self._vectorized

    def __repr__(self) -> str:
        return f"QueryPlan({self.query!s})"
