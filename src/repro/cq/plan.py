"""Compile-once query plans: amortizing query-side work across databases.

The paper's tractability story (Table 1, Section 5) evaluates a *fixed*
statistic — the same CQs — over *many* databases, yet the direct evaluators
redo query-side analysis on every check: :func:`~repro.cq.homomorphism.
all_homomorphisms` re-derives the positional-candidate prefilter and re-runs
the greedy fact ordering per call, and the per-candidate decomposition
evaluator in :mod:`repro.cq.structured_evaluation` re-materializes every bag
relation once per candidate free value.  This module compiles each query
once into a :class:`QueryPlan` and reuses the plan against arbitrary target
databases:

- :class:`HomomorphismProgram` — the backtracking path, precompiled from a
  source database (for a CQ, its canonical database): the fact order is
  fixed at compile time, per-element *occurrence signatures* turn the
  positional prefilter into pure index lookups against the target's
  :class:`~repro.data.database.DatabaseIndex`, a *zip schedule* records per
  fact slot which elements are already bound at that point, and per-fact
  *lookup slots* let the search enumerate only the target facts whose
  indexed position matches an already-bound element (the ``facts_at``
  buckets) — strictly fewer search-tree nodes than scanning the relation.
- :class:`YannakakisPlan` — the bounded-ghw path, compiled from a tree
  decomposition: the free variable is kept as the leading column of *every*
  bag relation, so a single bottom-up semijoin pass over hash-joined bag
  relations decides all candidate values at once, and the answer is the
  projection of the root onto the free column.  This removes the
  ``O(|dom|)`` outer loop of the per-candidate reference evaluator.  (A
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
:class:`~repro.cq.homomorphism.SearchCounters` as the direct search, plus
:class:`PlanCounters` for the structured path's materialization work.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cq.homomorphism import SearchCounters, _order_facts
from repro.cq.query import CQ
from repro.cq.terms import Variable
from repro.cq.vectorized import VectorizedProgram
from repro.data.database import Database
from repro.exceptions import DatabaseError, DecompositionError, QueryError
from repro.hypergraph.decomposition import TreeDecomposition

__all__ = [
    "PlanCounters",
    "HomomorphismProgram",
    "YannakakisPlan",
    "QueryPlan",
]

Element = Any
Assignment = Dict[Element, Element]
_Row = Tuple  # binding tuple over a bag's column order

#: Sentinel for "no value yet" in pattern extraction (``None`` is a legal
#: database element, so it cannot play that role).
_UNSET = object()


class PlanCounters:
    """Work tally of single-pass structured (Yannakakis) evaluation.

    ``evaluations`` counts plan executions; ``bag_relations`` counts bag
    relations materialized; ``bag_rows`` counts rows produced while
    materializing them; ``semijoins`` counts upward-pass semijoin steps.
    The per-candidate reference evaluator in
    :mod:`repro.cq.structured_evaluation` accepts the same counters, so
    benchmarks can compare the work shapes directly.
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
# Backtracking: precompiled homomorphism programs
# ----------------------------------------------------------------------


class HomomorphismProgram:
    """A compiled backtracking search for one source database.

    Compiled once per ``(source, seeded elements)`` pair and reusable
    against any target database.  ``seeded`` is the set of source elements
    that every ``fixed`` assignment passed to :meth:`run` will bind (for a
    CQ plan: the free variables) — the fact order and the zip schedule
    depend on it, so :meth:`run` rejects assignments over a different key
    set rather than silently searching with a stale schedule.
    """

    __slots__ = (
        "source",
        "seeded",
        "_signatures",
        "_relations",
        "_slots",
        "_lookups",
    )

    def __init__(
        self,
        source: Database,
        seeded: FrozenSet[Element],
        signatures: Tuple[Tuple[Element, Tuple[Tuple[str, int], ...]], ...],
        relations: Tuple[str, ...],
        slots: Tuple[Tuple[Tuple[Element, bool], ...], ...],
        lookups: Tuple[Optional[Tuple[int, Element]], ...],
    ) -> None:
        self.source = source
        self.seeded = seeded
        self._signatures = signatures
        self._relations = relations
        self._slots = slots
        self._lookups = lookups

    @classmethod
    def compile(
        cls, source: Database, seeded: Sequence[Element] = ()
    ) -> "HomomorphismProgram":
        """Analyze ``source`` once: signatures, fact order, zip schedule."""
        seeded_set = frozenset(seeded)

        # Per-element occurrence signature: every (relation, position) the
        # element occupies.  At run time the candidate set of the element
        # is the intersection of the target index's occurrence sets over
        # this signature — no rescan of either side.
        occurrence: Dict[Element, Set[Tuple[str, int]]] = {}
        for fact in source.facts:
            for position, element in enumerate(fact.arguments):
                occurrence.setdefault(element, set()).add(
                    (fact.relation, position)
                )
        signatures = tuple(
            (element, tuple(sorted(pairs)))
            for element, pairs in sorted(
                occurrence.items(), key=lambda item: repr(item[0])
            )
        )

        # The greedy connectivity order is computed once, seeded with the
        # elements every run-time assignment will have bound already.
        facts = _order_facts(source, set(seeded_set))

        # Zip schedule: per fact slot, (element, bound-before?) — True when
        # the element is seeded, bound by an earlier fact in the order, or
        # repeated from an earlier position of the same fact.  Lookup
        # slots: the first position whose element is bound before the fact
        # *starts*, usable to enumerate only matching target facts.
        bound: Set[Element] = set(seeded_set)
        relations: List[str] = []
        slots: List[Tuple[Tuple[Element, bool], ...]] = []
        lookups: List[Optional[Tuple[int, Element]]] = []
        for fact in facts:
            lookup: Optional[Tuple[int, Element]] = None
            for position, element in enumerate(fact.arguments):
                if lookup is None and element in bound:
                    lookup = (position, element)
            slot: List[Tuple[Element, bool]] = []
            seen_now: Set[Element] = set()
            for element in fact.arguments:
                slot.append((element, element in bound or element in seen_now))
                seen_now.add(element)
            bound |= seen_now
            relations.append(fact.relation)
            slots.append(tuple(slot))
            lookups.append(lookup)

        return cls(
            source,
            seeded_set,
            signatures,
            tuple(relations),
            tuple(slots),
            tuple(lookups),
        )

    # ------------------------------------------------------------------

    def _options(
        self, level: int, assignment: Assignment, index: Any
    ) -> Tuple:
        lookup = self._lookups[level]
        relation = self._relations[level]
        if lookup is not None:
            position, element = lookup
            return index.facts_at.get(
                (relation, position, assignment[element]), ()
            )
        return index.facts_by_relation.get(relation, ())

    def solutions(
        self,
        target: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        counters: Optional[SearchCounters] = None,
    ) -> Iterator[Assignment]:
        """Yield every homomorphism into ``target`` extending ``fixed``.

        ``fixed`` must bind exactly the seeded elements this program was
        compiled for (extra keys outside the source domain are carried
        through, as with :func:`~repro.cq.homomorphism.all_homomorphisms`).
        """
        assignment: Assignment = dict(fixed) if fixed else {}
        if not self.seeded <= set(assignment):
            raise DatabaseError(
                "homomorphism program compiled for seeded elements "
                f"{sorted(map(repr, self.seeded))}, but the assignment "
                f"binds {sorted(map(repr, assignment))}"
            )
        if counters is not None:
            counters.hom_checks += 1

        index = target.index
        positions = index.positions
        candidates: Dict[Element, Set[Element]] = {}
        for element, signature in self._signatures:
            allowed: Optional[Set[Element]] = None
            for key in signature:
                occupied = positions.get(key)
                if occupied is None:
                    return
                allowed = (
                    set(occupied) if allowed is None else allowed & occupied
                )
                if not allowed:
                    return
            assert allowed is not None
            candidates[element] = allowed
        for element, image in assignment.items():
            allowed = candidates.get(element)
            if allowed is not None and image not in allowed:
                return

        n_facts = len(self._slots)
        if n_facts == 0:
            yield dict(assignment)
            return
        # Same explicit-stack DFS shape as all_homomorphisms, except each
        # frame carries its (possibly index-pruned) option tuple.
        stack: List[List[Any]] = [
            [self._options(0, assignment, index), 0, []]
        ]
        while stack:
            frame = stack[-1]
            options, option_index, bound_here = frame
            for element in bound_here:
                del assignment[element]
            del bound_here[:]
            level = len(stack) - 1
            slot = self._slots[level]
            advanced = False
            while option_index < len(options):
                target_fact = options[option_index]
                option_index += 1
                if counters is not None:
                    counters.backtrack_nodes += 1
                newly_bound: List[Element] = []
                consistent = True
                for (element, bound_before), image in zip(
                    slot, target_fact.arguments
                ):
                    if bound_before:
                        if assignment[element] != image:
                            consistent = False
                            break
                    elif image not in candidates.get(element, ()):
                        consistent = False
                        break
                    else:
                        assignment[element] = image
                        newly_bound.append(element)
                if consistent:
                    if level + 1 == n_facts:
                        yield dict(assignment)
                        for element in newly_bound:
                            del assignment[element]
                        continue  # leaf: try the next option directly
                    frame[1] = option_index
                    frame[2] = newly_bound
                    stack.append(
                        [self._options(level + 1, assignment, index), 0, []]
                    )
                    advanced = True
                    break
                for element in newly_bound:
                    del assignment[element]
            if not advanced:
                stack.pop()

    def run(
        self,
        target: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        counters: Optional[SearchCounters] = None,
    ) -> bool:
        """Whether a homomorphism into ``target`` extending ``fixed`` exists."""
        for _ in self.solutions(target, fixed, counters):
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"HomomorphismProgram(facts={len(self._slots)}, "
            f"seeded={sorted(map(repr, self.seeded))})"
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
            for atom in query.atoms:
                if set(atom.arguments) == {free}:
                    continue
                if not all(
                    variable == free or variable in bag
                    for variable in atom.arguments
                ):
                    continue
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

        # Tree traversal: DFS from node 0, exactly as the reference
        # evaluator orders it, with parents precomputed.
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

    @classmethod
    def compile(
        cls, query: CQ, decomposition: TreeDecomposition
    ) -> "YannakakisPlan":
        return cls(query, decomposition)

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

    def structured_for(
        self, decomposition: TreeDecomposition
    ) -> YannakakisPlan:
        """Compile (uncached) a single-pass plan for an explicit decomposition."""
        return YannakakisPlan(self.query, decomposition)

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
