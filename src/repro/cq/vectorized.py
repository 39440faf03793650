"""Vectorized (numpy-bitset) CQ evaluation backend.

The pure-Python hot path decides one homomorphism at a time: per-check
candidate derivation over Python sets, then a backtracking search that
touches one target fact per node.  For the paper's workloads — a fixed
statistic evaluated over many databases, filling the (statistic ×
database) indicator matrix — almost all of that work is data-parallel
across target facts.  This module batches it:

- per-variable candidate sets are packed ``uint64`` bitset rows
  (:class:`~repro.data.bitset.BitsetIndex`), intersected with
  ``np.bitwise_and`` over whole words;
- the semijoin pruning pass tests entire fact-table columns against the
  candidate bitsets at once (one boolean mask per atom instead of one
  hash probe per search node), iterated to a fixpoint — the vectorized
  analogue of the Yannakakis upward pass;
- the final join runs in a precompiled greedy atom order as a sequence
  of sort-merge joins over dense integer keys, producing all satisfying
  assignments of one (query, database) pair in a handful of array ops.

A :class:`VectorizedProgram` is compiled once per query (or per hom-check
source database) and — like :class:`~repro.cq.plan.QueryPlan` — is
database-independent: compilation reads only the query structure, never a
target's facts.  Evaluation raises :class:`VectorizedFallback` whenever it
cannot proceed (an unsupported shape, or an intermediate join exceeding
``max_cells``); the engine catches it, records the reason, and reruns the
check on the pure-Python path, so results are never silently wrong — the
differential harness in ``tests/vectorized`` holds the two backends
bit-identical.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cq.query import CQ
from repro.data import bitset as bitset_backend
from repro.data.database import Database
from repro.exceptions import QueryError

__all__ = [
    "DEFAULT_MAX_CELLS",
    "VectorizedFallback",
    "VectorizedProgram",
]

Element = Any

#: Default cap on ``rows × columns`` of any intermediate join table.  A
#: join exceeding it raises :class:`VectorizedFallback` so a pathological
#: query degrades to the (memory-lean) backtracking path instead of
#: materializing a huge dense array.
DEFAULT_MAX_CELLS = 2_000_000

#: Safety cap on semijoin fixpoint rounds (the loop is monotone and
#: terminates on its own; the cap guards against future edits breaking
#: monotonicity, not against any known input).
_MAX_SWEEP_ROUNDS = 64


class VectorizedFallback(Exception):
    """The vectorized backend cannot evaluate this instance; reason in args.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: it never
    escapes to users.  The engine catches it, notes the reason in
    :meth:`~repro.cq.engine.EvaluationEngine.backend_info`, and falls back
    to the pure-Python path.
    """


class VectorizedProgram:
    """One query (or hom-check source), compiled for batched evaluation.

    ``variables`` are the source's variables (for a CQ: its variables,
    free first; for a database source: its domain elements) in a fixed
    deterministic order.  ``atoms`` hold, per source atom/fact, the
    relation name and the variable slot of each argument position.
    ``signatures`` give each variable's occurrence positions — the keys
    whose occurrence bitsets intersect to its initial candidate set.
    ``order`` is the greedy join order: start at the atom covering the
    most free variables, then repeatedly take the atom sharing the most
    variables with everything joined so far (ties by atom index), which
    keeps intermediate tables narrow on the tree-shaped feature queries
    the paper's languages generate.
    """

    __slots__ = ("free", "variables", "atoms", "signatures", "order")

    def __init__(
        self,
        free: Tuple[Element, ...],
        variables: Tuple[Element, ...],
        atoms: Tuple[Tuple[str, Tuple[int, ...]], ...],
    ) -> None:
        self.free = free
        self.variables = variables
        self.atoms = atoms

        signatures: List[Tuple[Tuple[str, int], ...]] = []
        occurrence: Dict[int, List[Tuple[str, int]]] = {
            slot: [] for slot in range(len(variables))
        }
        for relation, slots in atoms:
            for position, slot in enumerate(slots):
                occurrence[slot].append((relation, position))
        for slot in range(len(variables)):
            signatures.append(tuple(sorted(set(occurrence[slot]))))
        self.signatures: Tuple[Tuple[Tuple[str, int], ...], ...] = tuple(
            signatures
        )
        self.order = self._join_order()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def compile_query(cls, query: CQ) -> "VectorizedProgram":
        """Compile a CQ: variables are its variables, atoms its atoms.

        Raises :class:`~repro.exceptions.QueryError` for a free variable
        occurring in no atom (same contract as the engine's candidate
        derivation: no positional constraint means no sound candidate
        set).
        """
        free = tuple(query.free_variables)
        seen: Dict[Element, int] = {}
        variables: List[Element] = []
        for variable in free:
            if variable not in seen:
                seen[variable] = len(variables)
                variables.append(variable)
        atoms: List[Tuple[str, Tuple[int, ...]]] = []
        for atom in query.atoms:
            slots = []
            for argument in atom.arguments:
                if argument not in seen:
                    seen[argument] = len(variables)
                    variables.append(argument)
                slots.append(seen[argument])
            atoms.append((atom.relation, tuple(slots)))
        covered = {slot for _, slots in atoms for slot in slots}
        for variable in free:
            if seen[variable] not in covered:
                raise QueryError(
                    f"free variable {variable} does not occur in any atom"
                )
        return cls(free, tuple(variables), tuple(atoms))

    @classmethod
    def compile_database(cls, source: Database) -> "VectorizedProgram":
        """Compile a hom-check source: variables are its domain elements.

        The program decides ``source → target`` (extending a ``fixed``
        assignment) via :meth:`decide`; there are no free variables.
        """
        seen: Dict[Element, int] = {}
        variables: List[Element] = []
        atoms: List[Tuple[str, Tuple[int, ...]]] = []
        for fact in source:  # sorted iteration: deterministic compile
            slots = []
            for element in fact.arguments:
                if element not in seen:
                    seen[element] = len(variables)
                    variables.append(element)
                slots.append(seen[element])
            atoms.append((fact.relation, tuple(slots)))
        return cls((), tuple(variables), tuple(atoms))

    def _join_order(self) -> Tuple[int, ...]:
        if not self.atoms:
            return ()
        free_slots = {
            slot
            for slot in range(len(self.free))
            # self.free leads self.variables, so slots 0..len(free)-1.
        }
        remaining = list(range(len(self.atoms)))
        first = max(
            remaining,
            key=lambda a: (
                len(free_slots & set(self.atoms[a][1])),
                -a,
            ),
        )
        order = [first]
        remaining.remove(first)
        bound = set(self.atoms[first][1])
        while remaining:
            best = max(
                remaining,
                key=lambda a: (len(bound & set(self.atoms[a][1])), -a),
            )
            order.append(best)
            remaining.remove(best)
            bound |= set(self.atoms[best][1])
        return tuple(order)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _solve(
        self,
        database: Database,
        fixed: Optional[Mapping[Element, Element]],
        max_cells: int,
    ) -> Optional[Tuple[List[int], Any]]:
        """All satisfying assignments as ``(column slots, id table)``.

        Returns ``None`` when the instance is unsatisfiable.  Raises
        :class:`VectorizedFallback` when this backend cannot decide it.
        """
        if not self.atoms:
            # No constraints at all: the (empty or fixed-only) assignment
            # is always a homomorphism.
            return ([], np.zeros((1, 0), dtype=np.int64))

        bits = database.index.bitsets()
        n_elements = bits.n_elements

        # 1. Initial candidate bitsets: intersection of occurrence rows
        # over each variable's signature.
        candidates: List[Any] = []
        for signature in self.signatures:
            words: Optional[Any] = None
            for key in signature:
                occupied = bits.occurrence_bits.get(key)
                if occupied is None:
                    return None
                words = occupied.copy() if words is None else words & occupied
            if words is None:
                # Every variable occurs in an atom by construction, but a
                # slot can be unreferenced after compile_database of a
                # degenerate source; treat as unconstrained.
                words = np.full(
                    bits.n_words, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64
                )
                if n_elements % bitset_backend.WORD_BITS and bits.n_words:
                    tail = n_elements % bitset_backend.WORD_BITS
                    words[-1] = np.uint64((1 << tail) - 1)
            if not words.any():
                return None
            candidates.append(words)

        # 2. Seed the fixed assignment.  Keys outside the source's
        # variables are carried through unconstrained (matching the
        # backtracking search); an image outside the target domain or
        # outside the variable's candidates is immediately unsatisfiable.
        if fixed:
            slot_of = {
                variable: slot
                for slot, variable in enumerate(self.variables)
            }
            for variable, image in fixed.items():
                slot = slot_of.get(variable)
                if slot is None:
                    continue
                image_id = bits.element_id.get(image)
                if image_id is None:
                    return None
                candidates[slot] = candidates[slot] & bitset_backend.pack_ids(
                    [image_id], n_elements
                )
                if not candidates[slot].any():
                    return None

        # 3. Per-atom fact tables with within-atom equality applied once.
        tables: List[Any] = []
        for relation, slots in self.atoms:
            rows = bits.fact_tables.get(relation)
            if rows is None:
                return None
            if rows.shape[1] != len(slots):
                # The backtracking search has its own (lenient) behavior
                # for arity-mismatched atoms; defer to it.
                raise VectorizedFallback(
                    f"atom over {relation!r} has arity {len(slots)}, "
                    f"facts have arity {rows.shape[1]}"
                )
            first_at: Dict[int, int] = {}
            mask = np.ones(len(rows), dtype=bool)
            for position, slot in enumerate(slots):
                if slot in first_at:
                    mask &= rows[:, position] == rows[:, first_at[slot]]
                else:
                    first_at[slot] = position
            rows = rows[mask]
            if not len(rows):
                return None
            tables.append(rows)

        # 4. Semijoin sweep to a fixpoint: drop facts incompatible with
        # the candidate bitsets, shrink candidates to the values that
        # survive somewhere, repeat.  Monotone decreasing, so it
        # terminates; the round cap is a pure safety net.
        for _ in range(_MAX_SWEEP_ROUNDS):
            changed = False
            for index, (relation, slots) in enumerate(self.atoms):
                rows = tables[index]
                alive = np.ones(len(rows), dtype=bool)
                for position, slot in enumerate(slots):
                    alive &= bitset_backend.bit_test(
                        candidates[slot], rows[:, position]
                    )
                if not alive.all():
                    rows = rows[alive]
                    if not len(rows):
                        return None
                    tables[index] = rows
                    changed = True
                seen_slots = set()
                for position, slot in enumerate(slots):
                    if slot in seen_slots:
                        continue
                    seen_slots.add(slot)
                    surviving = bitset_backend.pack_ids(
                        np.unique(rows[:, position]), n_elements
                    )
                    narrowed = candidates[slot] & surviving
                    if not np.array_equal(narrowed, candidates[slot]):
                        if not narrowed.any():
                            return None
                        candidates[slot] = narrowed
                        changed = True
            if not changed:
                break

        # 5. Join the pruned tables in the precompiled order.  Tables are
        # (rows × distinct-slot) id matrices; joins run over dense keys
        # recompressed per column, so multi-column keys never overflow.
        def atom_columns(index: int) -> Tuple[List[int], Any]:
            _, slots = self.atoms[index]
            columns: List[int] = []
            keep: List[int] = []
            for position, slot in enumerate(slots):
                if slot not in columns:
                    columns.append(slot)
                    keep.append(position)
            return columns, tables[index][:, keep]

        columns, table = atom_columns(self.order[0])
        for index in self.order[1:]:
            right_columns, right = atom_columns(index)
            shared = [slot for slot in right_columns if slot in columns]
            fresh = [
                position
                for position, slot in enumerate(right_columns)
                if slot not in columns
            ]
            if shared:
                left_keys = np.zeros(len(table), dtype=np.int64)
                right_keys = np.zeros(len(right), dtype=np.int64)
                for slot in shared:
                    left_column = table[:, columns.index(slot)]
                    right_column = right[:, right_columns.index(slot)]
                    combined = np.concatenate(
                        [
                            left_keys * n_elements + left_column,
                            right_keys * n_elements + right_column,
                        ]
                    )
                    _, inverse = np.unique(combined, return_inverse=True)
                    left_keys = inverse[: len(table)].astype(np.int64)
                    right_keys = inverse[len(table):].astype(np.int64)
                right_order = np.argsort(right_keys, kind="stable")
                right_sorted = right_keys[right_order]
                starts = np.searchsorted(right_sorted, left_keys, "left")
                ends = np.searchsorted(right_sorted, left_keys, "right")
                counts = ends - starts
                total = int(counts.sum())
                width = len(columns) + len(fresh)
                if total * max(width, 1) > max_cells:
                    raise VectorizedFallback(
                        f"join of {total} x {width} cells exceeds "
                        f"max_cells={max_cells}"
                    )
                left_index = np.repeat(np.arange(len(table)), counts)
                group_starts = np.repeat(starts, counts)
                group_offsets = np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                right_index = right_order[group_starts + group_offsets]
            else:
                total = len(table) * len(right)
                width = len(columns) + len(fresh)
                if total * max(width, 1) > max_cells:
                    raise VectorizedFallback(
                        f"cross product of {total} x {width} cells "
                        f"exceeds max_cells={max_cells}"
                    )
                left_index = np.repeat(np.arange(len(table)), len(right))
                right_index = np.tile(np.arange(len(right)), len(table))
            table = np.concatenate(
                [table[left_index], right[right_index][:, fresh]], axis=1
            )
            columns.extend(
                slot for slot in right_columns if slot not in columns
            )
            if not len(table):
                return None
        return (columns, table)

    def evaluate(
        self,
        database: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> FrozenSet[Tuple[Element, ...]]:
        """``q(D)`` (extending ``fixed``): tuples over the free variables."""
        solved = self._solve(database, fixed, max_cells)
        if solved is None:
            return frozenset()
        columns, table = solved
        if not len(table):
            return frozenset()
        if not self.free:
            return frozenset({()})
        free_slots = list(range(len(self.free)))
        projection = table[:, [columns.index(slot) for slot in free_slots]]
        rows = np.unique(projection, axis=0)
        elements = database.index.bitsets().elements
        return frozenset(
            tuple(elements[value] for value in row) for row in rows
        )

    def decide(
        self,
        database: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> bool:
        """Whether a homomorphism into ``database`` extending ``fixed`` exists."""
        solved = self._solve(database, fixed, max_cells)
        return solved is not None and len(solved[1]) > 0

    def __repr__(self) -> str:
        return (
            f"VectorizedProgram(variables={len(self.variables)}, "
            f"atoms={len(self.atoms)}, free={len(self.free)})"
        )
