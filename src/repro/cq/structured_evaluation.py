"""Decomposition-guided CQ evaluation (Yannakakis-style; paper, Section 5).

The paper's tractability results for GHW(k) rest on the fact that CQs of
bounded generalized hypertree width are evaluable in polynomial time [12]:
materialize one relation per bag of a width-k tree decomposition (a join of
≤ k atoms), run semijoin passes up and down the tree (Yannakakis'
algorithm), then read off the free-variable bindings.

This module implements that evaluator for *unary* CQs given a
:class:`~repro.hypergraph.decomposition.TreeDecomposition`.  It serves as a
second, independent evaluation path: the test suite differentially checks
it against the backtracking engine of :mod:`repro.cq.evaluation`, and it is
asymptotically polynomial for fixed k where backtracking is exponential.

Bags contain existential variables only (the paper's convention); the free
variable is handled by keeping it as an extra column in every bag relation
that constrains it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cq.plan import PlanCounters
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data.database import Database
from repro.exceptions import DecompositionError, QueryError
from repro.hypergraph.decomposition import TreeDecomposition

__all__ = ["evaluate_with_decomposition"]

Element = object
_Row = Tuple  # binding tuple over a bag's column order


def _atom_matches(
    atom: Atom, database: Database
) -> List[Dict[Variable, Element]]:
    """All bindings of an atom's variables against the database."""
    matches = []
    for fact in database.facts_of(atom.relation):
        binding: Dict[Variable, Element] = {}
        consistent = True
        for variable, element in zip(atom.arguments, fact.arguments):
            existing = binding.get(variable)
            if existing is not None and existing != element:
                consistent = False
                break
            binding[variable] = element
        if consistent:
            matches.append(binding)
    return matches


def _join(
    left_columns: Sequence[Variable],
    left_rows: Set[_Row],
    binding_list: List[Dict[Variable, Element]],
    add_variables: Sequence[Variable],
) -> Tuple[List[Variable], Set[_Row]]:
    """Join bag rows with an atom's bindings on shared variables."""
    columns = list(left_columns)
    new_columns = [v for v in add_variables if v not in columns]
    result: Set[_Row] = set()
    shared = [v for v in add_variables if v in columns]
    index: Dict[Tuple, List[Dict[Variable, Element]]] = {}
    for binding in binding_list:
        key = tuple(binding[v] for v in shared)
        index.setdefault(key, []).append(binding)
    position = {v: i for i, v in enumerate(columns)}
    for row in left_rows:
        key = tuple(row[position[v]] for v in shared)
        for binding in index.get(key, []):
            result.add(row + tuple(binding[v] for v in new_columns))
    return columns + new_columns, result


def _bag_relation(
    bag: FrozenSet[Variable],
    free: Variable,
    query: CQ,
    database: Database,
    free_value: Element,
) -> Tuple[List[Variable], Set[_Row]]:
    """Materialize all bindings of a bag's variables.

    Every atom whose existential variables lie inside the bag contributes a
    (semi)join constraint; atoms touching variables outside the bag are
    handled by the tree passes instead.  The free variable is fixed to
    ``free_value`` throughout.
    """
    relevant = [
        atom
        for atom in query.atoms
        if all(
            variable == free or variable in bag
            for variable in atom.arguments
        )
    ]
    columns: List[Variable] = []
    rows: Set[_Row] = {()}
    for atom in relevant:
        bindings = []
        for candidate in _atom_matches(atom, database):
            if candidate.get(free, free_value) != free_value:
                continue
            bindings.append({**candidate, free: free_value})
        atom_variables = [
            v for v in dict.fromkeys(atom.arguments) if v != free
        ]
        columns, rows = _join(columns, rows, bindings, atom_variables)
        if not rows:
            return columns, rows
    # Unconstrained bag variables range over the whole domain (repr-sorted
    # once per database on its index, not once per variable per call).
    missing = [v for v in sorted(bag) if v not in columns]
    if missing:
        domain = database.index.sorted_domain
        for variable in missing:
            rows = {
                row + (element,) for row in rows for element in domain
            }
            columns.append(variable)
    return columns, rows


def _semijoin(
    columns: Sequence[Variable],
    rows: Set[_Row],
    other_columns: Sequence[Variable],
    other_rows: Set[_Row],
) -> Set[_Row]:
    """Keep rows having a join partner in the other relation."""
    shared = [v for v in columns if v in other_columns]
    if not shared:
        return rows if other_rows else set()
    other_position = {v: i for i, v in enumerate(other_columns)}
    keys = {
        tuple(row[other_position[v]] for v in shared)
        for row in other_rows
    }
    position = {v: i for i, v in enumerate(columns)}
    return {
        row
        for row in rows
        if tuple(row[position[v]] for v in shared) in keys
    }


def evaluate_with_decomposition(
    query: CQ,
    decomposition: TreeDecomposition,
    database: Database,
    counters: Optional[PlanCounters] = None,
) -> FrozenSet[Element]:
    """``q(D)`` for a unary query via Yannakakis passes over the decomposition.

    Every atom must be covered by some bag (its existential variables inside
    the bag) — guaranteed by a valid decomposition.  Cost is polynomial in
    ``|D|^k`` for a width-k decomposition — times an extra ``O(|dom|)``
    factor from the per-candidate outer loop below, which re-materializes
    every bag relation once per candidate free value.  The compiled
    single-pass evaluator in :class:`repro.cq.plan.YannakakisPlan` removes
    that factor; this per-candidate path is kept as the independent
    reference it is differentially tested against.  Pass a
    :class:`~repro.cq.plan.PlanCounters` to tally bag materializations,
    rows produced, and semijoin steps for work comparisons.
    """
    if not query.is_unary:
        raise QueryError("structured evaluation requires a unary CQ")
    if decomposition.query != query:
        raise DecompositionError(
            "decomposition does not belong to this query"
        )
    free = query.free_variable

    # Candidate free values: elements matching every atom that mentions
    # only the free variable (e.g. the entity atom).
    candidates: Optional[Set[Element]] = None
    for atom in query.atoms:
        if set(atom.arguments) == {free}:
            values = {
                binding[free]
                for binding in _atom_matches(atom, database)
            }
            candidates = (
                values if candidates is None else candidates & values
            )
    if candidates is None:
        candidates = set(database.domain)

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

    if counters is not None:
        counters.evaluations += 1
    answers: Set[Element] = set()
    for value in sorted(candidates, key=repr):
        relations: Dict[int, Tuple[List[Variable], Set[_Row]]] = {}
        empty = False
        for node in range(n):
            columns, rows = _bag_relation(
                decomposition.bags[node], free, query, database, value
            )
            if counters is not None:
                counters.bag_relations += 1
                counters.bag_rows += len(rows)
            relations[node] = (columns, rows)
            if not rows:
                empty = True
                break
        if empty:
            continue
        # Upward semijoin pass (children into parents, leaves first).
        alive = True
        for node in reversed(order):
            parent_node = parent[node]
            if parent_node is None:
                continue
            p_columns, p_rows = relations[parent_node]
            c_columns, c_rows = relations[node]
            p_rows = _semijoin(p_columns, p_rows, c_columns, c_rows)
            if counters is not None:
                counters.semijoins += 1
            relations[parent_node] = (p_columns, p_rows)
            if not p_rows:
                alive = False
                break
        if alive and relations[order[0]][1]:
            answers.add(value)
    return frozenset(answers)
