"""Cores of conjunctive queries.

The *core* of a CQ is its unique (up to isomorphism) smallest equivalent
subquery; it is the homomorphism-minimal retract of the canonical database
that fixes the free variables.  Cores let the enumeration of Section 4
deduplicate feature queries up to semantic equivalence, not just isomorphism.

:func:`core_of` works on the query's atom tuple and builds no database.  It
first *pins* the variables every endomorphism must fix; when all of them
are pinned the query is already a core.  Otherwise it drops one unpinned
variable at a time, searching for an endomorphism whose image avoids it.
The search takes the source atoms most-connected first (the greedy rule of
:func:`~repro.cq.homomorphism._connected_order`, seeded with the free
variables) and tries the image atoms of each relation in ``repr`` order.
A homomorphism search over the canonical database visits candidates in the
same order, so both retract onto the same subquery.  A query that is
already a core comes back as the input object itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.cq.homomorphism import _connected_order
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable

__all__ = ["core_of"]


def _pin(atoms: Sequence[Atom], pinned: Set[Variable]) -> Set[Variable]:
    """Grow ``pinned`` (variables every endomorphism fixes) to a fixpoint.

    An endomorphism maps an atom to an atom of its relation that agrees
    with it on its pinned arguments.  When the atom itself is the only
    such atom, it is mapped to itself, so all its arguments are pinned.
    """
    by_relation: Dict[str, List[Atom]] = {}
    for atom in atoms:
        by_relation.setdefault(atom.relation, []).append(atom)
    changed = True
    while changed:
        changed = False
        for atom in atoms:
            arguments = atom.arguments
            if pinned.issuperset(arguments):
                continue
            known = [
                (position, variable)
                for position, variable in enumerate(arguments)
                if variable in pinned
            ]
            if not any(
                other is not atom
                and all(other.arguments[i] == v for i, v in known)
                for other in by_relation[atom.relation]
            ):
                pinned.update(arguments)
                changed = True
    return pinned


def _retraction(
    order: Sequence[Atom],
    ranked: Sequence[Atom],
    dropped: Variable,
    pinned: Set[Variable],
) -> Optional[Dict[Variable, Variable]]:
    """The first endomorphism, in search order, whose image avoids ``dropped``.

    ``order`` holds the source atoms in the search order and ``ranked``
    the same atoms sorted by ``repr``, the order target atoms are tried
    in.  Pinned variables start bound to themselves: every endomorphism
    fixes them, so this prunes only branches that never complete.
    """
    targets: Dict[str, List[Atom]] = {}
    for atom in ranked:
        if dropped not in atom.arguments:
            targets.setdefault(atom.relation, []).append(atom)
    options: List[List[Atom]] = []
    for atom in order:
        choices = targets.get(atom.relation)
        if choices is None:
            return None
        options.append(choices)

    assignment: Dict[Variable, Variable] = {v: v for v in pinned}
    depth = len(order)
    next_option = [0] * depth
    bound: List[List[Variable]] = [[] for _ in range(depth)]
    level = 0
    while level >= 0:
        for variable in bound[level]:
            del assignment[variable]
        bound[level] = []
        arguments = order[level].arguments
        choices = options[level]
        index = next_option[level]
        while index < len(choices):
            image = choices[index].arguments
            index += 1
            newly_bound = []
            for variable, value in zip(arguments, image):
                current = assignment.get(variable)
                if current is None:
                    assignment[variable] = value
                    newly_bound.append(variable)
                elif current != value:
                    break
            else:
                if level + 1 == depth:
                    return assignment
                next_option[level] = index
                bound[level] = newly_bound
                level += 1
                next_option[level] = 0
                break
            for variable in newly_bound:
                del assignment[variable]
        else:
            level -= 1
    return None


def core_of(query: CQ) -> CQ:
    """The core of ``query`` (an equivalent CQ with a minimal set of atoms).

    Free variables are preserved verbatim; the result is equivalent to the
    input on every database.  A query that is already a core is returned
    as is (the same object).
    """
    free = set(query.free_variables)
    atoms = query.atoms
    variables = query.variables
    pinned = _pin(atoms, set(free))
    retracted = False
    while len(pinned) < len(variables):
        ranked = sorted(atoms, key=repr)
        order = _connected_order(ranked, free)
        for dropped in sorted(variables - pinned):
            mapping = _retraction(order, ranked, dropped, pinned)
            if mapping is not None:
                break
        else:
            break
        atoms = tuple(
            {
                Atom(atom.relation, tuple(mapping[v] for v in atom.arguments))
                for atom in atoms
            }
        )
        variables = frozenset(v for atom in atoms for v in atom.arguments)
        pinned = _pin(atoms, pinned)
        retracted = True
    if not retracted:
        return query
    return CQ(atoms, query.free_variables)
