"""Frozen reference implementations of cores and canonical forms.

Test-only differential oracles for :func:`repro.cq.core.core_of` and
:meth:`repro.cq.query.CQ.canonical_form`, written the direct way:

- :func:`reference_core_of` searches for retractions on the canonical
  database, one restricted copy per dropped element, with the frozen
  search of :mod:`repro.cq.naive`;
- :func:`reference_canonical_form` tries every ordering within the
  occurrence-signature classes, limited to 8 existential variables.

The library's versions must agree with these exactly: the same core atoms
(not just an isomorphic core) and the same form wherever the reference is
defined, since enumeration output depends on both.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.cq.naive import naive_all_homomorphisms
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data.database import Database, Fact
from repro.exceptions import QueryError

__all__ = ["reference_core_of", "reference_canonical_form"]


def _proper_retraction(
    canonical: Database, fixed: Dict[Variable, Variable]
) -> Optional[Dict[Variable, Variable]]:
    for dropped in sorted(canonical.domain):
        if dropped in fixed:
            continue
        target = canonical.restrict_to_elements(canonical.domain - {dropped})
        for mapping in naive_all_homomorphisms(canonical, target, fixed):
            return mapping
    return None


def reference_core_of(query: CQ) -> CQ:
    """The core, by retraction search over canonical databases."""
    fixed = {variable: variable for variable in query.free_variables}
    canonical = query.canonical_database
    while True:
        retraction = _proper_retraction(canonical, fixed)
        if retraction is None:
            break
        canonical = Database(
            Fact(fact.relation, tuple(retraction[a] for a in fact.arguments))
            for fact in canonical.facts
        )
    atoms = tuple(
        Atom(fact.relation, fact.arguments) for fact in canonical.facts
    )
    return CQ(atoms, query.free_variables)


def reference_canonical_form(query: CQ) -> Tuple:
    """The canonical form over every within-class ordering.

    Raises :class:`~repro.exceptions.QueryError` past 8 existential
    variables.
    """
    free_index = {v: -1 - i for i, v in enumerate(query.free_variables)}
    existentials = query.existential_variables
    if len(existentials) > 8:
        raise QueryError(
            "reference canonical form limited to 8 existential variables"
        )
    occurrences: Dict[Variable, List[Tuple]] = {
        variable: [] for variable in existentials
    }
    for atom in query.atoms:
        arguments = atom.arguments
        pattern = tuple(
            free_index.get(v, arguments.index(v)) for v in arguments
        )
        for position, variable in enumerate(arguments):
            if variable in occurrences:
                occurrences[variable].append(
                    (atom.relation, position, pattern)
                )
    classes: Dict[Tuple, List[Variable]] = {}
    for variable, triples in occurrences.items():
        classes.setdefault(tuple(sorted(triples)), []).append(variable)
    orderings = itertools.product(
        *(itertools.permutations(classes[key]) for key in sorted(classes))
    )
    best: Optional[Tuple] = None
    for ordering in orderings:
        naming = dict(free_index)
        for index, variable in enumerate(
            itertools.chain.from_iterable(ordering)
        ):
            naming[variable] = index
        form = tuple(
            sorted(
                (atom.relation, tuple(naming[v] for v in atom.arguments))
                for atom in query.atoms
            )
        )
        if best is None or form < best:
            best = form
    assert best is not None
    return (len(query.free_variables), best)
