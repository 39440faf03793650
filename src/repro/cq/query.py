"""Conjunctive queries and their canonical databases (paper, Section 2).

A CQ over a schema σ is a formula ``∃ȳ (R1(x̄1) ∧ ... ∧ Rn(x̄n))`` whose
atoms mention variables only (no constants).  The *canonical database* of a
CQ is the database whose facts are precisely the atoms, variables playing the
role of universe elements; evaluation is defined through homomorphisms from
the canonical database.

A *feature query* in the paper is a unary CQ ``q(x)`` that always contains
the entity atom ``η(x)``; :meth:`CQ.feature` enforces this convention.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cq.terms import Atom, Variable
from repro.data.database import Database, Fact
from repro.data.schema import ENTITY_SYMBOL, RelationSymbol, Schema
from repro.exceptions import QueryError

__all__ = ["CQ"]

#: The most variable orderings :meth:`CQ.canonical_form` tries: 8!, the
#: count for 8 existential variables in a single class.
_MAX_ORDERINGS = math.factorial(8)


class CQ:
    """An immutable conjunctive query without constants.

    Parameters
    ----------
    atoms:
        The atoms of the body; at least one.
    free_variables:
        The tuple ``x̄`` of answer variables.  Every free variable must occur
        in some atom.  Feature queries are the unary case.
    """

    __slots__ = (
        "_atoms",
        "_free",
        "_variables",
        "_canonical",
        "_hash",
        "_digest",
    )

    def __init__(
        self,
        atoms: Iterable[Atom],
        free_variables: Sequence[Variable],
    ) -> None:
        atom_tuple = tuple(sorted(set(atoms)))
        if not atom_tuple:
            raise QueryError("a CQ must have at least one atom")
        free = tuple(free_variables)
        if len(set(free)) != len(free):
            raise QueryError("free variables must be distinct")
        variables = frozenset(
            variable for atom in atom_tuple for variable in atom.arguments
        )
        for variable in free:
            if variable not in variables:
                raise QueryError(
                    f"free variable {variable} does not occur in any atom"
                )
        self._atoms = atom_tuple
        self._free = free
        self._variables = variables
        self._canonical: Optional[Database] = None
        self._hash: Optional[int] = None
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def feature(
        cls,
        atoms: Iterable[Atom],
        free_variable: Variable = Variable("x"),
        entity_symbol: str = ENTITY_SYMBOL,
    ) -> "CQ":
        """A unary feature query ``q(x)`` with the ``η(x)`` atom enforced."""
        atom_list = list(atoms)
        entity_atom = Atom(entity_symbol, (free_variable,))
        if entity_atom not in atom_list:
            atom_list.append(entity_atom)
        return cls(atom_list, (free_variable,))

    @classmethod
    def entity_only(
        cls,
        free_variable: Variable = Variable("x"),
        entity_symbol: str = ENTITY_SYMBOL,
    ) -> "CQ":
        """The trivial feature query ``q(x) := η(x)`` selecting all entities."""
        return cls.feature((), free_variable, entity_symbol)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return self._atoms

    @property
    def free_variables(self) -> Tuple[Variable, ...]:
        return self._free

    @property
    def free_variable(self) -> Variable:
        """The unique free variable of a unary CQ."""
        if len(self._free) != 1:
            raise QueryError(
                f"expected a unary CQ, got {len(self._free)} free variables"
            )
        return self._free[0]

    @property
    def variables(self) -> FrozenSet[Variable]:
        return self._variables

    @property
    def existential_variables(self) -> FrozenSet[Variable]:
        return self._variables - frozenset(self._free)

    @property
    def is_unary(self) -> bool:
        return len(self._free) == 1

    def atom_count(self, entity_symbol: str = ENTITY_SYMBOL) -> int:
        """Number of atoms, *not* counting the entity atom ``η(x)``.

        This matches the paper's convention for the class ``CQ[m]``.
        """
        entity_atoms = tuple(
            Atom(entity_symbol, (v,)) for v in self._free
        )
        return sum(1 for atom in self._atoms if atom not in entity_atoms)

    def max_variable_occurrences(
        self, entity_symbol: str = ENTITY_SYMBOL
    ) -> int:
        """Maximum occurrence count of any variable across non-entity atoms.

        This is the ``p`` of the class ``CQ[m, p]``.
        """
        entity_atoms = {Atom(entity_symbol, (v,)) for v in self._free}
        counts: Dict[Variable, int] = {}
        for atom in self._atoms:
            if atom in entity_atoms:
                continue
            for variable in atom.arguments:
                counts[variable] = counts.get(variable, 0) + 1
        return max(counts.values(), default=0)

    def mentioned_relations(self) -> FrozenSet[str]:
        return frozenset(atom.relation for atom in self._atoms)

    def inferred_schema(self) -> Schema:
        """The minimal schema over which this query is well-formed."""
        return Schema(
            RelationSymbol(atom.relation, atom.arity) for atom in self._atoms
        )

    # ------------------------------------------------------------------
    # Canonical database (Section 2)
    # ------------------------------------------------------------------

    @property
    def canonical_database(self) -> Database:
        """``D_q``: the atoms of q viewed as facts over the variables."""
        if self._canonical is None:
            self._canonical = Database(
                Fact(atom.relation, atom.arguments) for atom in self._atoms
            )
        return self._canonical

    # ------------------------------------------------------------------
    # Structural transformations
    # ------------------------------------------------------------------

    def rename_variables(
        self, mapping: Dict[Variable, Variable]
    ) -> "CQ":
        """Apply a variable renaming (must be injective on the variables)."""
        image = [mapping.get(v, v) for v in self._variables]
        if len(set(image)) != len(image):
            raise QueryError("variable renaming must be injective")
        return CQ(
            (
                Atom(
                    atom.relation,
                    tuple(mapping.get(v, v) for v in atom.arguments),
                )
                for atom in self._atoms
            ),
            tuple(mapping.get(v, v) for v in self._free),
        )

    def conjoin(self, other: "CQ") -> "CQ":
        """The conjunction of two CQs sharing their free variables.

        Existential variables of ``other`` are renamed apart automatically.
        Used in the proof of Lemma 5.4 (``q_e := ∧ q_e^{e'}``).
        """
        if self._free != other._free:
            raise QueryError(
                "conjoin requires identical free-variable tuples"
            )
        taken = {v.name for v in self._variables}
        renaming: Dict[Variable, Variable] = {}
        counter = itertools.count()
        for variable in sorted(other.existential_variables):
            if variable.name in taken:
                while True:
                    candidate = Variable(f"{variable.name}_{next(counter)}")
                    if candidate.name not in taken:
                        break
                renaming[variable] = candidate
                taken.add(candidate.name)
            else:
                taken.add(variable.name)
        other_renamed = other.rename_variables(renaming) if renaming else other
        return CQ(self._atoms + other_renamed.atoms, self._free)

    def _renamed_by_occurrence(self, prefix: str) -> "CQ":
        mapping: Dict[Variable, Variable] = {}
        for index, variable in enumerate(self._free):
            mapping[variable] = Variable(f"x{index}" if len(self._free) > 1
                                         else "x")
        counter = itertools.count()
        for atom in self._atoms:
            for variable in atom.arguments:
                if variable not in mapping:
                    mapping[variable] = Variable(f"{prefix}{next(counter)}")
        return self.rename_variables(mapping)

    def standardized(self, prefix: str = "v") -> "CQ":
        """Rename variables canonically: x (free) and v0, v1, ... (bound).

        Existential variables are numbered by first occurrence in the
        sorted atom order; because renaming can itself reorder the atoms,
        the renaming is iterated until it stabilizes (picking the
        lexicographically least member if the iteration cycles), which
        makes the operation idempotent.
        """
        seen: Dict["CQ", int] = {}
        current = self
        sequence = []
        while current not in seen:
            seen[current] = len(sequence)
            sequence.append(current)
            current = current._renamed_by_occurrence(prefix)
        cycle = sequence[seen[current]:]
        return min(cycle, key=str)

    # ------------------------------------------------------------------
    # Canonical form for isomorphism-level deduplication
    # ------------------------------------------------------------------

    def canonical_form(self) -> Tuple:
        """A hashable form invariant under renaming of existential variables.

        Two CQs have the same canonical form iff they are equal up to a
        renaming of existential variables (free variables held fixed).  The
        form is the least sorted atom tuple over namings that number the
        existential variables class by class.  A variable's class is its
        *occurrence signature*: the sorted (relation, position, pattern)
        triples of its occurrences, where an atom's pattern writes each
        argument as its free-variable index or as its first position in
        the atom.  A renaming preserves signatures, so only orderings
        within a class are tried: ∏ (class size)! of them, and one when
        every class is a singleton, as in most queries of the enumeration
        use case (Section 4).  Limited to 8! = 40,320 orderings, however
        many existential variables there are.
        """
        free_index = {v: -1 - i for i, v in enumerate(self._free)}
        occurrences: Dict[Variable, List[Tuple]] = {
            variable: [] for variable in self.existential_variables
        }
        for atom in self._atoms:
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
        members = [classes[key] for key in sorted(classes)]
        orderings = 1
        for group in members:
            orderings *= math.factorial(len(group))
        if orderings > _MAX_ORDERINGS:
            raise QueryError(
                "canonical_form is brute-force and limited to "
                f"{_MAX_ORDERINGS} orderings of existential variables, "
                f"got {orderings}"
            )

        def form_of(ordering: Iterable[Variable]) -> Tuple:
            naming = dict(free_index)
            for index, variable in enumerate(ordering):
                naming[variable] = index
            return tuple(
                sorted(
                    (atom.relation, tuple(naming[v] for v in atom.arguments))
                    for atom in self._atoms
                )
            )

        if orderings == 1:
            best = form_of(group[0] for group in members)
        else:
            best = min(
                form_of(itertools.chain.from_iterable(ordering))
                for ordering in itertools.product(
                    *(itertools.permutations(group) for group in members)
                )
            )
        return (len(self._free), best)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CQ):
            return NotImplemented
        return self._atoms == other._atoms and self._free == other._free

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._atoms, self._free))
        return self._hash

    def digest(self) -> str:
        """``sha256:<hex>`` content hash of the query, cached per instance.

        Hashes the canonical rule text (``str(self)``; atoms are sorted at
        construction), so a query and its parsed round-trip share a
        digest.  The query half of the warm-state store's memo keys
        (:mod:`repro.store`); scheme shared with artifact checksums
        via :mod:`repro.data.digest`.
        """
        if self._digest is None:
            from repro.data.digest import cq_digest

            self._digest = cq_digest(self)
        return self._digest

    def __getstate__(self) -> Tuple[Tuple[Atom, ...], Tuple[Variable, ...]]:
        """Pickle the atoms and free variables, not the lazy caches.

        The canonical database (itself holding an index) is rebuilt on
        demand after unpickling, keeping shard payloads
        (:mod:`repro.runtime`) lean.
        """
        return (self._atoms, self._free)

    def __setstate__(
        self, state: Tuple[Tuple[Atom, ...], Tuple[Variable, ...]]
    ) -> None:
        atoms, free = state
        self.__init__(atoms, free)  # type: ignore[misc]

    def __repr__(self) -> str:
        return f"CQ({self})"

    def __str__(self) -> str:
        head_inner = ", ".join(str(v) for v in self._free)
        body = ", ".join(str(atom) for atom in self._atoms)
        return f"q({head_inner}) :- {body}"

    def __len__(self) -> int:
        return len(self._atoms)
