"""Hypothesis strategies for databases, queries, and training databases."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data import Database, Fact, Labeling, TrainingDatabase

__all__ = [
    "elements",
    "edge_databases",
    "entity_databases",
    "mixed_databases",
    "mixed_facts",
    "stream_deltas",
    "delta_logs",
    "training_databases",
    "unary_feature_queries",
    "out_tree_queries",
    "parted_feature_queries",
    "general_queries",
    "repeated_relation_queries",
    "hom_check_instances",
    "parted_hom_check_instances",
    "pm_one_vectors",
]

elements = st.integers(min_value=0, max_value=5)


@st.composite
def edge_databases(draw, min_facts: int = 1, max_facts: int = 7):
    """Databases over a single binary relation E."""
    pairs = draw(
        st.lists(
            st.tuples(elements, elements),
            min_size=min_facts,
            max_size=max_facts,
        )
    )
    return Database(Fact("E", pair) for pair in pairs)


@st.composite
def entity_databases(draw, max_facts: int = 6):
    """Edge databases where a nonempty subset of the domain is entities."""
    database = draw(edge_databases(max_facts=max_facts))
    domain = sorted(database.domain)
    entity_subset = draw(
        st.lists(
            st.sampled_from(domain),
            min_size=1,
            max_size=len(domain),
            unique=True,
        )
    )
    facts = set(database.facts)
    for entity in entity_subset:
        facts.add(Fact("eta", (entity,)))
    return Database(facts)


@st.composite
def mixed_databases(draw, max_facts: int = 7):
    """Databases over the mixed schema {E/2, R/1, eta/1}."""
    facts = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("E"), elements, elements).map(
                    lambda t: Fact(t[0], (t[1], t[2]))
                ),
                st.tuples(st.just("R"), elements).map(
                    lambda t: Fact(t[0], (t[1],))
                ),
                st.tuples(st.just("eta"), elements).map(
                    lambda t: Fact(t[0], (t[1],))
                ),
            ),
            min_size=1,
            max_size=max_facts,
        )
    )
    return Database(facts)


#: One random fact over the mixed schema {E/2, R/1, eta/1}.
mixed_facts = st.one_of(
    st.tuples(elements, elements).map(lambda t: Fact("E", t)),
    elements.map(lambda e: Fact("R", (e,))),
    elements.map(lambda e: Fact("eta", (e,))),
)


@st.composite
def stream_deltas(draw, max_changes: int = 4):
    """A well-formed :class:`repro.stream.Delta` over the mixed schema.

    Facts drawn for both sides are removed from the add side, keeping the
    delta unambiguous (later-drawn removes win, mirroring ``then``).
    """
    from repro.stream import Delta

    adds = set(draw(st.lists(mixed_facts, max_size=max_changes)))
    removes = set(draw(st.lists(mixed_facts, max_size=max_changes)))
    return Delta(adds=adds - removes, removes=removes)


@st.composite
def delta_logs(draw, max_deltas: int = 5, max_changes: int = 4):
    """A short sequence of mixed-schema deltas."""
    return draw(
        st.lists(
            stream_deltas(max_changes=max_changes), max_size=max_deltas
        )
    )


@st.composite
def training_databases(draw, max_facts: int = 6):
    database = draw(entity_databases(max_facts=max_facts))
    labels = {
        entity: draw(st.sampled_from((1, -1)))
        for entity in sorted(database.entities())
    }
    return TrainingDatabase(database, Labeling(labels))


@st.composite
def unary_feature_queries(draw, max_atoms: int = 3):
    """Unary feature queries over {E/2, eta/1} with small bodies."""
    variables = [Variable("x")] + [
        Variable(f"y{i}") for i in range(max_atoms)
    ]
    n_atoms = draw(st.integers(min_value=0, max_value=max_atoms))
    atoms = []
    for _ in range(n_atoms):
        left = draw(st.sampled_from(variables))
        right = draw(st.sampled_from(variables))
        atoms.append(Atom("E", (left, right)))
    return CQ.feature(atoms, Variable("x"))


@st.composite
def out_tree_queries(draw, min_atoms: int = 2, max_atoms: int = 5):
    """Feature queries whose E atoms form a tree directed away from x.

    Each atom ``E(parent, child)`` hangs a new variable below an earlier
    one, so the body is acyclic (ghw 1) and, at k = 1, every atom gets a
    bag of its own: a child bag can cut its parent's rows.
    """
    variables = [Variable("x")]
    atoms = []
    for index in range(draw(st.integers(min_atoms, max_atoms))):
        parent = draw(st.sampled_from(variables))
        child = Variable(f"y{index}")
        variables.append(child)
        atoms.append(Atom("E", (parent, child)))
    return CQ.feature(atoms, Variable("x"))


@st.composite
def parted_feature_queries(draw, max_branches: int = 3, max_ground: int = 2):
    """Feature queries over {E/2, eta/1} whose body falls into parts.

    Branches hang below x on fresh variables, so two branches meet only at
    x.  Ground parts are E atoms over variables that x never reaches: a
    self-loop ``E(g, g)``, an edge, a 2-cycle or a 2-path, whose truth is
    one fact about the database (a drawn database often has no self-loop
    or 2-cycle).  Every query has two or more branches or a ground part.
    """
    x = Variable("x")
    atoms = []
    n_branches = draw(st.integers(min_value=1, max_value=max_branches))
    for branch in range(n_branches):
        y, z = Variable(f"y{branch}"), Variable(f"z{branch}")
        atoms.append(
            Atom("E", (x, y)) if draw(st.booleans()) else Atom("E", (y, x))
        )
        step = draw(st.sampled_from(("none", "out", "in", "loop")))
        if step == "out":
            atoms.append(Atom("E", (y, z)))
        elif step == "in":
            atoms.append(Atom("E", (z, y)))
        elif step == "loop":
            atoms.append(Atom("E", (y, y)))
    n_ground = draw(
        st.integers(
            min_value=0 if n_branches > 1 else 1, max_value=max_ground
        )
    )
    for part in range(n_ground):
        a, b, c = (Variable(f"g{part}{name}") for name in "abc")
        shape = draw(st.sampled_from(("loop", "edge", "two-cycle", "path")))
        if shape == "loop":
            atoms.append(Atom("E", (a, a)))
        elif shape == "edge":
            atoms.append(Atom("E", (a, b)))
        elif shape == "two-cycle":
            atoms += [Atom("E", (a, b)), Atom("E", (b, a))]
        else:
            atoms += [Atom("E", (a, b)), Atom("E", (b, c))]
    return CQ.feature(atoms, x)


@st.composite
def general_queries(draw, max_atoms: int = 3, max_free: int = 2):
    """General CQs over {E/2, R/1} with one or two free variables.

    Every free variable is forced into some atom (the CQ well-formedness
    invariant), so these exercise the full multi-free-variable evaluation
    path rather than only unary feature queries.
    """
    n_free = draw(st.integers(min_value=1, max_value=max_free))
    free = [Variable(f"x{i}") for i in range(n_free)]
    bound = [Variable(f"y{i}") for i in range(max_atoms)]
    variables = free + bound
    atoms = []
    for variable in free:
        other = draw(st.sampled_from(variables))
        if draw(st.booleans()):
            atoms.append(Atom("E", (variable, other)))
        else:
            atoms.append(Atom("R", (variable,)))
    extra = draw(st.integers(min_value=0, max_value=max_atoms - 1))
    for _ in range(extra):
        relation = draw(st.sampled_from(("E", "R")))
        if relation == "E":
            left = draw(st.sampled_from(variables))
            right = draw(st.sampled_from(variables))
            atoms.append(Atom("E", (left, right)))
        else:
            atoms.append(Atom("R", (draw(st.sampled_from(variables)),)))
    return CQ(atoms, tuple(free))


@st.composite
def repeated_relation_queries(
    draw, max_atoms: int = 7, max_bound: int = 9, max_free: int = 2
):
    """CQs over {E/2, R/1, T/3} with one or two free variables.

    Atoms draw their arguments from few variables, so relation symbols
    repeat and atoms repeat arguments (``E(y0, y0)``, ``T(x0, y1, x0)``):
    the queries whose cores are proper subqueries.  Up to ``max_bound``
    existential variables, past the 8 that brute-force canonical forms
    once allowed.
    """
    arities = {"E": 2, "R": 1, "T": 3}
    relations = sorted(arities)
    n_free = draw(st.integers(min_value=1, max_value=max_free))
    free = [Variable(f"x{i}") for i in range(n_free)]
    n_bound = draw(st.integers(min_value=1, max_value=max_bound))
    variables = free + [Variable(f"y{i}") for i in range(n_bound)]
    atoms = []
    for variable in free:
        relation = draw(st.sampled_from(relations))
        rest = [
            draw(st.sampled_from(variables))
            for _ in range(arities[relation] - 1)
        ]
        atoms.append(Atom(relation, (variable, *rest)))
    for _ in range(draw(st.integers(min_value=0, max_value=max_atoms))):
        relation = draw(st.sampled_from(relations))
        atoms.append(
            Atom(
                relation,
                tuple(
                    draw(st.sampled_from(variables))
                    for _ in range(arities[relation])
                ),
            )
        )
    return CQ(atoms, tuple(free))


@st.composite
def hom_check_instances(draw, max_facts: int = 6, max_fixed: int = 2):
    """A (source, target, fixed) triple for pointed hom-check testing.

    ``fixed`` is a (possibly empty) partial map from dom(source) into
    dom(target).
    """
    source = draw(mixed_databases(max_facts=max_facts))
    target = draw(mixed_databases(max_facts=max_facts))
    source_domain = sorted(source.domain)
    target_domain = sorted(target.domain)
    fixed = {}
    if source_domain and target_domain:
        keys = draw(
            st.lists(
                st.sampled_from(source_domain),
                max_size=max_fixed,
                unique=True,
            )
        )
        fixed = {
            key: draw(st.sampled_from(target_domain)) for key in keys
        }
    return source, target, fixed


@st.composite
def parted_hom_check_instances(
    draw, max_components: int = 3, max_facts: int = 4, max_fixed: int = 2
):
    """A (source, target, fixed) triple whose source has several components.

    The source is a disjoint union of 2 to ``max_components`` small mixed
    databases, each moved onto its own element range; ``fixed`` maps up to
    ``max_fixed`` source elements into the target, so some components are
    pointed and the rest ground.
    """
    n_components = draw(st.integers(min_value=2, max_value=max_components))
    facts = set()
    for component in range(n_components):
        part = draw(mixed_databases(max_facts=max_facts))
        offset = 10 * (component + 1)
        facts.update(
            Fact(fact.relation, tuple(offset + a for a in fact.arguments))
            for fact in part.facts
        )
    source = Database(facts)
    target = draw(mixed_databases())
    keys = draw(
        st.lists(
            st.sampled_from(sorted(source.domain)),
            max_size=max_fixed,
            unique=True,
        )
    )
    target_domain = sorted(target.domain)
    fixed = {key: draw(st.sampled_from(target_domain)) for key in keys}
    return source, target, fixed


@st.composite
def pm_one_vectors(draw, min_rows: int = 0, max_rows: int = 8):
    """A training collection of ±1 vectors with labels."""
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from((1, -1)),
                    min_size=width,
                    max_size=width,
                ),
                st.sampled_from((1, -1)),
            ),
            min_size=min_rows,
            max_size=max_rows,
        )
    )
    vectors = [tuple(vector) for vector, _ in rows]
    labels = [label for _, label in rows]
    return vectors, labels
