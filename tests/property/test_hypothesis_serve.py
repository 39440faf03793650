"""Property: serving the separator's support labels like the whole pair.

:class:`~repro.serve.InferenceService` evaluates only the features with a
nonzero weight.  For drawn request databases and several fitted models —
one whose support is a single feature of 1,224, one whose support is its
whole statistic, and one fitted on uniformly labeled data, whose support
is empty — a served labeling must equal the whole pair's classification
and the labels read off the frozen naive oracle over the artifact's whole
statistic, on both backends, and must label exactly ``η(D)``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.languages import BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.cq.engine import EvaluationEngine
from repro.cq.naive import naive_evaluate_unary
from repro.data import Database, Fact, Labeling, TrainingDatabase
from repro.serve import InferenceService, ModelArtifact
from repro.workloads.retail import retail_database

from tests.property.strategies import entity_databases

_SETTINGS = settings(max_examples=25, deadline=None)

BACKENDS = ("python", "numpy")


def _edge_training(label_of) -> TrainingDatabase:
    """Six entities over {E/2, eta/1}, labeled by ``label_of(entity)``."""
    edges = [(0, 1), (1, 2), (2, 2), (3, 0), (4, 5), (5, 3)]
    facts = [Fact("E", edge) for edge in edges]
    facts += [Fact("eta", (entity,)) for entity in range(6)]
    return TrainingDatabase(
        Database(facts),
        Labeling({entity: label_of(entity) for entity in range(6)}),
    )


#: name -> (training, language); fitted lazily, once per module.
MODELS = {
    "retail-cqm3": (
        lambda: retail_database(n_customers=6, seed=3), BoundedAtomsCQ(3)
    ),
    "edges-cqm2": (
        lambda: _edge_training(lambda e: 1 if e in (1, 2) else -1),
        BoundedAtomsCQ(2),
    ),
    "edges-ghw1": (
        lambda: _edge_training(lambda e: 1 if e in (1, 2) else -1),
        GhwClass(1),
    ),
    "uniform": (lambda: _edge_training(lambda e: 1), BoundedAtomsCQ(2)),
}

_fitted: Dict[str, ModelArtifact] = {}
_services: Dict[Tuple[str, str], Tuple[InferenceService, EvaluationEngine]] = {}


def _artifact(name: str) -> ModelArtifact:
    if name not in _fitted:
        training, language = MODELS[name]
        with FeatureEngineeringSession(training(), language) as session:
            assert session.separable
            _fitted[name] = session.export_artifact()
    return _fitted[name]


def _serving(name: str, backend: str):
    """One warm service and one whole-pair engine per model and backend.

    Both live across examples, so memo-answered requests are checked too.
    """
    key = (name, backend)
    if key not in _services:
        _services[key] = (
            InferenceService(_artifact(name), backend=backend),
            EvaluationEngine(backend=backend),
        )
    return _services[key]


def _support(artifact: ModelArtifact) -> int:
    return sum(1 for weight in artifact.classifier.weights if weight != 0)


_customers = st.sampled_from(("c0", "c1", "c2"))
_orders = st.sampled_from(("o0", "o1", "o2", "o3"))
_products = st.sampled_from(("p0", "p1", "p2", "p3"))


@st.composite
def retail_requests(draw):
    """Small databases over the retail schema; η(D) may be empty."""
    facts = draw(
        st.lists(
            st.one_of(
                _customers.map(lambda c: Fact("eta", (c,))),
                st.tuples(_customers, _orders).map(
                    lambda t: Fact("ordered", t)
                ),
                st.tuples(_orders, _products).map(
                    lambda t: Fact("contains", t)
                ),
                _products.map(lambda p: Fact("premium", (p,))),
            ),
            max_size=12,
        )
    )
    return Database(facts)


def _requests(name: str):
    return retail_requests() if name.startswith("retail") else entity_databases()


def _oracle(artifact: ModelArtifact, database: Database) -> Labeling:
    """Labels from the frozen naive oracle over the whole statistic."""
    answers = [
        naive_evaluate_unary(query, database) for query in artifact.statistic
    ]
    return Labeling(
        {
            entity: artifact.classifier.predict(
                tuple(1 if entity in answer else -1 for answer in answers)
            )
            for entity in database.entities()
        }
    )


def test_the_models_cover_empty_sparse_and_full_supports():
    supports = {
        name: (_support(_artifact(name)), _artifact(name).dimension)
        for name in MODELS
    }
    assert supports["uniform"][0] == 0
    support, dimension = supports["retail-cqm3"]
    assert 0 < support < dimension
    support, dimension = supports["edges-ghw1"]
    assert 0 < support == dimension


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(MODELS))
@_SETTINGS
@given(data=st.data())
def test_support_serving_is_exact(name, backend, data):
    artifact = _artifact(name)
    service, whole = _serving(name, backend)
    database = data.draw(_requests(name))
    served = service.predict(database)
    assert served == artifact.pair().classify(database, engine=whole)
    assert served == _oracle(artifact, database)
    assert set(served) == database.entities()
