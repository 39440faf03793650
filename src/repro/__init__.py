"""repro: reproduction of "Regularizing Conjunctive Features for Classification".

The public API re-exports the most commonly used names; subpackages hold the
full surface:

- :mod:`repro.data` — schemas, databases, labelings, products.
- :mod:`repro.cq` — conjunctive queries: evaluation, containment, enumeration.
- :mod:`repro.hypergraph` — tree decompositions and generalized hypertree width.
- :mod:`repro.covergame` — the existential k-cover game (the ``→_k`` preorder).
- :mod:`repro.linsep` — linear classifiers and (approximate) linear separability.
- :mod:`repro.core` — the paper's separability / generation / classification algorithms.
- :mod:`repro.fo` — first-order feature languages (Section 8).
- :mod:`repro.workloads` — synthetic data generators and hard-instance families.
- :mod:`repro.runtime` — sharded parallel execution across worker processes.
- :mod:`repro.serve` — pickle-free model artifacts and batched inference serving.
- :mod:`repro.stream` — deltas, evolving databases, incremental classification.
- :mod:`repro.gateway` — asyncio HTTP serving tier with batching and a registry.
- :mod:`repro.store` — content-addressed warm-state persistence (memoized
  answers, published models) for hot process restarts.
"""

from repro.cq import CQ, Atom, Variable, parse_cq
from repro.data import (
    Database,
    DatabaseBuilder,
    EntitySchema,
    Fact,
    Labeling,
    Schema,
    TrainingDatabase,
)
from repro.core import (
    GhwClassifier,
    SeparatingPair,
    Statistic,
    cqm_approx_separability,
    cqm_separability,
    generate_ghw_statistic,
    ghw_approx_separable,
    ghw_classify,
    ghw_separable,
)

__version__ = "1.0.0"

__all__ = [
    "CQ",
    "Atom",
    "Variable",
    "parse_cq",
    "Database",
    "DatabaseBuilder",
    "Fact",
    "Labeling",
    "Schema",
    "EntitySchema",
    "TrainingDatabase",
    "Statistic",
    "SeparatingPair",
    "GhwClassifier",
    "cqm_separability",
    "cqm_approx_separability",
    "ghw_separable",
    "ghw_classify",
    "ghw_approx_separable",
    "generate_ghw_statistic",
    "__version__",
]
