"""Store test fixtures: a fresh content store and a tiny trained artifact."""

from __future__ import annotations

import errno
import os

import pytest

from repro.core.languages import BoundedAtomsCQ
from repro.core.pipeline import FeatureEngineeringSession
from repro.store import ContentStore
from repro.workloads.retail import retail_database


@pytest.fixture
def store(tmp_path) -> ContentStore:
    return ContentStore(str(tmp_path / "store"))


@pytest.fixture
def full_disk(store, monkeypatch) -> ContentStore:
    """``store``, opened, on a disk where every later fsync hits ENOSPC."""

    def fsync(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", fsync)
    return store


@pytest.fixture(scope="package")
def retail_training():
    return retail_database(n_customers=6, seed=3)


@pytest.fixture(scope="package")
def retail_artifact(retail_training):
    with FeatureEngineeringSession(
        retail_training, BoundedAtomsCQ(3)
    ) as session:
        assert session.separable
        yield session.export_artifact()
