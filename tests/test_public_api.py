"""Consistency checks for the public API surface."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.data",
    "repro.data.schema",
    "repro.data.database",
    "repro.data.labeling",
    "repro.data.product",
    "repro.data.io",
    "repro.cq",
    "repro.cq.terms",
    "repro.cq.query",
    "repro.cq.parser",
    "repro.cq.homomorphism",
    "repro.cq.evaluation",
    "repro.cq.plan",
    "repro.cq.containment",
    "repro.cq.core",
    "repro.cq.enumeration",
    "repro.hypergraph",
    "repro.covergame",
    "repro.linsep",
    "repro.core",
    "repro.fo",
    "repro.runtime",
    "repro.runtime.shard",
    "repro.runtime.executor",
    "repro.runtime.tasks",
    "repro.serve",
    "repro.serve.artifact",
    "repro.serve.service",
    "repro.serve.metrics",
    "repro.workloads",
    "repro.cli",
    "repro.exceptions",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_every_package_module_is_reachable():
    """No orphan modules: everything under repro/ imports cleanly."""
    prefix = repro.__name__ + "."
    found = []
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        module = importlib.import_module(info.name)
        found.append(info.name)
        assert module.__doc__, f"{info.name} lacks a module docstring"
    assert len(found) >= 30


def test_version_is_exposed():
    assert repro.__version__


def test_exceptions_hierarchy():
    from repro import exceptions

    for name in exceptions.__all__:
        error_class = getattr(exceptions, name)
        assert issubclass(error_class, Exception)
        if name != "ReproError":
            assert issubclass(error_class, exceptions.ReproError)
