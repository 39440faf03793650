"""Property-based tests for linear separability."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linsep.approx import min_errors_exact, min_errors_greedy
from repro.linsep.lp import (
    _margin_program,
    find_separator,
    is_linearly_separable,
    separation_margin,
)
from repro.linsep.simplex import solve_lp

from tests.property.strategies import pm_one_vectors

_SETTINGS = settings(max_examples=30, deadline=None)


class TestSeparabilityProperties:
    @_SETTINGS
    @given(pm_one_vectors())
    def test_find_separator_iff_separable(self, collection):
        vectors, labels = collection
        separable = is_linearly_separable(vectors, labels)
        classifier = find_separator(vectors, labels)
        assert (classifier is not None) == separable
        if classifier is not None:
            assert classifier.separates(vectors, labels)

    @_SETTINGS
    @given(pm_one_vectors(min_rows=1))
    def test_subset_of_separable_is_separable(self, collection):
        vectors, labels = collection
        if is_linearly_separable(vectors, labels):
            assert is_linearly_separable(vectors[1:], labels[1:])

    @_SETTINGS
    @given(pm_one_vectors(min_rows=1))
    def test_backends_agree(self, collection):
        vectors, labels = collection
        scipy_margin = separation_margin(vectors, labels)
        simplex_margin = solve_lp(*_margin_program(vectors, labels)).value
        assert (scipy_margin > 1e-7) == (simplex_margin > 1e-7)

    @_SETTINGS
    @given(pm_one_vectors())
    def test_label_negation_preserves_separability(self, collection):
        vectors, labels = collection
        negated = [-label for label in labels]
        assert is_linearly_separable(
            vectors, labels
        ) == is_linearly_separable(vectors, negated)


class TestMinErrorsProperties:
    @_SETTINGS
    @given(pm_one_vectors(max_rows=7))
    def test_exact_below_greedy(self, collection):
        vectors, labels = collection
        exact = min_errors_exact(vectors, labels)
        greedy = min_errors_greedy(vectors, labels)
        assert exact.errors <= greedy.errors

    @_SETTINGS
    @given(pm_one_vectors(max_rows=7))
    def test_zero_errors_iff_separable(self, collection):
        vectors, labels = collection
        exact = min_errors_exact(vectors, labels)
        assert (exact.errors == 0) == is_linearly_separable(
            vectors, labels
        )

    @_SETTINGS
    @given(pm_one_vectors(max_rows=7))
    def test_witness_consistency(self, collection):
        vectors, labels = collection
        exact = min_errors_exact(vectors, labels)
        assert exact.classifier.errors(vectors, labels) == exact.errors
        assert len(exact.misclassified) == exact.errors

    @_SETTINGS
    @given(pm_one_vectors(max_rows=6))
    def test_flipping_witness_makes_separable(self, collection):
        vectors, labels = collection
        exact = min_errors_exact(vectors, labels)
        flipped = [
            -label if index in exact.misclassified else label
            for index, label in enumerate(labels)
        ]
        assert is_linearly_separable(vectors, flipped)
