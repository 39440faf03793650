"""Tests for LP-based separability, including a reference-solver check."""

from __future__ import annotations

import itertools

import pytest

from repro.exceptions import SeparabilityError
from repro.linsep.lp import (
    _margin_program,
    find_separator,
    is_linearly_separable,
    separation_margin,
)
from repro.linsep.simplex import solve_lp
from repro.linsep.sparse import find_sparse_separator

AND_VECTORS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
AND_LABELS = [1, -1, -1, -1]
XOR_LABELS = [1, -1, -1, 1]


class TestIsLinearlySeparable:
    def test_and_is_separable(self):
        assert is_linearly_separable(AND_VECTORS, AND_LABELS)

    def test_xor_is_not(self):
        assert not is_linearly_separable(AND_VECTORS, XOR_LABELS)

    def test_duplicate_conflicting_vectors(self):
        assert not is_linearly_separable([(1,), (1,)], [1, -1])

    def test_all_same_label(self):
        assert is_linearly_separable(AND_VECTORS, [1, 1, 1, 1])
        assert is_linearly_separable(AND_VECTORS, [-1, -1, -1, -1])

    def test_empty_collection(self):
        assert is_linearly_separable([], [])

    def test_single_example(self):
        assert is_linearly_separable([(1, -1)], [1])
        assert is_linearly_separable([(1, -1)], [-1])

    def test_all_boolean_functions_of_two_variables(self):
        # Of the 16 boolean functions on 2 inputs, exactly 14 are linearly
        # separable (all but XOR and XNOR).
        separable = sum(
            1
            for labels in itertools.product((1, -1), repeat=4)
            if is_linearly_separable(AND_VECTORS, list(labels))
        )
        assert separable == 14

    def test_length_mismatch(self):
        with pytest.raises(SeparabilityError):
            is_linearly_separable([(1,)], [1, -1])

    def test_ragged_vectors(self):
        with pytest.raises(SeparabilityError):
            is_linearly_separable([(1,), (1, 1)], [1, -1])

    def test_bad_labels(self):
        with pytest.raises(SeparabilityError):
            is_linearly_separable([(1,)], [0])


class TestBackends:
    @pytest.mark.parametrize(
        "labels",
        list(itertools.product((1, -1), repeat=4)),
    )
    def test_scipy_and_simplex_agree(self, labels):
        scipy_margin = separation_margin(AND_VECTORS, list(labels))
        simplex_margin = solve_lp(
            *_margin_program(AND_VECTORS, list(labels))
        ).value
        assert (scipy_margin > 1e-7) == (simplex_margin > 1e-7)
        assert scipy_margin == pytest.approx(simplex_margin, abs=1e-6)


class TestFindSeparator:
    def test_returns_exact_separator(self):
        classifier = find_separator(AND_VECTORS, AND_LABELS)
        assert classifier is not None
        assert classifier.separates(AND_VECTORS, AND_LABELS)

    def test_weights_are_integral(self):
        classifier = find_separator(AND_VECTORS, AND_LABELS)
        assert all(w == int(w) for w in classifier.weights)
        assert classifier.threshold == int(classifier.threshold)

    def test_none_for_xor(self):
        assert find_separator(AND_VECTORS, XOR_LABELS) is None

    def test_constant_cases(self):
        classifier = find_separator(AND_VECTORS, [1, 1, 1, 1])
        assert classifier.separates(AND_VECTORS, [1, 1, 1, 1])
        classifier = find_separator(AND_VECTORS, [-1] * 4)
        assert classifier.separates(AND_VECTORS, [-1] * 4)

    def test_empty(self):
        assert find_separator([], []) is not None

    def test_higher_dimensional(self):
        # Majority of 3.
        vectors = list(itertools.product((1, -1), repeat=3))
        labels = [1 if sum(v) > 0 else -1 for v in vectors]
        classifier = find_separator(vectors, labels)
        assert classifier is not None
        assert classifier.separates(vectors, labels)


@pytest.mark.parametrize(
    "vectors, labels",
    [
        ([], [1]),
        ([(1,), (1,)], [1]),
        ([(1,), (1,)], [-1, -1, -1]),
        ([(1,), (1, 1)], [1, 1]),
    ],
)
@pytest.mark.parametrize("separator", [find_separator, find_sparse_separator])
def test_malformed_uniform_collections_are_rejected(
    separator, vectors, labels
):
    # Uniform labels take the constant-classifier shortcut, which must not
    # skip validation.
    with pytest.raises(SeparabilityError):
        separator(vectors, labels)
