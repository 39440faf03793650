"""Tests for the approx module's edge paths."""

from __future__ import annotations

import pytest

from repro.linsep.approx import min_errors_greedy


class TestValidationPaths:
    def test_bad_labels(self):
        from repro.exceptions import SeparabilityError

        with pytest.raises(SeparabilityError):
            min_errors_greedy([(1,)], [2])

    def test_ragged_vectors(self):
        from repro.exceptions import SeparabilityError

        with pytest.raises(SeparabilityError):
            min_errors_greedy([(1,), (1, 1)], [1, -1])
