"""Tests for the pure-Python simplex solver, the LP reference."""

from __future__ import annotations

import random

import pytest
from scipy.optimize import linprog

from repro.exceptions import SolverError
from repro.linsep.simplex import solve_lp


class TestSolveLp:
    def test_simple_maximization(self):
        # max x + y s.t. x + y <= 1, box [0, 1]^2 -> value 1.
        result = solve_lp(
            [1.0, 1.0],
            [[1.0, 1.0]],
            [1.0],
            [(0.0, 1.0), (0.0, 1.0)],
        )
        assert result.value == pytest.approx(1.0)

    def test_box_only(self):
        result = solve_lp([2.0, -3.0], [], [], [(-1.0, 1.0), (-1.0, 1.0)])
        assert result.value == pytest.approx(5.0)
        assert result.solution == pytest.approx((1.0, -1.0))

    def test_negative_rhs_needs_phase_one(self):
        # x >= 0.5 expressed as -x <= -0.5.
        result = solve_lp([-1.0], [[-1.0]], [-0.5], [(0.0, 1.0)])
        assert result.value == pytest.approx(-0.5)

    def test_infeasible(self):
        with pytest.raises(SolverError, match="infeasible"):
            solve_lp([1.0], [[1.0], [-1.0]], [0.2, -0.8], [(0.0, 1.0)])

    def test_dimension_mismatch(self):
        with pytest.raises(SolverError):
            solve_lp([1.0], [[1.0, 2.0]], [1.0], [(0.0, 1.0)])

    def test_bad_bounds(self):
        with pytest.raises(SolverError):
            solve_lp([1.0], [], [], [(1.0, 0.0)])

    def test_solution_feasible(self):
        result = solve_lp(
            [1.0, 2.0, -1.0],
            [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
            [2.0, 0.5],
            [(-1.0, 1.0)] * 3,
        )
        x = result.solution
        assert x[0] + x[1] + x[2] <= 2.0 + 1e-7
        assert x[0] - x[1] <= 0.5 + 1e-7
        for value in x:
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_random_agreement_with_scipy(self):
        rng = random.Random(11)
        for trial in range(15):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            c = [rng.uniform(-2, 2) for _ in range(n)]
            a = [
                [rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)
            ]
            b = [rng.uniform(0.5, 3) for _ in range(m)]
            bounds = [(-1.0, 1.0)] * n
            ours = solve_lp(c, a, b, bounds)
            theirs = linprog(
                [-ci for ci in c],
                A_ub=a or None,
                b_ub=b or None,
                bounds=bounds,
                method="highs",
            )
            assert theirs.success
            assert ours.value == pytest.approx(-theirs.fun, abs=1e-6)
