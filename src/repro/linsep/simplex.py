"""A dependency-free dense two-phase simplex solver.

Solves::

    maximize    c · x
    subject to  A x ≤ b
                lo ≤ x ≤ hi   (finite bounds)

The tests check the separability LP's HiGHS optimum (SciPy) against this
solver on the same program.  Bland's rule makes cycling impossible; the
implementation is tableau-based and intended for the small dense programs
produced by this library (tens of variables and constraints), not for
production-scale LP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.exceptions import SolverError

__all__ = ["SimplexResult", "solve_lp"]

_EPSILON = 1e-9


class SimplexResult:
    """Outcome of :func:`solve_lp`: optimal value and a maximizer."""

    __slots__ = ("value", "solution")

    def __init__(self, value: float, solution: Tuple[float, ...]) -> None:
        self.value = value
        self.solution = solution

    def __repr__(self) -> str:
        return f"SimplexResult(value={self.value!r})"


def _pivot(
    tableau: List[List[float]], basis: List[int], row: int, col: int
) -> None:
    pivot_value = tableau[row][col]
    tableau[row] = [entry / pivot_value for entry in tableau[row]]
    for other in range(len(tableau)):
        if other != row and abs(tableau[other][col]) > 0:
            factor = tableau[other][col]
            tableau[other] = [
                entry - factor * pivot_entry
                for entry, pivot_entry in zip(tableau[other], tableau[row])
            ]
    basis[row] = col


def _run_simplex(
    tableau: List[List[float]],
    basis: List[int],
    allowed_columns: int,
) -> None:
    """Optimize the tableau in place (objective in the last row).

    Bland's anti-cycling rule: enter the lowest-index improving column,
    leave by the lowest-index minimal ratio row.
    """
    rows = len(tableau) - 1
    while True:
        objective = tableau[-1]
        enter = -1
        for col in range(allowed_columns):
            if objective[col] < -_EPSILON:
                enter = col
                break
        if enter < 0:
            return
        leave = -1
        best_ratio = float("inf")
        for row in range(rows):
            coefficient = tableau[row][enter]
            if coefficient > _EPSILON:
                ratio = tableau[row][-1] / coefficient
                if (
                    ratio < best_ratio - _EPSILON
                    or (
                        abs(ratio - best_ratio) <= _EPSILON
                        and (leave < 0 or basis[row] < basis[leave])
                    )
                ):
                    best_ratio = ratio
                    leave = row
        if leave < 0:
            raise SolverError("LP is unbounded")
        _pivot(tableau, basis, leave, enter)


def solve_lp(
    c: Sequence[float],
    a_ub: Sequence[Sequence[float]],
    b_ub: Sequence[float],
    bounds: Sequence[Tuple[float, float]],
) -> SimplexResult:
    """Maximize ``c·x`` subject to ``A x ≤ b`` and finite box bounds.

    Raises :class:`~repro.exceptions.SolverError` if infeasible or unbounded
    (the latter cannot happen with finite bounds, but is guarded anyway).
    """
    n = len(c)
    if any(len(row) != n for row in a_ub):
        raise SolverError("constraint matrix width does not match c")
    if len(a_ub) != len(b_ub):
        raise SolverError("constraint matrix/right-hand side mismatch")
    for low, high in bounds:
        if low > high:
            raise SolverError("invalid bound: lo > hi")

    # Shift to u = x - lo ≥ 0 and add upper-bound rows u_j ≤ hi_j - lo_j.
    lows = [low for low, _ in bounds]
    rows: List[List[float]] = []
    rhs: List[float] = []
    for row, beta in zip(a_ub, b_ub):
        rows.append(list(row))
        rhs.append(beta - sum(r * l for r, l in zip(row, lows)))
    for j, (low, high) in enumerate(bounds):
        bound_row = [0.0] * n
        bound_row[j] = 1.0
        rows.append(bound_row)
        rhs.append(high - low)

    m = len(rows)
    # Normalize rows to nonnegative right-hand sides.
    surplus_rows = []
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-entry for entry in rows[i]]
            rhs[i] = -rhs[i]
            surplus_rows.append(i)

    needs_artificial = set(surplus_rows)
    slack_count = m
    artificial_count = len(needs_artificial)
    total = n + slack_count + artificial_count

    tableau: List[List[float]] = []
    basis: List[int] = []
    artificial_index = n + slack_count
    artificial_of = {}
    for i in range(m):
        row = rows[i] + [0.0] * (slack_count + artificial_count) + [rhs[i]]
        slack_sign = -1.0 if i in needs_artificial else 1.0
        row[n + i] = slack_sign
        if i in needs_artificial:
            row[artificial_index] = 1.0
            artificial_of[i] = artificial_index
            basis.append(artificial_index)
            artificial_index += 1
        else:
            basis.append(n + i)
        tableau.append(row)

    if needs_artificial:
        # Phase 1: minimize the sum of artificial variables.  The objective
        # row holds reduced costs: cost 1 on each artificial column, then
        # reduced by the rows whose basic variable is artificial.
        phase1 = [0.0] * (total + 1)
        for col in range(n + slack_count, total):
            phase1[col] = 1.0
        for i in needs_artificial:
            for col in range(total + 1):
                phase1[col] -= tableau[i][col]
        tableau.append(phase1)
        _run_simplex(tableau, basis, total)
        if tableau[-1][-1] < -1e-7:
            raise SolverError("LP is infeasible")
        tableau.pop()
        # Drive any artificial variable still in the basis out of it.
        for row_index, basic in enumerate(basis):
            if basic >= n + slack_count:
                for col in range(n + slack_count):
                    if abs(tableau[row_index][col]) > _EPSILON:
                        _pivot(tableau, basis, row_index, col)
                        break

    # Phase 2 objective: minimize -c·u (tableau convention), reduced by basis.
    objective = [-float(ci) for ci in c] + [0.0] * (
        slack_count + artificial_count
    ) + [0.0]
    for row_index, basic in enumerate(basis):
        coefficient = objective[basic]
        if abs(coefficient) > _EPSILON:
            objective = [
                entry - coefficient * row_entry
                for entry, row_entry in zip(objective, tableau[row_index])
            ]
    tableau.append(objective)
    _run_simplex(tableau, basis, n + slack_count)

    values = [0.0] * total
    for row_index, basic in enumerate(basis):
        values[basic] = tableau[row_index][-1]
    solution = tuple(values[j] + lows[j] for j in range(n))
    objective_value = sum(ci * xi for ci, xi in zip(c, solution))
    return SimplexResult(objective_value, solution)
