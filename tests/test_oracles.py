"""Differential tests against HiGHS, through ``scipy.optimize.linprog``.

HiGHS is an independent LP solver and serves here only as a test oracle;
the package itself never imports scipy.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from polyrad import LinearProgram, norm_membership_P, solve_lp  # noqa: E402
from polyrad import simplex  # noqa: E402
from polyrad.simplex import INFEASIBLE, OPTIMAL  # noqa: E402

INF = float("inf")

# Nonnegative entries from 1e-10 to 1, with exact zeros.
entries = st.one_of(st.just(0.0), st.floats(1e-10, 1.0))


@st.composite
def vertices_and_point(draw):
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    V = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                               min_size=k, max_size=k)))
    z = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    assume(np.any(z > 0.0))
    return V, z


def highs_order_ideal(V, z):
    """max t subject to t z <= V^T w, sum w <= 1, w >= 0, the program the
    covering form replaces, solved by HiGHS at its tightest tolerances.

    The drawn entries make ``t`` range from 1e-10 to 1e10, out of reach of
    HiGHS's absolute tolerances, so the program is solved for ``tau = t /
    t_up``, where ``t_up`` is the least ``max_x x_i / z_i`` over positive
    ``z_i``: it bounds ``t`` from above, and uniform weights reach ``t_up
    / |V|``.  Each row is divided by its largest entry, and a row with
    ``z_i = 0`` holds for every ``w`` and is left out.

    Returns HiGHS's value and a certified upper bound from its duals: for
    any ``y >= 0`` with ``z . y > 0``, every feasible ``(t, w)`` has
    ``t z . y <= sum_x w_x (x . y) <= max_x x . y``.
    """
    k = V.shape[0]
    rows = np.nonzero(z > 0.0)[0]
    peak = V[:, rows].max(axis=0)
    t_up = float(np.min(peak / z[rows]))
    A = np.zeros((rows.size + 1, k + 1))
    A[:rows.size, 0] = t_up * z[rows] / peak
    A[:rows.size, 1:] = -V[:, rows].T / peak[:, None]
    A[rows.size, 1:] = 1.0
    b = np.zeros(rows.size + 1)
    b[rows.size] = 1.0
    objective = np.zeros(k + 1)
    objective[0] = -1.0
    res = linprog(objective, A_ub=A, b_ub=b, bounds=[(0.0, None)] * (k + 1),
                  method="highs", options=dict(primal_feasibility_tolerance=1e-10,
                                               dual_feasibility_tolerance=1e-10))
    assert res.status == 0
    y = -res.ineqlin.marginals[:rows.size] / peak
    upper = float(np.max(V[:, rows] @ y) / (z[rows] @ y))
    return -res.fun * t_up, upper


def uncovered(V, z):
    return bool(np.any((z > 0.0) & ~np.any(V > 0.0, axis=0)))


class TestOrderIdealMembership:
    @settings(max_examples=300, deadline=None)
    @given(vertices_and_point())
    def test_matches_highs(self, instance):
        V, z = instance
        assume(not uncovered(V, z))
        t = norm_membership_P(z, list(V))
        expected, upper = highs_order_ideal(V, z)
        assert t == pytest.approx(expected, rel=1e-9)
        assert t <= upper * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(vertices_and_point(), st.data())
    def test_uncovered_coordinate_is_exactly_zero(self, instance, data):
        V, z = instance
        i = data.draw(st.integers(0, z.size - 1))
        z[i] = data.draw(st.floats(1e-10, 1.0))
        V[:, i] = 0.0
        assert norm_membership_P(z, list(V)) == 0.0


def random_positive_cost_program(rng):
    """A program with only inequality rows and strictly positive costs in
    min form, feasible or not: the shape that starts from the slack basis."""
    n = int(rng.integers(1, 6))
    sense = "min" if rng.random() < 0.5 else "max"
    cost = rng.uniform(0.1, 2.0, size=n)
    objective = cost if sense == "min" else -cost
    bounds = []
    for _ in range(n):
        lo = float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.3 else 0.0
        hi = lo + float(rng.uniform(0.5, 3.0)) if rng.random() < 0.3 else INF
        bounds.append((lo, hi))
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        a = rng.uniform(-1.0, 3.0, size=n)
        a[rng.random(n) < 0.3] = 0.0
        rel = "<=" if rng.random() < 0.3 else ">="
        rows.append((a, rel, float(rng.uniform(-1.0, 4.0))))
    return LinearProgram(sense, objective, rows, bounds)


def highs_solve(lp):
    A_ub, b_ub = [], []
    for a, rel, rhs in lp.rows:
        sign = 1.0 if rel == "<=" else -1.0
        A_ub.append(sign * np.asarray(a))
        b_ub.append(sign * rhs)
    c = np.asarray(lp.objective, dtype=float)
    res = linprog(c if lp.sense == "min" else -c, A_ub=np.array(A_ub),
                  b_ub=np.array(b_ub), bounds=lp.bounds, method="highs")
    value = None
    if res.status == 0:
        value = res.fun if lp.sense == "min" else -res.fun
    return res.status, value


class TestSlackBasisStart:
    def test_random_programs_match_highs(self, monkeypatch):
        calls = []
        dual_loop = simplex._dual_loop

        def counting(*args):
            calls.append(1)
            return dual_loop(*args)

        monkeypatch.setattr(simplex, "_dual_loop", counting)
        rng = np.random.default_rng(9)
        seen = {OPTIMAL: 0, INFEASIBLE: 0}
        for count in range(1, 401):
            lp = random_positive_cost_program(rng)
            out = solve_lp(lp)
            assert len(calls) == count
            status, value = highs_solve(lp)
            assert status in (0, 2)
            assert out.status == (OPTIMAL if status == 0 else INFEASIBLE)
            seen[out.status] += 1
            if status == 0:
                assert out.value == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert min(seen.values()) >= 50

    def test_signed_or_zero_cost_keeps_two_phases(self, monkeypatch):
        monkeypatch.setattr(simplex, "_dual_loop", None)
        for objective, expected in (([1.0, 0.0], 0.0), ([1.0, -1.0], -2.0)):
            lp = LinearProgram("min", objective, [([1.0, 1.0], ">=", 1.0)],
                               [(0.0, 2.0), (0.0, 2.0)])
            out = solve_lp(lp)
            assert out.status == OPTIMAL
            assert out.value == pytest.approx(expected)
