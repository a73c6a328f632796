"""Differential tests against HiGHS, through ``scipy.optimize.linprog``.

HiGHS is an independent LP solver and serves here only as a test oracle;
the package itself never imports scipy.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from polyrad import (  # noqa: E402
    MODE_L,
    MODE_P,
    MODE_R,
    RunConfig,
    antinorm_membership_ext,
    norm_membership_P,
    norm_membership_R,
    run,
    solve_lp,
    verify,
)
from polyrad.datasets import (  # noqa: E402
    euler_binary,
    euler_ternary_14,
    overlap_free,
    pascal_rhombus,
    random_family,
)
from polyrad.membership import (  # noqa: E402
    MODES,
    _antinorm_lp,
    _vertex_basis,
    cone_ray_margin,
    one_vertex_bound,
)
from polyrad.stores import (  # noqa: E402
    SUPPORTS,
    FacetStore,
    SupportStore,
    _remember_dual,
    _remember_support,
    facet_bound,
    support_bound,
)
from polyrad import membership, simplex  # noqa: E402
from polyrad.simplex import INFEASIBLE, OPTIMAL, LinearProgram  # noqa: E402
from test_membership import newest_first  # noqa: E402
from test_simplex import from_rows  # noqa: E402

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
    min form, feasible or not: the shape that starts from the slack basis.
    Its variables are nonnegative, and some have an upper bound as a row."""
    n = int(rng.integers(1, 6))
    sense = "min" if rng.random() < 0.5 else "max"
    cost = rng.uniform(0.1, 2.0, size=n)
    objective = cost if sense == "min" else -cost
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        a = rng.uniform(-1.0, 3.0, size=n)
        a[rng.random(n) < 0.3] = 0.0
        rel = "<=" if rng.random() < 0.3 else ">="
        rows.append((a, rel, float(rng.uniform(-1.0, 4.0))))
    for e in np.eye(n):
        if rng.random() < 0.3:
            rows.append((e, "<=", float(rng.uniform(0.5, 3.0))))
    return from_rows(sense, objective, rows)


def highs_solve(lp):
    # Every row as "<=", a ">=" row negated; every variable is nonnegative.
    sign = np.where(np.asarray(lp.relations) == "<=", 1.0, -1.0)
    c = np.asarray(lp.objective, dtype=float)
    res = linprog(c if lp.sense == "min" else -c, A_ub=sign[:, None] * lp.A,
                  b_ub=sign * lp.b, bounds=(0.0, None), method="highs")
    value = None
    if res.status == 0:
        value = res.fun if lp.sense == "min" else -res.fun
    return res.status, value


def check_duals(lp, out):
    """``out.duals`` are row duals of ``lp``'s optimum: feasible and signed
    up to the pricing tolerance, scaled by each row's largest entry, with
    ``b . pi`` equal to the value."""
    A, b = np.asarray(lp.A, dtype=float), np.asarray(lp.b, dtype=float)
    c = np.asarray(lp.objective, dtype=float)
    pi = out.duals
    assert pi.shape == b.shape
    tol = 1e-9 / np.maximum(np.abs(A).max(axis=1), 1e-300)
    # Signed so that a positive dual tightens the objective's bound.
    flip = 1.0 if lp.sense == "min" else -1.0
    bounding = (np.asarray(lp.relations) == ">=") == (lp.sense == "min")
    assert np.all(np.where(bounding, pi, -pi) >= -tol)
    assert np.all(flip * (c - A.T @ pi) >= -1e-9 * max(1.0, float(np.abs(pi).max())))
    assert b @ pi == pytest.approx(out.value, rel=1e-9, abs=1e-12)


class TestDuals:
    """``LPOutcome.duals`` of all-inequality programs in both senses: mode
    P's covering shape on the dual path, mode L's antinorm shape with rays
    from a vertex basis or in two phases, and mixed relations."""

    @staticmethod
    def both_senses(lp):
        yield lp
        yield dataclasses.replace(lp, sense="max" if lp.sense == "min" else "min",
                                  objective=-np.asarray(lp.objective, dtype=float))

    def test_random_programs_match_highs(self):
        rng = np.random.default_rng(33)
        checked = {"P": 0, "L": 0, "mixed": 0, "started": 0}
        for _ in range(150):
            d, k = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            V = rng.uniform(SMALL, 1.0, size=(k, d)) * (rng.random((k, d)) < 0.7)
            z = rng.uniform(SMALL, 1.0, size=d) * (rng.random(d) < 0.7)
            z[int(rng.integers(d))] = 1.0
            H = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 3)), d))
            A = np.hstack([z[:, None], -V.T, -H.T])
            budget = np.zeros(A.shape[1])
            budget[1:k + 1] = 1.0
            objective = np.zeros(A.shape[1])
            objective[0] = 1.0
            shapes = {
                "P": LinearProgram("min", np.ones(k), V.T, [">="] * d, z),
                "L": LinearProgram("min", objective, np.vstack([A, budget]),
                                   [">="] * (d + 1), np.append(np.zeros(d), 1.0)),
                "mixed": random_positive_cost_program(rng),
            }
            for shape, lp in shapes.items():
                for posed in self.both_senses(lp):
                    out = solve_lp(posed, assume_bounded=shape != "mixed")
                    status, value = highs_solve(posed)
                    if status != 0:
                        continue
                    assert out.status == OPTIMAL
                    assert out.value == pytest.approx(value, rel=1e-9, abs=1e-9)
                    check_duals(posed, out)
                    checked[shape] += 1
            _, best = one_vertex_bound(MODES[MODE_L], z, V)
            if best >= 0:
                # The solve of antinorm_membership_ext, from the vertex basis.
                out = _antinorm_lp(z, V, H.T if len(H) else None,
                                   _vertex_basis(z, V, best))
                if out.status == OPTIMAL and out.started:
                    check_duals(shapes["L"], out)
                    checked["started"] += 1
        assert min(checked.values()) >= 100

    def test_equality_row_gives_none(self):
        lp = from_rows("max", [1.0, 1.0], [([1.0, 1.0], "<=", 2.0),
                                           ([1.0, -1.0], "=", 0.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL and out.value == pytest.approx(2.0)
        assert out.duals is None


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
        rows = [([1.0, 1.0], ">=", 1.0), ([1.0, 0.0], "<=", 2.0),
                ([0.0, 1.0], "<=", 2.0)]
        for objective, expected in (([1.0, 0.0], 0.0), ([1.0, -1.0], -2.0)):
            lp = from_rows("min", objective, rows)
            out = solve_lp(lp)
            assert out.status == OPTIMAL
            assert out.value == pytest.approx(expected)

    def test_phase_2_pivots_after_the_dual_loop(self, monkeypatch):
        # Phase 2 opens on the dual loop's confirming rebuild and usually
        # finds it optimal at once.  In this run of a drawn binary d20
        # family, one covering LP's dual optimum leaves a reduced cost below
        # -PIVOT_TOL, so phase 2 still pivots on it.
        solved = []

        def recording(lp, **kwargs):
            out = solve_lp(lp, **kwargs)
            solved.append((lp, kwargs, out))
            return out

        monkeypatch.setattr(membership, "solve_lp", recording)
        family = random_family("binary", 20, 2, 1114088975)
        out = run(family, RunConfig(mode="P", max_candidate_length=4,
                                    max_iterations=20))
        assert (out.status, out.lps_solved, out.lps_skipped) == ("iteration_capped", 57, 32)
        pivoted = [(lp, lp_out) for lp, kwargs, lp_out in solved
                   if kwargs.get("start") is None and lp_out.phase2_pivots > 0]
        assert pivoted
        for lp, lp_out in pivoted:
            status, value = highs_solve(lp)
            assert status == 0 and lp_out.status == OPTIMAL
            # HiGHS, at its default tolerances, reads 8e-10 below polyrad.
            assert lp_out.value == pytest.approx(value, rel=1e-8)


# Entries of the programs below run from 1e-4 to 1 in magnitude, with
# exact zeros.  Smaller entries lose both solvers: HiGHS drops matrix
# entries below 1e-9, and with entries down to 1e-6 polyrad's simplex
# still raises LPCyclingError on some programs (TestTinyEntries in
# test_membership.py holds a mode-R reproducer).
SMALL = 1e-4
magnitudes = st.one_of(st.just(0.0), st.floats(SMALL, 1.0))
signed = st.one_of(magnitudes, st.floats(-1.0, -SMALL))


def vectors(draw, elements, k, d):
    """A ``k`` by ``d`` array of drawn ``elements``."""
    return np.array(draw(st.lists(st.lists(elements, min_size=d, max_size=d),
                                  min_size=k, max_size=k))).reshape(k, d)


def highs(objective, A, b, kinds, bounds):
    """``linprog`` at HiGHS's tightest tolerances over the rows ``A x
    (kinds) b``, each row divided by its largest entry; ``kinds`` holds
    ``"<="``, ``">="`` or ``"="`` per row.  Returns the result."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    peak = np.abs(A).max(axis=1)
    peak[peak == 0.0] = 1.0
    A, b = A / peak[:, None], b / peak
    kinds = np.asarray(kinds)
    sign = np.where(kinds == ">=", -1.0, 1.0)
    ub, eq = kinds != "=", kinds == "="
    res = linprog(objective,
                  A_ub=(sign[:, None] * A)[ub] if ub.any() else None,
                  b_ub=(sign * b)[ub] if ub.any() else None,
                  A_eq=A[eq] if eq.any() else None,
                  b_eq=b[eq] if eq.any() else None,
                  bounds=bounds, method="highs",
                  options=dict(primal_feasibility_tolerance=1e-10,
                               dual_feasibility_tolerance=1e-10))
    assert res.status in (0, 2, 3), res.message
    return res


class TestConeRayMargin:
    """``max t`` with ``t 1 + sum_h c_h h <= image``, ``c >= 0``: the only
    program polyrad builds with a free quantity, which it splits as ``t+ -
    t-``.  The HiGHS oracle keeps its own free ``t``."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_highs(self, data):
        d = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(0, 4))
        image = vectors(data.draw, signed, 1, d)[0]
        H = vectors(data.draw, signed, k, d)
        margin = cone_ray_margin(image, H)
        objective = np.zeros(k + 1)
        objective[0] = -1.0
        A = np.hstack([np.ones((d, 1)), H.T])
        res = highs(objective, A, image, ["<="] * d,
                    [(None, None)] + [(0.0, None)] * k)
        assert res.status != 2
        if res.status == 3:
            assert margin == INF
        else:
            assert margin == pytest.approx(-res.fun, rel=1e-9, abs=1e-9)

    def test_unbounded_is_infinite(self):
        # The ray -1 lowers every coordinate, so any margin is reachable.
        assert cone_ray_margin([1.0, -2.0], [[-1.0, -1.0]]) == INF


def highs_balanced_hull(z, V):
    """HiGHS's value of max t subject to t z = V^T (c+ - c-), sum c <= 1,
    over the columns t, c+ (k), c- (k)."""
    k, d = V.shape
    A = np.zeros((d + 1, 2 * k + 1))
    A[:d, 0] = z
    A[:d, 1:k + 1] = -V.T
    A[:d, k + 1:] = V.T
    A[d, 1:] = 1.0
    objective = np.zeros(2 * k + 1)
    objective[0] = -1.0
    res = highs(objective, A, np.append(np.zeros(d), 1.0),
                ["="] * d + ["<="], [(0.0, None)] * (2 * k + 1))
    assert res.status == 0
    return -res.fun


def exact_rank(rows):
    """The rank of ``rows``, by Gaussian elimination over the rationals."""
    rows = [[Fraction(float(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def off_the_span(z, V):
    """Whether ``z`` lies outside the linear span of the rows of ``V``,
    decided exactly: the balanced hull's value is then 0."""
    return exact_rank(list(V) + [z]) > exact_rank(V)


class TestBalancedHullMembership:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_highs(self, data):
        # Off the span of the vertices the value is exactly 0, which HiGHS
        # can miss when z lies just off it (see the test below).
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 5))
        V = vectors(data.draw, signed, k, d)
        z = vectors(data.draw, signed, 1, d)[0]
        assume(np.any(z != 0.0))
        t = norm_membership_R(z, list(V))
        if off_the_span(z, V):
            assert t == 0.0
        else:
            assert t == pytest.approx(highs_balanced_hull(z, V), rel=1e-9, abs=1e-9)

    def test_point_just_off_the_span_is_exactly_zero(self):
        # A draw of the test above: the determinant of [v1; v2; z] is
        # 3.90625e-11, so z lies off the span and the value is 0.  HiGHS
        # reads 1e-4, the value at points of the span nearby.
        V = np.array([[0.0, 1e-4, 1e-4], [0.875, 0.0, 1e-4]])
        z = np.array([0.00390625, -1.0, -1.0])
        (a, b, c), (d, e, f), (g, h, i) = [[Fraction(x) for x in row]
                                           for row in (V[0], V[1], z)]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert float(det) == 3.90625e-11
        assert off_the_span(z, V)
        assert norm_membership_R(z, list(V)) == 0.0

    @pytest.mark.xfail(strict=True,
                       reason="the solver's round-off off the span stays above "
                              "the zero threshold; a span test would mend it")
    def test_point_off_the_span_with_a_small_entry_is_exactly_zero(self):
        # A draw of test_matches_highs.  det[v1; v2; z] is -1.25e-5, so z
        # lies off the span and the value is 0, but the LP returns
        # 3.0494547419829227e-12; with the two vertices swapped it returns
        # 0.0.
        V = np.array([[1.0, 1.0, 1e-4], [0.0, 0.125, 1.0]])
        z = np.array([1.0, 1.0, 0.0])
        (a, b, c), (d, e, f), (g, h, i) = [[Fraction(x) for x in row]
                                           for row in (V[0], V[1], z)]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert float(det) == -1.25e-5
        assert off_the_span(z, V)
        assert norm_membership_R(z, list(V[::-1])) == 0.0
        assert norm_membership_R(z, list(V)) == 0.0

    @pytest.mark.xfail(strict=True,
                       reason="z is one ulp off the line of the one vertex, and "
                              "the LP reads it as on it; a span test would "
                              "mend it")
    def test_point_one_ulp_off_the_line_of_one_vertex_is_exactly_zero(self):
        # A draw of test_matches_highs.  z differs from the vertex by one ulp
        # in one entry, so it lies off the vertex's line and the value is 0,
        # but the LP returns 1.0000000000000002.
        V = np.array([[0.0, 1.0000000000000002e-4, 1e-4]])
        z = np.array([0.0, 1e-4, 1e-4])
        assert off_the_span(z, V)
        assert norm_membership_R(z, list(V)) == 0.0

    def test_support_start_matches_highs(self, monkeypatch):
        # Each sequence of programs shares one vertex array, which grows by
        # appended rows as in the engine, and one support store; after the
        # first LP every solve starts from the best stored support.
        outcomes = []
        solve = membership.solve_lp

        def recording(*args, **kwargs):
            outcomes.append(solve(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(membership, "solve_lp", recording)
        rng = np.random.default_rng(17)
        for _ in range(12):
            d = int(rng.integers(2, 6))
            V = rng.uniform(-1.0, 1.0, size=(d + int(rng.integers(0, 4)), d))
            supports = SupportStore()
            for _ in range(25):
                z = rng.uniform(-1.0, 1.0, size=d)
                z[rng.random(d) < 0.2] = 0.0
                if not np.any(z):
                    continue
                bound, start = support_bound(z, supports)
                t = norm_membership_R(z, V, start, supports)
                expected = highs_balanced_hull(z, V)
                assert t == pytest.approx(expected, rel=1e-9, abs=1e-9)
                assert bound <= expected * (1.0 + 1e-9)
                if rng.random() < 0.3:
                    V = np.vstack((V, z / (1.5 * t)))  # a point outside, kept
        started = [o for o in outcomes if o.started and o.phase1_pivots == 0]
        assert len(started) >= 0.9 * len(outcomes)


def moment_curve(d, n):
    """``n`` points ``(1, s, ..., s^(d-1))`` at ``s = 1/n, ..., 1``: any
    ``d`` of them are the rows of a Vandermonde matrix of full rank."""
    return np.vander(np.arange(1, n + 1) / n, d, increasing=True)


def indicator(n, support):
    """A coefficient vector over ``n`` rows whose support is ``support``."""
    c = np.zeros(n)
    c[list(support)] = 1.0
    return c


class TestSupportStore:
    """The mode-R support store against HiGHS and against its own rules."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bound_never_exceeds_highs(self, data):
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 6))
        V = vectors(data.draw, signed, k, d)
        z = vectors(data.draw, signed, 1, d)[0]
        assume(np.any(z != 0.0))
        supports = SupportStore()
        for c in vectors(data.draw, signed, data.draw(st.integers(1, 8)), k):
            _remember_support(supports, c, V)
        bound, _ = support_bound(z, supports)
        expected = 0.0 if off_the_span(z, V) else highs_balanced_hull(z, V)
        assert bound <= expected * (1.0 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_keeps_the_newest_supports_newest_first(self, data):
        d, n = data.draw(st.sampled_from([(2, 12), (3, 9)]))
        V = moment_curve(d, n)
        order = data.draw(st.permutations(list(combinations(range(n), d))))
        order = order[:data.draw(st.integers(SUPPORTS + 1, len(order)))]
        supports = SupportStore()
        for support in order:
            _remember_support(supports, indicator(n, support), V)
        newest = [list(support) for support in reversed(order)][:SUPPORTS]
        rows, VT, inv = (newest_first(supports, stack) for stack in (
            supports.slot_rows, supports.slot_VT, supports.slot_inv))
        assert supports.count == SUPPORTS == 64
        assert rows.tolist() == newest
        assert np.array_equal(VT, V[rows].transpose(0, 2, 1))
        assert np.allclose(inv @ VT, np.eye(d), atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_held_support_moves_to_the_front_as_it_is(self, data):
        V = moment_curve(3, 7)
        order = data.draw(st.lists(st.sampled_from(list(combinations(range(7), 3))),
                                   min_size=1, max_size=10, unique=True))
        supports = SupportStore()
        for support in order:
            _remember_support(supports, indicator(7, support), V)
        stacks = (supports.slot_rows, supports.slot_VT, supports.slot_inv)
        before = [newest_first(supports, stack) for stack in stacks]
        i = data.draw(st.integers(0, len(order) - 1))
        # Other coefficients with the same support.
        c = indicator(7, before[0][i]) * data.draw(
            st.lists(st.floats(0.5, 2.0), min_size=7, max_size=7))
        with mock.patch.object(np.linalg, "inv", side_effect=AssertionError):
            _remember_support(supports, c, V)
        moved = [i] + [j for j in range(len(order)) if j != i]
        for stack, then in zip(stacks, before):
            assert np.array_equal(newest_first(supports, stack), then[moved])

    def test_start_outlives_the_eviction_of_its_support(self, monkeypatch):
        # A deferred image keeps its start while later LPs store supports,
        # so the start must not read the slot its support was stored in.
        started = []
        solve = membership.solve_lp

        def recording(*args, **kwargs):
            outcome = solve(*args, **kwargs)
            started.append(outcome.started)
            return outcome

        V = moment_curve(3, 9)
        c = np.zeros(9)
        c[[2, 4, 5]] = [0.5, -0.3, 0.2]
        z = V.T @ c
        supports = SupportStore()
        _remember_support(supports, c, V)
        _, start = support_bound(z, supports)
        rows, negative = (part.copy() for part in start)
        assert (rows.tolist(), negative.tolist()) == ([2, 4, 5], [False, True, False])
        monkeypatch.setattr(membership, "solve_lp", recording)
        value = norm_membership_R(z, V, start)
        others = [s for s in combinations(range(9), 3) if s != (2, 4, 5)]
        for support in others[:SUPPORTS]:
            _remember_support(supports, indicator(9, support), V)
        assert supports.count == SUPPORTS
        assert not (supports.slot_rows == rows).all(axis=1).any()
        assert np.array_equal(start[0], rows)
        assert np.array_equal(start[1], negative)
        assert norm_membership_R(z, V, start) == value
        assert started == [True, True]


# Multiples of 1/8 in [-1, 1]: balanced-hull programs over them stay clear
# of the simplex's known failures on tiny entries.
eighths = st.integers(-8, 8).map(lambda k: k / 8.0)


class TestFacetBound:
    """The facets of a support store bound the balanced-hull value from
    above; :func:`~polyrad.stores.facet_bound` against HiGHS."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bound_is_at_least_highs(self, data):
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 6))
        V = vectors(data.draw, eighths, k, d)
        supports = SupportStore()
        for z in vectors(data.draw, eighths, data.draw(st.integers(1, 4)), d):
            if np.any(z):
                norm_membership_R(z, V, None, supports)
        # Rows appended after the store's facets were set must be folded in.
        V = np.vstack((V, vectors(data.draw, eighths, data.draw(st.integers(0, 2)), d)))
        z = vectors(data.draw, signed, 1, d)[0]
        assume(np.any(z != 0.0))
        bound = facet_bound(z, V, supports)
        expected = 0.0 if off_the_span(z, V) else highs_balanced_hull(z, V)
        assert bound >= expected * (1.0 - 1e-12)

    def test_cancelling_facet_proves_no_inside_point_outside(self):
        # Two nearly parallel vertices: the facet through v1 and -v2 has
        # y = (2e12, -2e12) roughly, and z, near v1 on that facet, makes
        # y . z cancel to about 1 with a round-off of about 1e-4.  Without
        # the round-off margin the bound reads 0.99993, which would prove
        # this point of value 1.00005 outside the body.
        V = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        supports = SupportStore()
        _remember_support(supports, np.array([0.9, -0.1]), V)
        z = np.array([0.8887171792948236, 0.888717179294768])
        (p, q), (r, s) = [[Fraction(x) for x in row] for row in V]
        det = p * s - q * r
        a = (Fraction(z[0]) * s - Fraction(z[1]) * r) / det
        b = (p * Fraction(z[1]) - q * Fraction(z[0])) / det
        exact = 1 / (abs(a) + abs(b))  # the parallelogram's value
        assert 1.0 < exact < 1.0001
        assert facet_bound(z, V, supports) >= exact
        assert np.abs(supports.slot_y[0]).max() > 1e12

    def test_facet_is_written_when_its_support_is_stored_or_refreshed(self):
        # The store sees the first six rows at its one query; rows appended
        # after it are read by the next query, not by the facets written now.
        V = moment_curve(3, 9)
        supports = SupportStore()
        _remember_support(supports, indicator(9, (0, 1, 2)), V[:6])
        facet_bound(np.array([1.0, 0.5, 0.25]), V[:6], supports)
        assert supports.seen == 6
        c = np.zeros(9)
        c[[2, 4, 5]] = [0.5, -0.3, 0.2]
        _remember_support(supports, c, V)
        _remember_support(supports, indicator(9, (1, 3, 7)), V)
        slot = int(supports.order[1])
        y = np.linalg.inv(V[[2, 4, 5]].T).T @ np.sign(c[[2, 4, 5]])
        assert np.array_equal(supports.slot_y[slot], y)
        assert supports.slot_y1[slot] == abs(y).sum()
        assert supports.slot_reach[slot] == abs(V[:6] @ y).max()
        # The same support with its signs flipped: the facet is replaced in
        # its slot, no inverse is computed, and the slot moves to the front.
        order = supports.order[:3].tolist()
        with mock.patch.object(np.linalg, "inv", side_effect=AssertionError):
            _remember_support(supports, -c, V)
        assert supports.order[:3].tolist() == [slot] + [k for k in order if k != slot]
        assert np.array_equal(supports.slot_y[slot], -y)
        assert supports.slot_reach[slot] == abs(V[:6] @ y).max()


class TestAntinormFacetBound:
    """The clipped duals of antinorm LPs bound the antinorm value from
    below; :func:`~polyrad.stores.facet_bound` of a
    :class:`~polyrad.stores.FacetStore` against HiGHS."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bound_is_at_most_highs(self, data):
        d = data.draw(st.integers(1, 4))
        nonnegative = st.integers(0, 8).map(lambda k: k / 8.0)
        V = vectors(data.draw, nonnegative, data.draw(st.integers(1, 5)), d)
        H = vectors(data.draw, eighths, data.draw(st.integers(0, 2)), d)
        rays = H if len(H) else None
        facets = FacetStore()
        for z in vectors(data.draw, nonnegative, data.draw(st.integers(1, 4)), d):
            if np.any(z):
                antinorm_membership_ext(z, V, rays, facets)
        # Rows appended after the store's reaches were set must be folded in.
        V = np.vstack((V, vectors(data.draw, nonnegative,
                                  data.draw(st.integers(0, 2)), d)))
        z = vectors(data.draw, magnitudes, 1, d)[0]
        assume(np.any(z > 0.0))
        bound = facet_bound(z, V, facets)
        A = np.hstack([z[:, None], -V.T] + ([] if rays is None else [-H.T]))
        budget = np.zeros(A.shape[1])
        budget[1:V.shape[0] + 1] = 1.0
        objective = np.zeros(A.shape[1])
        objective[0] = 1.0
        res = highs(objective, np.vstack([A, budget]), np.append(np.zeros(d), 1.0),
                    [">="] * (d + 1), [(0.0, None)] * A.shape[1])
        assert res.status in (0, 2)
        if res.status == 0:
            assert bound <= res.fun * (1.0 + 1e-12)

    def test_dual_off_a_ray_is_refused(self):
        # The vertex (1, 1) and the ray h = (-1, 1) hold z = (0.5, 2) at
        # t = 0.8: 0.8 z = (0.4, 1.6) dominates (1, 1) + 0.6 h.  A dual that
        # clips to y = (1, 0) has y . h = -1, and its bound reach / (y . z)
        # = 2 would put this inside point outside.
        V = np.array([[1.0, 1.0]])
        H = np.array([[-1.0, 1.0]])
        z = np.array([0.5, 2.0])
        assert antinorm_membership_ext(z, V, H) == pytest.approx(0.8)
        duals = np.array([1.0, -0.5])  # the coordinate rows' duals
        facets = FacetStore()
        _remember_dual(facets, duals, V, H)
        assert facets.count == 0
        assert facet_bound(z, V, facets) == 0.0
        kept = FacetStore()
        _remember_dual(kept, duals, V, None)
        assert facet_bound(z, V, kept) > 1.0 + 1e-3

    def test_round_off_below_a_ray_is_refused(self):
        # This program's optimum uses the first ray, where y . h is 0; the
        # clipped dual's computed y . h is -8.9e-16 (or within round-off of
        # 0 on another BLAS), short of its round-off bound.
        V = np.array([[0.625, 0.375, 0.625, 1.0]])
        H = np.array([[-0.5, 0.75, -0.5, 0.625], [-0.5, 0.375, 0.0, 1.0]])
        z = np.array([0.75, 0.25, 0.0, 0.125])
        y = np.maximum(_antinorm_lp(z, V, H.T).duals[:4], 0.0)
        assert y @ z > 0.0
        assert H[0] @ y < 4 * np.finfo(float).eps * y.sum() * 0.75
        facets = FacetStore()
        assert antinorm_membership_ext(z, V, H, facets) == pytest.approx(14.25)
        assert facets.count == 0

    def test_full_store_replaces_its_oldest_dual(self):
        # Entries are multiples of 1/8, so every dot product is exact and a
        # reach does not depend on when it was folded in.
        rng = np.random.default_rng(3)
        V = rng.integers(0, 9, size=(5, 3)) / 8.0
        grid = np.array(list(np.ndindex(8, 8, 8))) + 1.0
        duals = grid[rng.choice(len(grid), SUPPORTS + 1, replace=False)] / 8.0
        z = np.array([0.75, 0.5, 0.25])
        facets = FacetStore()
        for y in duals:
            _remember_dual(facets, y, V, None)
            facet_bound(z, V, facets)
        assert facets.count == SUPPORTS
        assert not (facets.slot_y == duals[0]).all(axis=1).any()
        last = FacetStore()
        for y in duals[1:]:
            _remember_dual(last, y, V, None)
        assert facet_bound(z, V, facets) == facet_bound(z, V, last) > 0.0


class TestAntinormMembership:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_matches_highs(self, data, with_rays):
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 5))
        V = vectors(data.draw, magnitudes, k, d)
        z = vectors(data.draw, magnitudes, 1, d)[0]
        assume(np.any(z > 0.0))
        H = vectors(data.draw, signed, data.draw(st.integers(1, 3)), d) \
            if with_rays else None
        t = antinorm_membership_ext(z, list(V), None if H is None else list(H))
        # Columns t, c (k), w (rays): t z - V^T c - H^T w >= 0, sum c >= 1.
        A = np.hstack([z[:, None], -V.T] + ([] if H is None else [-H.T]))
        budget = np.zeros(A.shape[1])
        budget[1:k + 1] = 1.0
        objective = np.zeros(A.shape[1])
        objective[0] = 1.0
        res = highs(objective, np.vstack([A, budget]), np.append(np.zeros(d), 1.0),
                    [">="] * (d + 1), [(0.0, None)] * A.shape[1])
        assert res.status != 3
        if res.status == 2:
            assert t == INF
        else:
            assert t == pytest.approx(res.fun, rel=1e-9, abs=1e-9)

    def test_vertex_start_matches_highs(self, monkeypatch):
        # Every program has a vertex that covers z, so every solve starts
        # from that vertex's basis and skips phase 1.
        outcomes = []
        solve = membership.solve_lp

        def recording(*args, **kwargs):
            outcomes.append(solve(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(membership, "solve_lp", recording)
        rng = np.random.default_rng(13)
        for _ in range(300):
            d, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            V = rng.uniform(SMALL, 1.0, size=(k, d)) * (rng.random((k, d)) < 0.7)
            z = rng.uniform(SMALL, 1.0, size=d) * (rng.random(d) < 0.7)
            z[int(rng.integers(d))] = 1.0
            V[0] *= z > 0.0  # the first vertex covers z
            H = None
            if rng.random() < 0.5:
                H = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 4)), d))
            t = antinorm_membership_ext(z, list(V), None if H is None else list(H))
            assert outcomes[-1].started and outcomes[-1].phase1_pivots == 0
            A = np.hstack([z[:, None], -V.T] + ([] if H is None else [-H.T]))
            budget = np.zeros(A.shape[1])
            budget[1:k + 1] = 1.0
            objective = np.zeros(A.shape[1])
            objective[0] = 1.0
            res = highs(objective, np.vstack([A, budget]),
                        np.append(np.zeros(d), 1.0), [">="] * (d + 1),
                        [(0.0, None)] * A.shape[1])
            assert res.status == 0
            assert t == pytest.approx(res.fun, rel=1e-9, abs=1e-9)

    def test_infeasible_is_infinite(self):
        # t z is 0 on the second coordinate, where the vertex puts at least
        # 1 and the ray only adds.
        assert antinorm_membership_ext([1.0, 0.0], [[1.0, 1.0]],
                                       [[-1.0, 0.5]]) == INF


def replay_worst_slack(family, cert):
    """The largest membership slack of a certificate's vertex images, each
    solved by HiGHS with no shortcut, under the family scaled by the word's
    averaged radius from ``np.linalg.eigvals``: ``1 - t`` for the largest
    ``t`` with ``t z <= V^T w``, ``sum w <= 1`` in mode P, ``t - 1`` for
    the least ``t`` with ``t z >= V^T c + H^T w``, ``sum c >= 1`` in mode L
    (``inf`` when infeasible, as for a zero image), and ``1 - t`` for the
    largest ``t`` with ``t z = V^T c``, ``sum |c| <= 1`` in mode R (``-inf``
    for a zero image)."""
    product = np.eye(family.dim)
    for i in cert.word:
        product = family.matrices[i - 1] @ product
    rho = np.max(np.abs(np.linalg.eigvals(product))) ** (1.0 / len(cert.word))
    V = np.array(cert.vertices)
    k, d = V.shape
    H = np.zeros((0, d)) if cert.cone_H is None else np.array(cert.cone_H)
    worst = -INF
    for v in V:
        for M in family.matrices:
            z = M @ v / rho
            if cert.mode == MODE_R:
                slack = 1.0 - highs_balanced_hull(z, V) if np.any(z) else -INF
            elif cert.mode == MODE_P:
                A = np.vstack([np.hstack([z[:, None], -V.T]),
                               np.append(0.0, np.ones(k))])
                objective = np.zeros(k + 1)
                objective[0] = -1.0
                res = highs(objective, A, np.append(np.zeros(d), 1.0),
                            ["<="] * (d + 1), [(0.0, None)] * (k + 1))
                assert res.status in (0, 3)
                slack = -INF if res.status == 3 else 1.0 + res.fun
            else:
                A = np.hstack([z[:, None], -V.T, -H.T])
                budget = np.zeros(A.shape[1])
                budget[1:k + 1] = 1.0
                objective = np.zeros(A.shape[1])
                objective[0] = 1.0
                res = highs(objective, np.vstack([A, budget]),
                            np.append(np.zeros(d), 1.0), [">="] * (d + 1),
                            [(0.0, None)] * A.shape[1])
                assert res.status in (0, 2)
                slack = INF if res.status == 2 else res.fun - 1.0
            worst = max(worst, slack)
    return worst


# Runs that terminate with a certificate: the binary partial-sum pairs, the
# transposed Pascal rhombus, the ternary partial sums, the overlap-free pair
# and a signed gaussian pair, all in the mode and at the settings of the
# benchmark.
REPLAYED = {
    "euler-binary-7/P": (lambda: euler_binary(7),
                         dict(mode=MODE_P, max_candidate_length=6)),
    "euler-binary-9/L": (lambda: euler_binary(9),
                         dict(mode=MODE_L, max_candidate_length=6)),
    "pascal-rhombus-T/L": (lambda: pascal_rhombus().transposed(),
                           dict(mode=MODE_L, max_candidate_length=6,
                                remove_boundary=True)),
    "euler-ternary-14/L": (euler_ternary_14,
                           dict(mode=MODE_L, max_candidate_length=6)),
    "overlap-free/P": (overlap_free, dict(mode=MODE_P, max_candidate_length=8)),
    "gaussian-d7-s1/R": (lambda: random_family("gaussian-equal-norm", 7, 2, 1),
                         dict(mode=MODE_R, max_candidate_length=6,
                              max_iterations=10)),
}


@pytest.fixture(scope="module", params=sorted(REPLAYED))
def terminated(request):
    make, config = REPLAYED[request.param]
    family = make()
    out = run(family, RunConfig(**config))
    assert out.status == "terminated"
    return family, out.certificate


class TestVerifyReplay:
    """``verify`` settles many images without an LP, by one point in modes
    P and L and by a cached support in mode R; replaying every image with
    HiGHS must give the same verdict."""

    def test_genuine_certificate(self, terminated):
        family, cert = terminated
        report = verify(family, cert)
        worst = replay_worst_slack(family, cert)
        assert worst <= 10.0 * cert.tolerance and report.verdict
        assert report.lps_skipped > 0
        # verify's slack bounds the true one from above, up to HiGHS's
        # feasibility tolerance.
        assert report.worst_slack >= worst - 1e-9

    def test_vertex_moved_into_the_body_is_rejected(self, terminated):
        # The first vertex is a root: the image of the chain's last root.
        # Moving it into the body (inwards in P and R, outwards in L) leaves
        # that image outside the smaller body.
        family, cert = terminated
        vertices = list(cert.vertices)
        vertices[0] = vertices[0] * (1.1 if cert.mode == MODE_L else 0.9)
        forged = dataclasses.replace(cert, vertices=tuple(vertices))
        report = verify(family, forged)
        worst = replay_worst_slack(family, forged)
        assert worst > 10.0 * forged.tolerance and not report.verdict
        assert report.worst_slack >= worst - 1e-9
