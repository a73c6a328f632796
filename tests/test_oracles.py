"""Differential tests against HiGHS, through ``scipy.optimize.linprog``.

HiGHS is an independent LP solver and serves here only as a test oracle;
the package itself never imports scipy.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from polyrad import (  # noqa: E402
    MODE_L,
    MODE_P,
    MODE_R,
    LinearProgram,
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
from polyrad.membership import cone_ray_margin, support_bound  # noqa: E402
from polyrad import membership, simplex  # noqa: E402
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
    return LinearProgram(sense, objective, rows)


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
        rows = [([1.0, 1.0], ">=", 1.0), ([1.0, 0.0], "<=", 2.0),
                ([0.0, 1.0], "<=", 2.0)]
        for objective, expected in (([1.0, 0.0], 0.0), ([1.0, -1.0], -2.0)):
            lp = LinearProgram("min", objective, rows)
            out = solve_lp(lp)
            assert out.status == OPTIMAL
            assert out.value == pytest.approx(expected)


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


class TestBalancedHullMembership:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_highs(self, data):
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 5))
        V = vectors(data.draw, signed, k, d)
        z = vectors(data.draw, signed, 1, d)[0]
        assume(np.any(z != 0.0))
        t = norm_membership_R(z, list(V))
        assert t == pytest.approx(highs_balanced_hull(z, V), rel=1e-9, abs=1e-9)

    def test_support_start_matches_highs(self, monkeypatch):
        # Each sequence of programs shares one vertex array, which grows by
        # appended rows as in the engine, and one support list; after the
        # first LP every solve starts from the best cached support.
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
            supports = []
            for _ in range(25):
                z = rng.uniform(-1.0, 1.0, size=d)
                z[rng.random(d) < 0.2] = 0.0
                if not np.any(z):
                    continue
                bound, start = support_bound(z, V, supports)
                t = norm_membership_R(z, V, start, supports)
                expected = highs_balanced_hull(z, V)
                assert t == pytest.approx(expected, rel=1e-9, abs=1e-9)
                assert bound <= expected * (1.0 + 1e-9)
                if rng.random() < 0.3:
                    V = np.vstack((V, z / (1.5 * t)))  # a point outside, kept
        started = [o for o in outcomes if o.started and o.phase1_pivots == 0]
        assert len(started) >= 0.9 * len(outcomes)


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
