import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyrad import (
    antinorm_membership_L,
    antinorm_membership_ext,
    membership,
    norm_membership_P,
    norm_membership_R,
)
from polyrad.membership import (
    MODE_L,
    MODE_P,
    MODE_R,
    MODES,
    _antinorm_lp,
    _vertex_basis,
    cone_ray_margin,
    one_vertex_bound,
)
from polyrad.stores import SupportStore, _remember_support, support_bound
from polyrad.simplex import LPCyclingError
from test_simplex import assert_same_outcome, from_rows

INF = float("inf")
NAN = float("nan")


def store_of(V, supports):
    """A store of ``V`` that remembered ``supports``, the first newest, as
    the supports of their indicator vectors."""
    store = SupportStore()
    for support in reversed(supports):
        c = np.zeros(len(V))
        c[list(support)] = 1.0
        _remember_support(store, c, V)
    return store


def newest_first(store, stack):
    """The entries of ``stack``, one of ``store``'s slot arrays, that hold
    its supports or facets, newest first."""
    return stack[store.order[:store.count]]

# Nonnegative entries from 1e-10 to 1, with exact zeros.
TINY = st.one_of(st.just(0.0), st.floats(1e-10, 1.0))
# Entries from 1e-4 to 1: smaller ones can make the two-phase simplex raise
# LPCyclingError or end at a wrong vertex.
SMALL = 1e-4
MODEST = st.one_of(st.just(0.0), st.floats(SMALL, 1.0))


@st.composite
def instances(draw, entries=TINY):
    """Vertices ``V``, a point ``z`` with a positive coordinate, and cone
    rays ``H`` (one per column, signed entries) or ``None``."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))

    def matrix(rows, elements):
        return np.array(draw(st.lists(st.lists(elements, min_size=d, max_size=d),
                                      min_size=rows, max_size=rows))).reshape(rows, d)

    V = matrix(k, entries)
    z = matrix(1, entries)[0]
    assume(np.any(z > 0.0))
    H = None
    if draw(st.booleans()):
        signed = st.one_of(entries, entries.map(lambda x: -x))
        H = matrix(draw(st.integers(1, 3)), signed).T
    return V, z, H


class TestBalancedHull:
    def test_cross_polytope_boundary(self):
        V = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert norm_membership_R([0.5, 0.5], V) == pytest.approx(1.0)

    def test_cross_polytope_outside(self):
        V = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert norm_membership_R([1.0, 1.0], V) == pytest.approx(0.5)

    def test_vertex_self_membership(self):
        V = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert norm_membership_R(V[0], V) >= 1.0 - 1e-12

    def test_symmetry_in_sign(self):
        V = [np.array([1.0, 2.0]), np.array([2.0, -1.0])]
        z = np.array([0.3, 0.4])
        assert norm_membership_R(-z, V) == pytest.approx(
            norm_membership_R(z, V), rel=1e-10)

    def test_inverse_homogeneity(self):
        V = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        z = np.array([0.2, 0.3])
        assert norm_membership_R(2.0 * z, V) == pytest.approx(
            0.5 * norm_membership_R(z, V), rel=1e-10)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            norm_membership_R([0.0, 0.0], [np.array([1.0, 0.0])])

    def test_rejects_empty_vertex_list(self):
        for V in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="non-empty"):
                norm_membership_R([1.0, 0.0], V)


class TestArrayInput:
    # The engine passes its vertex set as one (n, d) array; every membership
    # LP must read it as it reads the list of its rows.
    V = np.array([[1.0, 0.2, 0.5], [0.3, 1.0, 0.1], [0.6, 0.4, 0.9]])
    z = np.array([0.7, 0.8, 0.3])

    @pytest.mark.parametrize("fn", [norm_membership_R, norm_membership_P,
                                    antinorm_membership_L])
    def test_array_equals_list_of_rows(self, fn):
        assert fn(self.z, self.V) == fn(self.z, list(self.V))

    def test_ext_array_equals_list_of_rows(self):
        H = [np.array([0.1, 0.1, -1.0])]
        assert (antinorm_membership_ext(self.z, self.V, H)
                == antinorm_membership_ext(self.z, list(self.V), H))

    @pytest.mark.parametrize("call", [
        lambda z, V: norm_membership_R(
            z, V, support_bound(z, store_of(V, [(0, 1, 2)]))[1], SupportStore()),
        norm_membership_P,
        antinorm_membership_L,
        lambda z, V: antinorm_membership_ext(z, V, [[0.1, 0.1, -1.0]]),
        lambda z, V: cone_ray_margin(z - 0.5, [[0.1, 0.1, -1.0], [1.0, -0.5, 0.2]]),
    ], ids=["R", "P", "L", "ext", "cone-margin"])
    def test_program_matches_its_rows(self, monkeypatch, call):
        # Each membership program, rebuilt from the row tuples that
        # LinearProgram.rows reads back for the benchmark's tracer, solves
        # to the same outcome, field by field.
        programs = []
        solve = membership.solve_lp

        def recording(lp, **kwargs):
            outcome = solve(lp, **kwargs)
            programs.append((lp, kwargs, outcome))
            return outcome

        monkeypatch.setattr(membership, "solve_lp", recording)
        call(self.z, self.V)
        (lp, kwargs, outcome), = programs
        rows = from_rows(lp.sense, lp.objective, lp.rows)
        assert_same_outcome(solve(rows, **kwargs), outcome)

    @pytest.mark.parametrize("call", [
        lambda: norm_membership_P([1.0, 1.0], [[INF, 0.0], [0.0, 1.0]]),
        lambda: norm_membership_R([NAN, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        lambda: antinorm_membership_L([1.0, INF], [[1.0, 1.0]]),
        lambda: antinorm_membership_ext([1.0, 1.0], [[1.0, 1.0]], [[NAN, 0.0]]),
        lambda: cone_ray_margin([1.0, 1.0], [[INF, 0.0]]),
    ], ids=["P-vertex", "R-point", "L-point", "ext-ray", "cone-ray"])
    def test_non_finite_input_rejected(self, call):
        # The first two used to return nan and 0.0.
        with pytest.raises(ValueError, match="finite"):
            call()


class TestMonotonePolytope:
    def test_outside(self):
        V = [np.array([1.0, 1.0])]
        assert norm_membership_P([2.0, 2.0], V) == pytest.approx(0.5)

    def test_order_ideal_covers_axis_point(self):
        # The monotone hull of (1,1) contains (1,0), so (2,0) enters at 1/2.
        V = [np.array([1.0, 1.0])]
        assert norm_membership_P([2.0, 0.0], V) == pytest.approx(0.5)

    def test_strict_interior(self):
        V = [np.array([1.0, 1.0])]
        assert norm_membership_P([0.5, 0.5], V) == pytest.approx(2.0)

    def test_no_positive_coordinate_is_inside(self):
        V = [np.array([1.0, 1.0])]
        assert norm_membership_P([-1.0, 0.0], V) == INF

    def test_rejects_negative_vertices(self):
        # Below a vertex with a negative entry, "no positive coordinate"
        # no longer means inside, and the covering program can be
        # infeasible.
        V = [np.array([1.0, -2.0]), np.array([-2.0, 1.0])]
        with pytest.raises(ValueError):
            norm_membership_P([-3.0, 0.0], V)

    def test_never_overshoots_optimum(self):
        # The reported value must correspond to an exactly feasible convex
        # decomposition; random spot check against a fine search.
        rng = np.random.default_rng(5)
        for _ in range(50):
            V = [rng.random(3) + 0.05 for _ in range(4)]
            z = rng.random(3) + 0.05
            t = norm_membership_P(z, V)
            # Feasibility of the claimed value: t*z must lie under the hull.
            Vm = np.array(V)
            from polyrad import solve_lp
            k = len(V)
            rows = [(np.concatenate(([0.0], np.ones(k))), "<=", 1.0)]
            for i in range(3):
                rows.append((np.concatenate(([0.0], -Vm[:, i])), "<=",
                             -t * z[i] * (1 - 1e-9)))
            out = solve_lp(from_rows("max", np.zeros(k + 1), rows))
            assert out.status == "optimal"


class TestAntinorm:
    def test_deep_inside(self):
        V = [np.array([1.0, 1.0])]
        assert antinorm_membership_L([2.0, 2.0], V) == pytest.approx(0.5)

    def test_infeasible_is_infinite(self):
        V = [np.array([1.0, 1.0])]
        assert antinorm_membership_L([1.0, 0.0], V) == INF

    def test_vertex_self_membership(self):
        V = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
        assert antinorm_membership_L(V[0], V) <= 1.0 + 1e-12

    def test_reduces_to_plain_when_no_rays(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            V = [rng.random(3) + 0.01 for _ in range(3)]
            z = rng.random(3) + 0.01
            a = antinorm_membership_L(z, V)
            b = antinorm_membership_ext(z, V, [])
            c = antinorm_membership_ext(z, V, None)
            assert a == pytest.approx(b, rel=1e-9)
            assert a == pytest.approx(c, rel=1e-9)

    def test_ray_lowers_value(self):
        V = [np.array([1.0, 1.0])]
        H = [np.array([-0.25, 1.0])]
        z = np.array([1.0, 2.0])
        without = antinorm_membership_ext(z, V, None)
        with_ray = antinorm_membership_ext(z, V, H)
        assert np.isfinite(with_ray)
        assert with_ray < without

    def test_monotone_in_rays(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            V = [rng.random(3) + 0.01 for _ in range(3)]
            z = rng.random(3) + 0.01
            h = rng.random(3)
            h[int(rng.integers(0, 3))] *= -0.25
            small = antinorm_membership_ext(z, V, [h])
            assert small <= antinorm_membership_ext(z, V, None) + 1e-9

    def test_ray_dimension_mismatch(self):
        with pytest.raises(ValueError):
            antinorm_membership_ext([1.0, 1.0], [np.array([1.0, 1.0])],
                                    [np.array([1.0, 1.0, 1.0])])


class TestConeRayMargin:
    def test_uniform_positive_image(self):
        # With no rays, the margin is just the smallest coordinate.
        margin = cone_ray_margin(np.array([2.0, 3.0, 0.5]), [])
        assert margin == pytest.approx(0.5)

    def test_ray_improves_margin(self):
        image = np.array([2.0, -0.5])
        assert cone_ray_margin(image, []) == pytest.approx(-0.5)
        h = np.array([1.0, -1.0])
        assert cone_ray_margin(image, [h]) > -0.5

    def test_negative_margin_detected(self):
        margin = cone_ray_margin(np.array([1.0, -1.0]), [np.array([1.0, 1.0])])
        assert margin < 0.0

    @pytest.mark.parametrize("image, parts", [
        ([-2.0, 5.0, 0.3], [0.0, 2.0]), ([0.7, 5.0], [0.7, 0.0]),
    ], ids=["negative", "positive"])
    def test_no_rays_gives_the_least_coordinate(self, monkeypatch, image, parts):
        # Closed form, exact: the margin is min(image).  It is t+ - t-, so
        # a negative margin has t- basic.  The LP starts at that optimum,
        # with no phase 1.
        outcomes = []
        solve = membership.solve_lp
        monkeypatch.setattr(membership, "solve_lp",
                            lambda lp, **kwargs: outcomes.append(solve(lp, **kwargs))
                            or outcomes[-1])
        assert cone_ray_margin(np.array(image), []) == min(image)
        assert outcomes[0].assignment.tolist() == parts
        assert outcomes[0].started and outcomes[0].phase1_pivots == 0

    def test_ray_lifts_the_margin_above_the_least_coordinate(self):
        # t <= -1 + c and t <= 3 - c for the ray weight c >= 0: c = 2 gives
        # t = 1, where min(image) is -1.
        assert cone_ray_margin(np.array([-1.0, 3.0]), [np.array([-1.0, 1.0])]) == 1.0

    @pytest.mark.parametrize("H", [
        [[-1.0, 0.0, 0.0, -1.0]], [[1.0]], [1.0, 1.0], [[[1.0, 1.0]]],
    ], ids=["one-long-ray", "one-short-ray", "flat", "nested"])
    def test_ray_dimension_mismatch(self, H):
        # A 4-entry ray is not two 2-entry rays: it is refused, as
        # antinorm_membership_ext refuses it, instead of being re-cut.
        with pytest.raises(ValueError, match="ray dimension mismatch"):
            cone_ray_margin([1.0, 1.0], H)


class TestTinyEntries:
    """Entries near 1e-9 against the simplex.  Each program below is
    feasible and bounded; its true value is asserted."""

    def test_antinorm_with_tiny_ray_entry(self):
        # The two-phase path ties rows by an absolute 1e-9, and the slack of
        # a row scaled by 1e9 then leaves another row at -1; the start from
        # the covering vertex needs no phase 1 and no such pivot.
        assert antinorm_membership_ext([1.0, 1.0, 0.0], [[1.0, 1.0, 0.0]],
                                       [[0.0, 1.0, 1e-9]]) == pytest.approx(1.0)

    @pytest.mark.xfail(raises=LPCyclingError, strict=True,
                       reason="phase 2 hits the pivot cap")
    def test_balanced_hull_with_tiny_entries(self):
        V = [[0.0, 1e-9, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0]]
        assert norm_membership_R([0.0, 1e-9, 1e-9, 0.0], V) == 0.0

    @pytest.mark.xfail(raises=LPCyclingError, strict=True,
                       reason="phase 2 hits the pivot cap")
    def test_balanced_hull_just_off_the_span(self):
        # A draw of the HiGHS differential test in test_oracles.py: z lies
        # just off the span of the two vertices (the determinant of
        # [v1; v2; z] is about 4e-11), so the value is 0.
        V = [[0.0, 1e-4, 1e-4], [1.0, 0.0, 1e-4]]
        assert norm_membership_R([0.00390625, -1.0, -1.0], V) == 0.0

    @pytest.mark.xfail(raises=LPCyclingError, strict=True,
                       reason="phase 2 hits the pivot cap")
    @pytest.mark.parametrize("V", [
        [[0.0, 0.001953125, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, -1.0]],
        [[0.0, 0.001953125, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, -1.0],
         [0.0, 1.0, -1.0]],
    ], ids=["one-basis", "twin-columns"])
    def test_balanced_hull_with_reduced_cost_round_off(self, V):
        # Draws of the same differential test.  z is 1e-4 times the second
        # vertex, so the value is 1e4.  Each rebuild of the optimal basis
        # leaves a basic column (or its twin, from the repeated vertex) a
        # reduced cost of -2.8e-10, below -PIVOT_TOL, and phase 2 pivots it
        # in again and again.
        z = [1.0000000000000002e-4, 0.0, 0.0]
        assert norm_membership_R(z, V) == pytest.approx(1e4)


class TestOneVertexBound:
    """The best single vertex bounds the LP value: from below in mode P,
    from above in mode L."""

    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_order_ideal_bound_is_below_the_lp(self, instance):
        V, z, _ = instance
        bound, best = one_vertex_bound(MODES[MODE_P], z, V)
        assert bound <= norm_membership_P(z, V) * (1.0 + 1e-12)
        pos = z > 0.0
        assert bound == np.min(V[best, pos] / z[pos])

    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_antinorm_bound_is_the_best_covering_vertex(self, instance):
        V, z, _ = instance
        bound, best = one_vertex_bound(MODES[MODE_L], z, V)
        pos = z > 0.0
        values = [np.max(v[pos] / z[pos]) for v in V if not np.any(v[~pos])]
        assert bound == min(values, default=INF)
        if best >= 0:
            assert not np.any(V[best, ~pos])
            assert bound == np.max(V[best, pos] / z[pos])

    # Entries below 1e-4 can make the antinorm LP itself raise
    # LPCyclingError, with or without the vertex start (the ratio test's
    # absolute 1e-9 tie, and a t coefficient near PIVOT_TOL).
    @settings(max_examples=300, deadline=None)
    @given(instances(MODEST))
    def test_antinorm_bound_is_above_the_lp(self, instance):
        V, z, H = instance
        bound, _ = one_vertex_bound(MODES[MODE_L], z, V)
        assert bound >= antinorm_membership_ext(z, V, None if H is None else H.T)

    @pytest.mark.xfail(raises=LPCyclingError, strict=True,
                       reason="both solves end at an answer that violates a "
                              "row by 1e-4")
    def test_antinorm_bound_with_a_large_ray_weight(self):
        # Drawn by the test above.  The value is 0 (HiGHS), at ray weight
        # 2416; the started and the two-phase solve both raise.
        V = np.array([[0.0, 0.2416199974170165], [1e-4, 0.0]])
        z = np.array([0.0, 0.375])
        H = np.array([[-0.625], [-1e-4]])
        bound, _ = one_vertex_bound(MODES[MODE_L], z, V)
        assert bound >= antinorm_membership_ext(z, V, H.T) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(instances(), st.data())
    def test_antinorm_without_covering_vertex_is_inf(self, instance, data):
        V, z, _ = instance
        i = data.draw(st.integers(0, z.size - 1))
        z[i] = 0.0
        V[:, i] = data.draw(st.floats(1e-10, 1.0))
        assume(np.any(z > 0.0))
        assert one_vertex_bound(MODES[MODE_L], z, V) == (INF, -1)

    @settings(max_examples=200, deadline=None)
    @given(instances(MODEST), st.data())
    def test_without_rays_or_covering_vertex_the_lp_is_infeasible(self, instance,
                                                                   data):
        # Every feasible weight sits on vertices that cover z.
        V, z, _ = instance
        i = data.draw(st.integers(0, z.size - 1))
        z[i] = 0.0
        V[:, i] = data.draw(st.floats(SMALL, 1.0))
        assume(np.any(z > 0.0))
        assert antinorm_membership_L(z, V) == INF

    def test_balanced_body_has_none(self):
        with pytest.raises(ValueError):
            one_vertex_bound(MODES[MODE_R], np.ones(2), np.eye(2))


class TestModeTable:
    """The rules each mode's record owns."""

    @pytest.mark.parametrize("mode, sense, span", [
        (MODE_R, "max", "linear"),
        (MODE_P, "max", "positive"),
        (MODE_L, "min", "positive"),
    ])
    def test_sense_and_span(self, mode, sense, span):
        assert set(MODES) == {MODE_R, MODE_P, MODE_L}
        assert (MODES[mode].sense, MODES[mode].span) == (sense, span)

    # Inside a norm body (R, P) a value is at least 1, inside the antinorm
    # body (L) at most 1; a zero image has the value inf.
    @pytest.mark.parametrize("mode, inside, outside", [
        (MODE_R, 1.25, 0.75), (MODE_P, 1.25, 0.75), (MODE_L, 0.75, 1.25),
    ])
    def test_slack_is_negative_inside(self, mode, inside, outside):
        spec = MODES[mode]
        assert spec.slack(inside) == -0.25
        assert spec.slack(outside) == 0.25
        assert spec.slack(INF) == (INF if mode == MODE_L else -INF)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_slack_on_the_boundary_is_positive_zero(self, mode):
        # verify reports worst_slack, so -(1.0 - t) would read -0.0 in L.
        assert repr(MODES[mode].slack(1.0)) == "0.0"

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_bound_is_the_modes_cheap_bound(self, mode):
        rng = np.random.default_rng(3)
        V = rng.uniform(0.1, 1.0, size=(5, 3))
        z = rng.uniform(0.1, 1.0, size=3)
        supports = store_of(V, [(0, 1, 2), (1, 3, 4)])
        rows = newest_first(supports, supports.slot_rows)
        assert rows.tolist() == [[0, 1, 2], [1, 3, 4]]
        t, start = MODES[mode].bound(z, V, supports)
        if mode == MODE_R:
            expected = support_bound(z, supports)
            assert expected[1] is not None
            assert t == expected[0]
            assert all(np.array_equal(a, b) for a, b in zip(start, expected[1]))
        else:
            vertex = one_vertex_bound(MODES[mode], z, V)
            assert (t, start) == (vertex[0], vertex)


class TestSupportCache:
    """The exits of the mode-R support cache that prove nothing."""

    z = np.array([0.3, 0.7])

    def test_singular_support_proves_nothing(self):
        # The store refuses the singular support, so it holds none.
        V = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        assert support_bound(self.z, store_of(V, [(0, 1)])) == (0.0, None)

    def test_support_that_misses_z_proves_nothing(self):
        # Rows 0 and 1 are independent, but so nearly parallel that the
        # coefficients (about -7e14 and 7e14) miss z by 0.05.
        V = np.array([[1.0, 0.0], [1.0, 1e-15], [0.0, 1.0]])
        supports = store_of(V, [(0, 1)])
        assert supports.count == 1  # kept: its rank in floating point is 2
        assert support_bound(self.z, supports) == (0.0, None)
        t, (rows, negative) = support_bound(self.z, store_of(V, [(0, 1), (0, 2)]))
        assert (t, rows.tolist(), negative.tolist()) == (1.0, [0, 2], [False, False])

    def test_rank_deficient_support_is_not_kept(self):
        V = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        supports = SupportStore()
        _remember_support(supports, np.array([0.5, 0.4, 0.1]), V)
        assert supports.count == 0
        _remember_support(supports, np.array([0.5, 0.1, 0.4]), V)
        assert newest_first(supports, supports.slot_rows).tolist() == [[0, 2]]
        assert np.array_equal(supports.slot_VT[0], V[[0, 2]].T)

    def test_numerically_singular_support_is_not_kept(self):
        # LU does not see rows 0 and 1 as singular (the inverse has entries
        # near 5e16), but their rank in floating point is 1.
        V = np.array([[0.1, 0.7], [0.3, 2.1], [0.0, 1.0]])
        assert np.abs(np.linalg.inv(V[:2].T)).max() > 1e16
        supports = SupportStore()
        _remember_support(supports, np.array([0.5, 0.4, 0.1]), V)
        assert supports.count == 0
        _remember_support(supports, np.array([0.5, 0.1, 0.4]), V)
        assert newest_first(supports, supports.slot_rows).tolist() == [[0, 2]]


class TestVertexStart:
    """The antinorm LP started from its covering vertex's basis runs no
    phase 1 and ends where the two-phase solve does."""

    @settings(max_examples=300, deadline=None)
    @given(instances(MODEST))
    # From the second vertex's basis the drifted tableau reached a basis
    # whose refactor the confirming step refused (a weight of -3.4e-4 and a
    # ray weight of 2.9e9); the started solve reported the value 0.
    @example((np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.15625, 0.0],
                        [0.0, 1.0, 0.0, 1.0000000000000002e-04]]),
              np.array([0.0, 1.0, 1.0000000000000002e-04, 0.0]),
              np.array([[0.0], [0.0], [0.0], [-0.1875]])))
    def test_matches_two_phases(self, instance):
        V, z, H = instance
        _, best = one_vertex_bound(MODES[MODE_L], z, V)
        assume(best >= 0)
        started = _antinorm_lp(z, V, H, _vertex_basis(z, V, best))
        plain = _antinorm_lp(z, V, H)
        assert not plain.started
        if started.started:
            assert started.phase1_pivots == 0
        assert started.status == plain.status == "optimal"
        assert started.value == pytest.approx(plain.value, rel=1e-12, abs=1e-12)

    @pytest.mark.xfail(strict=True,
                       reason="the ratio test ties rows within an absolute 1e-9 "
                              "and picks the larger pivot, so a surplus ends "
                              "at -1e-8, inside the rebuild's -1e-7")
    def test_started_solve_keeps_a_near_tied_row_feasible(self):
        # Drawn by test_matches_two_phases.  The value 1e-8 needs the ray's
        # 1e-4 entry times its weight 1e-4; the two-phase solve and HiGHS
        # give 9.999999800000005e-09, the started solve 0.
        V = np.array([[0.0, 0.0, 0.0, 0.0, 1.0]] * 4
                     + [[0.0, 0.0, 0.0, 0.0, 0.5], [1e-4, 0.0, 0.0, 0.0, 0.0]])
        z = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        H = np.array([[-1.0], [0.0], [0.0], [1e-4], [0.0]])
        _, best = one_vertex_bound(MODES[MODE_L], z, V)
        started = _antinorm_lp(z, V, H, _vertex_basis(z, V, best))
        assert started.value == pytest.approx(9.999999800000005e-09, rel=1e-12)

    def test_start_skips_phase_1(self):
        # Vertex 1 settles the point exactly: phase 2 finds nothing to do.
        z = np.array([2.0, 1.0, 0.0])
        V = np.array([[1.0, 1.0, 1.0], [1.0, 0.25, 0.0]])
        assert one_vertex_bound(MODES[MODE_L], z, V) == (0.5, 1)
        assert _vertex_basis(z, V, 1) == [0, None, None, 2]
        out = _antinorm_lp(z, V, None, _vertex_basis(z, V, 1))
        assert out.started
        assert (out.phase1_pivots, out.phase2_pivots) == (0, 0)
        assert out.value == antinorm_membership_L(z, V) == 0.5

    def test_failed_start_is_solved_again_in_two_phases(self):
        # Found by Hypothesis: from vertex 6's basis, two leaving rows tie
        # within the ratio test's absolute 1e-9, and the larger pivot
        # leaves t at -2e-7.  The started solve raises, and the two-phase
        # solve gives the true value 0.
        V = np.array([[0.0, 0.0, 0.0, 1.0]] * 5 + [[0.0, 0.5, 0.0, 0.0]])
        z = np.array([0.0, 1.0, 0.0, 0.0])
        H = np.array([[2.0 ** -9, -1.0], [0.0, -1e-4], [0.0, 0.0], [-1.0, 0.0]])
        assert _vertex_basis(z, V, 5) == [None, 0, None, None, 6]
        out = _antinorm_lp(z, V, H, _vertex_basis(z, V, 5))
        assert not out.started and out.phase1_pivots > 0
        assert out.value == 0.0
        assert antinorm_membership_ext(z, V, H.T) == 0.0
