import numpy as np
import pytest

from polyrad import (
    antinorm_membership_L,
    antinorm_membership_ext,
    norm_membership_P,
    norm_membership_R,
)
from polyrad.membership import cone_ray_margin

INF = float("inf")


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
        with pytest.raises(ValueError):
            norm_membership_R([1.0, 0.0], [])


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
            from polyrad import LinearProgram, solve_lp
            k = len(V)
            rows = [(np.concatenate(([0.0], np.ones(k))), "<=", 1.0)]
            for i in range(3):
                rows.append((np.concatenate(([0.0], -Vm[:, i])), "<=",
                             -t * z[i] * (1 - 1e-9)))
            out = solve_lp(LinearProgram("max", np.zeros(k + 1), rows,
                                         [(0.0, None)] * (k + 1)))
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
