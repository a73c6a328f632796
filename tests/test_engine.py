import math

import numpy as np
import pytest

from polyrad import (
    MODE_L,
    MODE_P,
    MODE_R,
    MatrixFamily,
    PolytopeState,
    RunConfig,
    build_cyclic_root,
    enumerate_candidates,
    final_bounds,
    iterate,
    normalize_family,
    run,
    stopping_check,
    verify,
)
from polyrad.datasets import euler_binary, random_family
from polyrad.engine import (
    ITERATION_CAPPED,
    TERMINATED,
    VertexCapError,
    _initial_state,
)

from conftest import brute_force_rates

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestKnownRuns:
    def test_jsr_pair_terminates(self, example_pair_jsr):
        out = run(example_pair_jsr, RunConfig(mode=MODE_P, max_candidate_length=4))
        assert out.status == TERMINATED
        # Known closed form sqrt(9/10) * (1 + sqrt(5)) / 2.
        assert out.value == pytest.approx(math.sqrt(0.9) * GOLDEN, abs=1e-12)
        assert out.iterations == 2
        assert out.vertex_count == 3

    def test_jsr_pair_vertices(self, example_pair_jsr):
        out = run(example_pair_jsr, RunConfig(mode=MODE_P, max_candidate_length=4))
        vertices = [v / out.certificate.vertices[0][0]
                    for v in out.certificate.vertices]
        # The extremal polytope contains these two points.
        expected = [np.array([0.586318522, 0.948683298]),
                    np.array([1.054092553, 0.402627528])]
        for target in expected:
            assert any(np.max(np.abs(v - target)) < 1e-8 for v in vertices)

    def test_lsr_pair_terminates(self, example_pair_lsr):
        out = run(example_pair_lsr,
                  RunConfig(mode=MODE_L, max_candidate_length=8))
        assert out.status == TERMINATED
        assert out.value == pytest.approx(6.009313489, abs=1e-8)
        assert out.iterations == 2
        assert out.vertex_count == 9

    def test_mode_R_on_signed_family(self, example_pair_jsr):
        # Flip a sign so mode P no longer applies; mode R still finds the
        # same value because the radius is invariant under A -> -A.
        flipped = MatrixFamily([example_pair_jsr.matrix(1),
                                -example_pair_jsr.matrix(2)])
        out = run(flipped, RunConfig(mode=MODE_R, max_candidate_length=4))
        assert out.status == TERMINATED
        assert out.value == pytest.approx(math.sqrt(0.9) * GOLDEN, abs=1e-10)


class TestSlowFamily:
    def test_default_caps_with_tight_bounds(self, slow_converging_pair):
        out = run(slow_converging_pair,
                  RunConfig(mode=MODE_P, max_candidate_length=4,
                            max_iterations=50))
        assert out.status == ITERATION_CAPPED
        assert out.iterations == 50
        lo, hi = out.bounds
        target = 1.0 + 1.0 / math.sqrt(5.0)
        assert lo <= target + 1e-12 <= hi + 1e-12
        assert hi - lo < 1e-3

    def test_remove_boundary_terminates(self, slow_converging_pair):
        out = run(slow_converging_pair,
                  RunConfig(mode=MODE_P, max_candidate_length=4,
                            remove_boundary=True))
        assert out.status == TERMINATED
        assert out.value == pytest.approx(1.0 + 1.0 / math.sqrt(5.0), abs=1e-9)


class TestProperties:
    def test_single_matrix_jsr_equals_lsr_equals_rho(self):
        for seed in range(5):
            M = np.abs(np.random.default_rng(seed).random((3, 3))) + 0.05
            fam = MatrixFamily([M])
            rho = float(np.max(np.abs(np.linalg.eigvals(M))))
            up = run(fam, RunConfig(mode=MODE_P, max_candidate_length=2))
            lo = run(fam, RunConfig(mode=MODE_L, max_candidate_length=2))
            assert up.status == TERMINATED
            assert lo.status == TERMINATED
            assert up.value == pytest.approx(rho, abs=1e-10 * max(1.0, rho))
            assert lo.value == pytest.approx(rho, abs=1e-10 * max(1.0, rho))

    def test_scale_equivariance(self, example_pair_jsr):
        base = run(example_pair_jsr,
                   RunConfig(mode=MODE_P, max_candidate_length=4))
        scaled = run(example_pair_jsr.scaled(3.0),
                     RunConfig(mode=MODE_P, max_candidate_length=4))
        assert scaled.status == TERMINATED
        assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-12)
        assert scaled.candidate.word == base.candidate.word
        assert scaled.vertex_count == base.vertex_count

    def test_terminated_certificates_verify(self, example_pair_jsr,
                                            example_pair_lsr):
        for fam, mode, length in ((example_pair_jsr, MODE_P, 4),
                                  (example_pair_lsr, MODE_L, 8)):
            out = run(fam, RunConfig(mode=mode, max_candidate_length=length))
            assert out.status == TERMINATED
            report = verify(fam, out.certificate)
            assert report.verdict, report.failures

    def test_bounds_bracket_brute_force(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            fam = MatrixFamily([rng.random((2, 2)) + 0.01 for _ in range(2)])
            hi_rate, lo_rate = brute_force_rates(fam, 6)
            up = run(fam, RunConfig(mode=MODE_P, max_candidate_length=6,
                                    max_iterations=30))
            lo = run(fam, RunConfig(mode=MODE_L, max_candidate_length=6,
                                    max_iterations=30))
            tol = 1e-9
            # The brute-force max bounds the upper radius from below and
            # the brute-force min bounds the lower radius from above.
            ulo, uhi = up.bounds
            assert ulo >= hi_rate * (1 - tol)
            assert uhi >= hi_rate * (1 - tol)
            llo, lhi = lo.bounds
            assert llo <= lo_rate * (1 + tol)
            assert lhi <= lo_rate * (1 + tol)

    def test_t_history_monotone_on_capped_run(self, slow_converging_pair):
        cand = enumerate_candidates(slow_converging_pair, 4, "max")
        scaled = normalize_family(slow_converging_pair, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=False)
        state = _initial_state(root, slow_converging_pair.size)
        config = RunConfig(mode=MODE_P, stopping_enabled=False)
        minima = []
        for _ in range(15):
            iterate(state, scaled, config)
            if state.t_history[-1]:
                minima.append(min(state.t_history[-1]))
        for earlier, later in zip(minima, minima[1:]):
            assert later >= earlier - 1e-12


class TestErrorsAndEdges:
    def test_bad_mode(self, example_pair_jsr):
        with pytest.raises(ValueError):
            run(example_pair_jsr, RunConfig(mode="X"))

    def test_mode_P_rejects_signed_family(self):
        fam = MatrixFamily([-np.eye(2)])
        with pytest.raises(ValueError):
            run(fam, RunConfig(mode=MODE_P))

    def test_nilpotent_family_lsr_zero(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        fam = MatrixFamily([N, np.eye(2)])
        out = run(fam, RunConfig(mode=MODE_L, max_candidate_length=2))
        assert out.status == TERMINATED
        assert out.value == 0.0
        assert out.certificate is None

    def test_vertex_cap_reports_bounds(self, slow_converging_pair):
        out = run(slow_converging_pair,
                  RunConfig(mode=MODE_P, max_candidate_length=4,
                            max_iterations=50, vertex_cap=20))
        assert out.status == ITERATION_CAPPED
        lo, hi = out.bounds
        assert lo <= hi

    def test_complex_leading_candidate_inapplicable(self):
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        fam = MatrixFamily([2.0 * R])
        out = run(fam, RunConfig(mode=MODE_R, max_candidate_length=2))
        assert out.status == "inapplicable"

    @pytest.mark.parametrize("matrices, mode", [
        ([np.diag([2.0, 1.0])], MODE_P),
        ([np.diag([2.0, 1.0])], MODE_L),
        ([np.diag([2.0, -1.0])], MODE_R),
        # JSR 1.5350018 comes from the 2x2 blocks, not the shared 1.2.
        ([np.block([[np.array([[1.2]]), np.zeros((1, 2))],
                    [np.zeros((2, 1)), B]])
          for B in (np.array([[1.0, 1.0], [0.0, 1.0]]),
                    0.9 * np.array([[1.0, 0.0], [1.0, 1.0]]))], MODE_P),
    ], ids=["diag-P", "diag-L", "diag-R", "blockdiag-P"])
    def test_reducible_family_inapplicable(self, matrices, mode):
        # The polytope stops growing inside an invariant coordinate
        # subspace, which proves nothing about the other coordinates.
        out = run(MatrixFamily(matrices),
                  RunConfig(mode=mode, max_candidate_length=1))
        assert out.status == "inapplicable"
        assert out.certificate is None
        assert out.value is None
        assert "reducible" in out.message


class TestStoppingCheck:
    def test_root_vertices_pass(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        for v in root.vertices:
            assert stopping_check(MODE_P, root.duals, v, 1e-10) is None

    def test_scaled_vertex_violates(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        assert stopping_check(MODE_R, root.duals, 2.0 * root.vertices[0],
                              1e-10) == 1

    def test_mode_L_direction(self, example_pair_lsr):
        cand = enumerate_candidates(example_pair_lsr, 8, "min")
        scaled = normalize_family(example_pair_lsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        # Shrinking a vertex lowers the pairing below 1: a violation in L.
        assert stopping_check(MODE_L, root.duals, 0.5 * root.vertices[0],
                              1e-10) == 1


class TestFinalBounds:
    def test_terminated_bounds_collapse(self, example_pair_jsr):
        out = run(example_pair_jsr, RunConfig(mode=MODE_P, max_candidate_length=4))
        lo, hi = out.bounds
        assert lo == pytest.approx(out.value)
        assert hi == pytest.approx(out.value)

    def test_capped_ordering(self, slow_converging_pair):
        out = run(slow_converging_pair,
                  RunConfig(mode=MODE_P, max_candidate_length=4,
                            max_iterations=10))
        lo, hi = out.bounds
        assert lo <= hi
        assert out.t_N is not None

    def test_run_capped_before_any_iteration_leaves_upper_open(self):
        # The vertex cap is hit inside the first iteration, so no membership
        # value bounds the radius from above.
        fam = random_family("gaussian-equal-norm", 7, 2, 0)
        out = run(fam, RunConfig(mode=MODE_R, max_candidate_length=6,
                                 max_iterations=10, vertex_cap=60))
        assert out.status == ITERATION_CAPPED
        assert out.iterations == 0
        assert out.bounds[0] == out.candidate.rho_per_step
        assert out.bounds[1] == math.inf

    @pytest.mark.parametrize("mode, expected", [
        (MODE_L, (0.0, 1.5, None)),
        (MODE_P, (1.5, math.inf, None)),
        (MODE_R, (1.5, math.inf, None)),
    ])
    def test_empty_history_leaves_far_side_open(self, mode, expected):
        state = PolytopeState(word=(1,))
        assert final_bounds(state, mode, 1.5) == expected


class TestModeRecord:
    def test_negated_vertex_pairs_through_abs_only_in_R(self, example_pair_jsr):
        # The pairing with -2 v is -2: beyond 1 in absolute value (mode R),
        # below 1 and so admissible for the one-sided mode P.
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        z = -2.0 * root.vertices[0]
        assert stopping_check(MODE_R, root.duals, z, 1e-10) == 1
        assert stopping_check(MODE_P, root.duals, z, 1e-10) is None

    @pytest.mark.parametrize("mode, history, expected", [
        (MODE_P, [[0.5, 0.8]], (1.5, 3.0, 0.5)),
        (MODE_P, [[2.0, 4.0]], (1.5, 1.5, 2.0)),
        (MODE_L, [[0.5, 0.8]], (1.5, 1.5, 0.8)),
        (MODE_L, [[2.0, 4.0]], (0.375, 1.5, 4.0)),
    ])
    def test_final_bounds_from_history(self, mode, history, expected):
        state = PolytopeState(word=(1,), t_history=history)
        assert final_bounds(state, mode, 1.5) == expected


class TestZeroImages:
    @pytest.mark.parametrize("matrices, mode, value", [
        ([np.ones((2, 2)), np.zeros((2, 2))], MODE_P, 2.0),
        # JSR 1 + sqrt(1/2); the second matrix maps e2 to zero.
        ([np.array([[1.0, 1.0], [0.5, 1.0]]),
          np.array([[0.0, 0.0], [1.0, 0.0]])], MODE_R, 1.7071067811865475),
    ], ids=["zero-matrix-P", "kills-e2-R"])
    def test_zero_image_is_inside_norm_body(self, matrices, mode, value):
        fam = MatrixFamily(matrices)
        out = run(fam, RunConfig(mode=mode))
        assert out.status == TERMINATED
        assert out.value == pytest.approx(value, abs=1e-12)
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures


class TestBoundaryTolerance:
    @pytest.mark.parametrize("tol", [-1e-12, 1e-3, math.nan])
    def test_out_of_range_rejected(self, example_pair_jsr, tol):
        with pytest.raises(ValueError, match="boundary_tol"):
            run(example_pair_jsr, RunConfig(mode=MODE_P, boundary_tol=tol))


class TestModePCycling:
    """Mode-P runs whose membership LPs cycled in the two-phase simplex."""

    @pytest.mark.parametrize("dim, seed, iterations", [
        (50, 4, 50), (20, 104, 20), (20, 105, 20), (20, 132, 20), (20, 146, 20),
    ], ids=["d50-s4", "d20-s104", "d20-s105", "d20-s132", "d20-s146"])
    def test_binary_family_finishes(self, dim, seed, iterations):
        fam = random_family("binary", dim, 2, seed)
        out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=4,
                                 max_iterations=iterations))
        assert out.status in (TERMINATED, ITERATION_CAPPED)
        lo, hi = out.bounds
        assert lo <= hi <= lo * (1.0 + 1e-6)


class TestPermutedCoordinates:
    """A permutation similarity leaves the joint spectral radius unchanged,
    so a permuted run must not fail, and one that terminates must give the
    published value with a certificate that verifies.  Whether it
    terminates may change with the permutation."""

    @pytest.mark.parametrize("r, jsr", [(7, 3.511547), (11, 5.505892)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_permuted_euler_binary(self, r, jsr, seed):
        fam = euler_binary(r)
        perm = np.random.default_rng(seed).permutation(fam.dim)
        permuted = MatrixFamily([A[np.ix_(perm, perm)] for A in fam.matrices])
        out = run(permuted, RunConfig(mode=MODE_P, max_candidate_length=6))
        assert out.status in (TERMINATED, ITERATION_CAPPED)
        lo, hi = out.bounds
        assert lo - 1e-6 <= jsr <= hi + 1e-6
        if out.status == TERMINATED:
            assert out.value == pytest.approx(jsr, abs=1e-6)
            report = verify(permuted, out.certificate)
            assert report.verdict, report.failures
