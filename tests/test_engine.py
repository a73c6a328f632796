import math

import numpy as np
import pytest

from polyrad import (
    MODE_L,
    MODE_P,
    MODE_R,
    InapplicableError,
    MatrixFamily,
    PolytopeState,
    RunConfig,
    VertexNode,
    build_cyclic_root,
    enumerate_candidates,
    final_bounds,
    iterate,
    normalize_family,
    run,
    stopping_check,
    symmetric_twins,
    verify,
)
from polyrad.datasets import euler_binary, random_family
from polyrad.engine import (
    BOUNDARY_TOL,
    ITERATION_CAPPED,
    TERMINATED,
    _DUP_TOL,
    MembershipCounts,
    StoppingViolation,
    VertexCapError,
    _initial_state,
    _is_duplicate,
    _path_word,
)

from polyrad.membership import MODES

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
        assert out.certificate.tolerance == BOUNDARY_TOL == 1e-10

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
        state = _initial_state([root], slow_converging_pair.size)
        config = RunConfig(mode=MODE_P)
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
        assert out.message == "vertex cap 20 exceeded"
        lo, hi = out.bounds
        assert lo <= hi

    def test_restart_word_does_not_overflow(self):
        # Restarts double the word up to 386 letters; the next one's product
        # overflows in the unscaled family, so the restart fails and the run
        # re-enumerates two letters longer instead.
        out = run(random_family("nonneg-uniform", 6, 2, 2),
                  RunConfig(mode=MODE_P, max_candidate_length=2))
        assert out.status in (TERMINATED, ITERATION_CAPPED)

    def test_complex_leading_candidate_inapplicable(self):
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        fam = MatrixFamily([2.0 * R])
        out = run(fam, RunConfig(mode=MODE_R, max_candidate_length=2))
        assert out.status == "inapplicable"

    def test_zero_image_in_mode_L_is_inapplicable(self):
        # The second generator maps the vertex (1, 0) exactly to zero; no
        # antinorm body holds a zero image, so the construction stops.
        fam = MatrixFamily([np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]])])
        state = PolytopeState(words=((1,),), nodes=[VertexNode(None, None, 1)],
                              vertices=np.array([[1.0, 0.0]]), R=[(0, 2)])
        with pytest.raises(InapplicableError, match="maps a vertex to zero"):
            iterate(state, fam, RunConfig(mode=MODE_L))

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
            assert stopping_check(MODE_P, root.duals, v) is None

    def test_scaled_vertex_violates(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        assert stopping_check(MODE_R, root.duals, 2.0 * root.vertices[0]) == 1

    def test_mode_L_direction(self, example_pair_lsr):
        cand = enumerate_candidates(example_pair_lsr, 8, "min")
        scaled = normalize_family(example_pair_lsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        # Shrinking a vertex lowers the pairing below 1: a violation in L.
        assert stopping_check(MODE_L, root.duals, 0.5 * root.vertices[0]) == 1


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

    @pytest.mark.parametrize("d, seed, cap", [(3, 16, 1), (3, 0, 2), (4, 17, 1)])
    def test_mode_r_run_capped_before_the_vertices_span_leaves_upper_open(
            self, d, seed, cap):
        # The last iteration holds an image outside the span of the
        # vertices, whose membership value is 0; the LP reads it as round-off
        # near 1e-16, which must not turn into a finite upper bound.
        fam = random_family("gaussian-equal-norm", d, 2, seed)
        out = run(fam, RunConfig(mode=MODE_R, max_candidate_length=8,
                                 max_iterations=cap))
        assert out.status == ITERATION_CAPPED
        assert out.iterations == cap
        assert out.t_N == 0.0
        assert out.bounds == (out.candidate.rho_per_step, math.inf)

    @pytest.mark.parametrize("mode, expected", [
        (MODE_L, (0.0, 1.5, None)),
        (MODE_P, (1.5, math.inf, None)),
        (MODE_R, (1.5, math.inf, None)),
    ])
    def test_empty_history_leaves_far_side_open(self, mode, expected):
        state = PolytopeState(words=((1,),))
        assert final_bounds(state, mode, 1.5) == expected


class TestModeRecord:
    def test_negated_vertex_pairs_through_abs_only_in_R(self, example_pair_jsr):
        # The pairing with -2 v is -2: beyond 1 in absolute value (mode R),
        # below 1 and so admissible for the one-sided mode P.
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        z = -2.0 * root.vertices[0]
        assert stopping_check(MODE_R, root.duals, z) == 1
        assert stopping_check(MODE_P, root.duals, z) is None

    @pytest.mark.parametrize("mode, history, expected", [
        (MODE_P, [[0.5, 0.8]], (1.5, 3.0, 0.5)),
        (MODE_P, [[2.0, 4.0]], (1.5, 1.5, 2.0)),
        (MODE_L, [[0.5, 0.8]], (1.5, 1.5, 0.8)),
        (MODE_L, [[2.0, 4.0]], (0.375, 1.5, 4.0)),
    ])
    def test_final_bounds_from_history(self, mode, history, expected):
        state = PolytopeState(words=((1,),), t_history=history)
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
    """A permutation similarity leaves both radii unchanged.  The symmetric
    twin chain is found in any coordinate order, so every permuted run
    terminates, with the published value, a certificate that verifies,
    and the iteration and vertex counts of the unpermuted run."""

    @staticmethod
    def _check(r, mode, value, seed):
        fam = euler_binary(r)
        perm = np.random.default_rng(seed).permutation(fam.dim)
        permuted = MatrixFamily([A[np.ix_(perm, perm)] for A in fam.matrices])
        config = RunConfig(mode=mode, max_candidate_length=6)
        base = run(fam, config)
        out = run(permuted, config)
        assert out.status == TERMINATED
        assert out.value == pytest.approx(value, abs=1e-6)
        assert ((out.iterations, out.vertex_count)
                == (base.iterations, base.vertex_count))
        report = verify(permuted, out.certificate)
        assert report.verdict, report.failures

    @pytest.mark.parametrize("r, jsr", [(7, 3.511547), (11, 5.505892),
                                        (13, 6.502167)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_permuted_euler_binary(self, r, jsr, seed):
        self._check(r, MODE_P, jsr, seed)

    @pytest.mark.parametrize("r, lsr", [(7, 3.491891), (11, 5.497042),
                                        (13, 6.498946)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_permuted_euler_binary_lsr(self, r, lsr, seed):
        self._check(r, MODE_L, lsr, seed)

    @pytest.mark.parametrize("d, family_seed", [(5, 4), (6, 2), (7, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_gaussian_mode_r(self, d, family_seed, seed):
        # Signed families have no twin chain; the permuted run must still
        # match the unpermuted one step for step.
        fam = random_family("gaussian-equal-norm", d, 2, family_seed)
        perm = np.random.default_rng(seed).permutation(d)
        P = np.eye(d)[perm]
        permuted = MatrixFamily([P @ A @ P.T for A in fam.matrices])
        config = RunConfig(mode=MODE_R, max_candidate_length=6)
        base, out = run(fam, config), run(permuted, config)
        assert out.status == base.status == TERMINATED
        assert ((out.iterations, out.vertex_count)
                == (base.iterations, base.vertex_count))
        assert out.value == pytest.approx(base.value, rel=1e-12)
        report = verify(permuted, out.certificate)
        assert report.verdict, report.failures


class TestRootChains:
    def test_path_word_follows_the_twin_chain(self):
        # Chain 1 has the word (2, 1, 1); node 5 is A_2 applied to its
        # third root.  A chain-less root made this lookup fail.
        state = PolytopeState(words=((1, 2), (2, 1, 1)))
        state.nodes = [VertexNode(None, None, 1, 0),
                       VertexNode(None, None, 2, 0),
                       VertexNode(None, None, 1, 1),
                       VertexNode(None, None, 2, 1),
                       VertexNode(None, None, 3, 1),
                       VertexNode(4, 2, chain=1)]
        assert _path_word(state, 5, 1, 1) == (2, 1, 2, 1)
        assert _path_word(state, 5, 1, 2) == (1, 2, 1)
        assert _path_word(state, 5, 1, 3) == (2, 1)

    def test_initial_state_seeds_every_chain(self):
        fam = euler_binary(7)
        cand = enumerate_candidates(fam, 6, "max")
        scaled = normalize_family(fam, cand.rho_per_step)
        roots = [build_cyclic_root(scaled, c, with_duals=True)
                 for c in (cand,) + symmetric_twins(fam, cand)]
        state = _initial_state(roots, fam.size)
        assert state.words == ((1,), (2,))
        assert [(n.chain, n.root_index) for n in state.nodes] == [(0, 1), (1, 1)]
        # Each root's own letter leads back to it, so one pair per root.
        assert state.R == [(0, 2), (1, 1)]

    def test_violation_names_the_twin_chain(self):
        # Chain 0's duals never fire; chain 1's are scaled so that any
        # alive descendant of the twin root violates its test.
        fam = euler_binary(7)
        cand = enumerate_candidates(fam, 6, "max")
        scaled = normalize_family(fam, cand.rho_per_step)
        roots = [build_cyclic_root(scaled, c, with_duals=True)
                 for c in (cand,) + symmetric_twins(fam, cand)]
        duals = [tuple(0.0 * d for d in roots[0].duals),
                 tuple(1e3 * d for d in roots[1].duals)]
        state = _initial_state(roots, fam.size)
        with pytest.raises(StoppingViolation) as caught:
            iterate(state, scaled, RunConfig(mode=MODE_P), duals)
        assert caught.value.chain == 1
        assert (caught.value.j, caught.value.path) == (1, (1,))

    def test_tie_without_symmetry_seeds_one_chain(self):
        # Words (1) and (2) tie at radius 1, but no coordinate permutation
        # relates the generators, so only the candidate's chain is seeded.
        fam = random_family("binary", 20, 2, 2)
        cand = enumerate_candidates(fam, 4, "max")
        assert symmetric_twins(fam, cand) == ()
        out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=4))
        assert out.status == TERMINATED
        assert out.root_words == (cand.word,)
        assert (out.iterations, out.vertex_count) == (25, 48)
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures


class TestVertexArray:
    def test_is_duplicate_reads_the_rows(self):
        z = np.array([4.0, -1.0, 0.5])
        tol = _DUP_TOL * 4.0  # the tolerance scales with max |z_i|
        near = np.array([[0.0, 0.0, 0.0], z + [0.0, 0.5 * tol, -0.5 * tol]])
        far = np.array([[0.0, 0.0, 0.0], z + [0.0, 2.0 * tol, 0.0]])
        assert _is_duplicate(z, near)
        assert not _is_duplicate(z, far)

    def test_duplicate_tolerance_is_at_least_absolute(self):
        offset = np.array([[2.0 * _DUP_TOL, 0.0]])
        small = np.array([0.5, 0.25])  # max |z_i| < 1: absolute tolerance
        large = np.array([4.0, 0.25])
        assert not _is_duplicate(small, small + offset)
        assert _is_duplicate(large, large + offset)

    def test_vertices_stay_aligned_with_nodes(self):
        fam = euler_binary(7)
        cand = enumerate_candidates(fam, 6, "max")
        scaled = normalize_family(fam, cand.rho_per_step)
        roots = [build_cyclic_root(scaled, c, with_duals=True)
                 for c in (cand,) + symmetric_twins(fam, cand)]
        state = _initial_state(roots, fam.size)
        for _ in range(3):
            iterate(state, scaled, RunConfig(mode=MODE_P))
        V = state.vertices
        assert V.shape == (len(state.nodes), fam.dim) and len(V) > len(roots)
        for i, node in enumerate(state.nodes):
            if node.parent is None:
                expected = roots[node.chain].vertices[node.root_index - 1]
            else:
                expected = scaled.matrix(node.generator) @ V[node.parent]
            assert np.array_equal(V[i], expected)


class TestOneVertexSkip:
    """An image that one vertex already puts inside the body gets no LP."""

    @pytest.mark.parametrize("mode, iterations, vertices", [
        (MODE_P, 4, 16), (MODE_L, 6, 28)])
    def test_euler_binary_13_skips_lps(self, mode, iterations, vertices):
        out = run(euler_binary(13), RunConfig(mode=mode, max_candidate_length=6))
        assert out.status == TERMINATED
        assert (out.iterations, out.vertex_count) == (iterations, vertices)
        assert out.lps_skipped > 0 and out.lps_solved > 0
        # Every image of the last iteration is dead, one-vertex bound or not.
        assert MODES[mode].sign * out.t_N > MODES[mode].sign

    def test_mode_r_solves_every_lp(self):
        out = run(euler_binary(13), RunConfig(mode=MODE_R, max_candidate_length=6,
                                              max_iterations=3))
        assert out.lps_skipped == 0 and out.lps_solved > 0

    @pytest.mark.parametrize("mode, matrix, t, solved", [
        (MODE_P, [[0.5, 0.0], [0.0, 0.5]], 2.0, 0),
        (MODE_L, [[2.0, 0.0], [0.0, 2.0]], 0.5, 0),
        # The bound 1 leaves the image on the boundary: the LP decides.
        (MODE_P, [[1.0, 0.0], [0.0, 0.5]], 1.0, 1),
    ], ids=["P-inside", "L-inside", "P-boundary"])
    def test_iterate_records_the_bound_when_it_decides(self, mode, matrix, t,
                                                       solved):
        state = PolytopeState(words=((1,),), nodes=[VertexNode(None, None, 1)],
                              vertices=np.ones((1, 2)), R=[(0, 1)])
        counts = MembershipCounts()
        iterate(state, MatrixFamily([np.array(matrix)]), RunConfig(mode=mode),
                counts=counts)
        assert state.t_history == [[t]]
        assert (counts.solved, counts.skipped) == (solved, 1 - solved)

    def test_nonneg_uniform_lsr_without_tie_failure(self):
        # The two-phase antinorm LP raised "LPCyclingError: solution
        # violates constraints by 0.0048687" here; started from the best
        # vertex it needs no phase 1.
        fam = random_family("nonneg-uniform", 6, 2, 216816280)
        out = run(fam, RunConfig(mode=MODE_L, max_candidate_length=2,
                                 max_iterations=2))
        assert out.status == ITERATION_CAPPED
        lo, hi = out.bounds
        assert lo == pytest.approx(3.2199818, abs=1e-6)
        assert hi == pytest.approx(3.2200121, abs=1e-6)
