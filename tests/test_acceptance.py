"""End-to-end acceptance checks for the full pipeline.

Each numbered test exercises one headline capability: exact termination on
the known 2x2 pairs, the counting families, bounds-only behaviour on the
slowly converging family, the cone extension for families with collapsing
coordinates, property suites against brute-force oracles, and one larger
random instance.
"""

import json
import math
import time

import numpy as np
import pytest

from polyrad import (
    MODE_L,
    MODE_P,
    MatrixFamily,
    RunConfig,
    build_cyclic_root,
    detect_near_boundary,
    enumerate_candidates,
    iterate,
    normalize_family,
    rays_from_index_sets,
    root_profile,
    run,
    spectral_radius,
    validate_cone,
    verify,
    word_matrix,
)
from polyrad.cone import PROBE_ITERS
from polyrad.matrices import word_reading
from polyrad.cli import dump_family, main
from polyrad.datasets import (
    euler_binary,
    euler_ternary_14,
    overlap_free,
    pascal_rhombus,
    random_family,
)
from polyrad.engine import ITERATION_CAPPED, TERMINATED, _initial_state
from polyrad.simplex import solve_lp

from conftest import brute_force_rates
from test_simplex import oracle_solve, random_bounded_program

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _rotations(word):
    reading = word_reading(word)
    n = len(reading)
    return {reading[i:] + reading[:i] for i in range(n)}


def test_01_jsr_pair_exact():
    A1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    A2 = 0.9 * np.array([[1.0, 0.0], [1.0, 1.0]])
    fam = MatrixFamily((A1, A2))
    start = time.monotonic()
    out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=4))
    elapsed = time.monotonic() - start
    assert out.status == TERMINATED
    assert out.value == pytest.approx(math.sqrt(0.9) * GOLDEN, abs=1e-8)
    assert out.iterations == 2
    assert out.vertex_count == 3
    vertices = [v / out.certificate.vertices[0][0]
                for v in out.certificate.vertices]
    for target in (np.array([0.586318522, 0.948683298]),
                   np.array([1.054092553, 0.402627528])):
        assert any(np.max(np.abs(v - target)) < 1e-8 for v in vertices)
    assert elapsed < 1.0


def test_02_lsr_pair_exact():
    fam = MatrixFamily((np.array([[7.0, 0.0], [2.0, 3.0]]),
                        np.array([[2.0, 4.0], [0.0, 8.0]])))
    start = time.monotonic()
    out = run(fam, RunConfig(mode=MODE_L, max_candidate_length=8))
    elapsed = time.monotonic() - start
    closed_form = (4.0 * (213803.0 + math.sqrt(44666192953.0))) ** (1.0 / 8.0)
    assert out.status == TERMINATED
    assert out.value == pytest.approx(closed_form, abs=1e-8)
    assert out.value == pytest.approx(6.009313489, abs=1e-8)
    assert out.iterations == 2
    assert out.vertex_count == 9
    assert elapsed < 1.0


def test_03_pascal_rhombus_lsr():
    fam = pascal_rhombus().transposed()
    start = time.monotonic()
    out = run(fam, RunConfig(mode=MODE_L, max_candidate_length=6,
                             remove_boundary=True))
    elapsed = time.monotonic() - start
    expected = spectral_radius(
        word_matrix(fam, (1, 1, 1, 2, 2, 2))) ** (1.0 / 6.0)
    assert out.status == TERMINATED
    assert out.value == pytest.approx(expected, abs=1e-9)
    assert out.value == pytest.approx(1.6376, abs=1e-4)
    assert out.value > GOLDEN + 1e-3
    assert out.vertex_count == 8
    assert elapsed < 10.0


# Published six-decimal values and optimal product readings for the binary
# partial-sum families: r -> (upper value, upper word, lower value, lower word).
EULER_BINARY_TABLE = {
    7: (3.511547, (1,), 3.491891, (1, 2)),
    9: (4.503099, (1, 2), 4.494492, (1,)),
    11: (5.505892, (1,), 5.497042, (1, 2)),
    13: (6.502167, (1,), 6.498946, (1, 2)),
    15: (7.500106, (1, 2), 7.499841, (1,)),
}


@pytest.mark.parametrize("r", sorted(EULER_BINARY_TABLE))
def test_04_euler_binary_table(r):
    fam = euler_binary(r)
    jsr_value, jsr_word, lsr_value, lsr_word = EULER_BINARY_TABLE[r]
    for mode, value, reading in ((MODE_P, jsr_value, jsr_word),
                                 (MODE_L, lsr_value, lsr_word)):
        start = time.monotonic()
        out = run(fam, RunConfig(mode=mode, max_candidate_length=6))
        elapsed = time.monotonic() - start
        # Where the other letter's word ties with the candidate (the two
        # generators are similar through the coordinate reversal), its
        # twin root chain lets the run terminate as well.
        assert out.status == TERMINATED
        lo, hi = out.bounds
        assert abs(lo - value) <= 1e-6
        assert abs(hi - value) <= 1e-6
        assert tuple(reading) in _rotations(out.candidate.word)
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures
        assert elapsed < 120.0


def test_05_overlap_free_jsr():
    fam = overlap_free()
    start = time.monotonic()
    out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=8))
    elapsed = time.monotonic() - start
    assert out.status == TERMINATED
    assert out.value == pytest.approx(
        math.sqrt(spectral_radius(word_matrix(fam, (1, 2)))), abs=1e-8)
    assert out.value == pytest.approx(2.517934040, abs=1e-8)
    assert elapsed < 15 * 60.0


def test_05_overlap_free_lsr_value_and_cone():
    fam = overlap_free()
    start = time.monotonic()
    cand = enumerate_candidates(fam, 11, "min")
    assert cand.rho_per_step == pytest.approx(2.417562630, abs=1e-8)

    # Growing the antinorm polytope reveals two groups of coordinates that
    # collapse together; the cone extension is negotiated from them.
    scaled = normalize_family(fam, cand.rho_per_step)
    root = build_cyclic_root(scaled, cand, with_duals=True)
    state = _initial_state([root], fam.size)
    config = RunConfig(mode=MODE_L)
    for _ in range(PROBE_ITERS):
        iterate(state, scaled, config)
    detected = detect_near_boundary(state.vertices, 1.0 / 200.0)
    assert (5, 10, 17, 18) in detected
    assert (7, 8, 15, 20) in detected

    out = run(fam, RunConfig(mode=MODE_L, max_candidate_length=11))
    elapsed = time.monotonic() - start
    assert out.cone is not None
    assert out.bounds[1] == pytest.approx(2.417562630, abs=1e-8)
    assert elapsed < 15 * 60.0


def test_05_overlap_free_lsr_finite_termination():
    # Rays that are 1 off their index set cannot make the cone from both
    # detected sets invariant: row 18 of A1 is e8 + e15, so covering the
    # second set's image needs weight 2 on the first set's ray, while row 9
    # (e3) keeps the total weight below 1.  Rays built on the profile of the
    # cyclic-root vertices, as the engine builds them, keep coordinate 8
    # covered, and the run below terminates inside the widened cone.
    fam = overlap_free()
    cand = enumerate_candidates(fam, 11, "min")
    scaled = normalize_family(fam, cand.rho_per_step)
    root = build_cyclic_root(scaled, cand, with_duals=False)
    ext = rays_from_index_sets([(5, 10, 17, 18), (7, 8, 15, 20)], 20, 0.25,
                               profile=root_profile(root.vertices))
    ok, _ = validate_cone(scaled, ext)
    assert ok, "the cone from both detected index sets is not invariant"
    start = time.monotonic()
    out = run(fam, RunConfig(mode=MODE_L, max_candidate_length=11))
    elapsed = time.monotonic() - start
    assert elapsed < 15 * 60.0
    assert out.status == TERMINATED
    assert out.value == pytest.approx(2.417562630, abs=1e-8)


def test_06_euler_ternary():
    fam = euler_ternary_14()
    start = time.monotonic()
    up = run(fam, RunConfig(mode=MODE_P, max_candidate_length=6))
    lo = run(fam, RunConfig(mode=MODE_L, max_candidate_length=6))
    elapsed = time.monotonic() - start
    assert up.status == TERMINATED
    assert lo.status == TERMINATED
    assert up.value == pytest.approx(
        math.sqrt(spectral_radius(word_matrix(fam, (3, 2)))), abs=1e-7)
    assert up.value == pytest.approx(4.72204513, abs=1e-7)
    assert lo.value == pytest.approx(
        math.sqrt(spectral_radius(word_matrix(fam, (1, 2)))), abs=1e-7)
    assert lo.value == pytest.approx(4.61047781, abs=1e-7)
    assert elapsed < 15 * 60.0


def test_07_slow_family_cli_exit_codes(tmp_path, capsys):
    fam = MatrixFamily([np.array([[1.0, 1.0], [0.0, 1.0]]),
                        0.8 * np.array([[1.0, 0.0], [1.0, 1.0]])])
    path = str(tmp_path / "slow.json")
    with open(path, "w", encoding="utf-8") as handle:
        dump_family(fam, handle)
    target = 1.0 + 1.0 / math.sqrt(5.0)

    code = main(["compute", "--input", path, "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["status"] == ITERATION_CAPPED
    assert payload["iterations"] == 50
    assert payload["value_lo"] <= target + 1e-12
    assert payload["value_hi"] >= target - 1e-12
    assert payload["value_hi"] - payload["value_lo"] < 1e-3

    code = main(["compute", "--input", path, "--remove-boundary",
                 "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == TERMINATED
    assert payload["value"] == pytest.approx(target, abs=1e-9)


def test_08a_single_matrix_both_radii_equal_rho():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        M = rng.random((dim, dim)) + 0.05
        fam = MatrixFamily([M])
        rho = spectral_radius(M)
        up = run(fam, RunConfig(mode=MODE_P, max_candidate_length=2))
        lo = run(fam, RunConfig(mode=MODE_L, max_candidate_length=2))
        assert up.status == TERMINATED and lo.status == TERMINATED
        tol = 1e-10 * max(1.0, rho)
        assert abs(up.value - rho) <= tol
        assert abs(lo.value - rho) <= tol


def test_08bc_random_families_bracket_brute_force_and_verify():
    rng = np.random.default_rng(515)
    terminated = 0
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        fam = MatrixFamily([rng.random((dim, dim)) + 0.01 for _ in range(2)])
        hi_rate, lo_rate = brute_force_rates(fam, 6)
        up = run(fam, RunConfig(mode=MODE_P, max_candidate_length=6,
                                max_iterations=25))
        lo = run(fam, RunConfig(mode=MODE_L, max_candidate_length=6,
                                max_iterations=25))
        tol = 1e-9
        # The brute-force max is a lower bound on the upper radius and the
        # brute-force min is an upper bound on the lower radius; restarts
        # can only improve on the enumerated candidate, never regress.
        assert up.bounds[0] >= hi_rate * (1 - tol)
        assert up.bounds[1] >= hi_rate * (1 - tol)
        assert lo.bounds[0] <= lo_rate * (1 + tol)
        assert lo.bounds[1] <= lo_rate * (1 + tol)
        for out in (up, lo):
            if out.status == TERMINATED and out.certificate is not None:
                report = verify(fam, out.certificate)
                assert report.verdict, report.failures
                terminated += 1
    assert terminated > 0


def test_08d_membership_extremes_monotone():
    fam = MatrixFamily([np.array([[1.0, 1.0], [0.0, 1.0]]),
                        0.8 * np.array([[1.0, 0.0], [1.0, 1.0]])])
    cand = enumerate_candidates(fam, 4, "max")
    scaled = normalize_family(fam, cand.rho_per_step)
    root = build_cyclic_root(scaled, cand, with_duals=False)
    state = _initial_state([root], fam.size)
    config = RunConfig(mode=MODE_P)
    minima = []
    for _ in range(20):
        iterate(state, scaled, config)
        if state.t_history[-1]:
            minima.append(min(state.t_history[-1]))
    assert len(minima) >= 10
    for earlier, later in zip(minima, minima[1:]):
        assert later >= earlier - 1e-12


def test_08e_lp_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        lp = random_bounded_program(rng)
        outcome = solve_lp(lp)
        assert outcome.status == "optimal"
        best = oracle_solve(lp)
        assert abs(outcome.value - best) <= 1e-8


def test_09_large_binary_family():
    fam = random_family("binary", 50, 2, seed=0, density=0.5)
    start = time.monotonic()
    out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=4))
    elapsed = time.monotonic() - start
    assert elapsed < 30 * 60.0
    if out.status == TERMINATED:
        assert out.bounds[1] - out.bounds[0] <= 1e-12
    else:
        assert out.status == ITERATION_CAPPED
        assert out.bounds[1] - out.bounds[0] < 1e-4
