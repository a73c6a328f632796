import itertools
import math

import numpy as np
import pytest

from polyrad import (
    MODE_P,
    EnumerationBudgetError,
    MatrixFamily,
    RunConfig,
    build_cyclic_root,
    enumerate_candidates,
    leading_eigen_analysis,
    make_candidate,
    normalize_family,
    primitive_root_word,
    restart_product,
    run,
    spectral_radius,
    symmetric_twins,
    verify,
    word_matrix,
)
from polyrad.candidates import (
    RestartFailedError,
    _block_products,
    _coordinate_permutation,
    _lyndon_readings,
)
from polyrad.datasets import euler_binary, random_family
from polyrad.matrices import MatrixError, spectral_radii

from conftest import brute_force_rates, naive_word_matrix

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestEnumeration:
    def test_single_matrix(self):
        fam = MatrixFamily([np.diag([3.0, 1.0])])
        cand = enumerate_candidates(fam, 3, "max")
        assert cand.word == (1,)
        assert cand.rho_per_step == pytest.approx(3.0)

    def test_known_jsr_candidate(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 4, "max")
        assert cand.word == (2, 1)
        # Known averaged radius sqrt(9/10) * golden mean.
        assert cand.rho_per_step == pytest.approx(
            math.sqrt(0.9) * GOLDEN, abs=1e-12)

    def test_known_lsr_candidate(self, example_pair_lsr):
        cand = enumerate_candidates(example_pair_lsr, 8, "min")
        assert cand.word == (2, 1, 2, 1, 1, 2, 1, 1)
        assert cand.rho_per_step == pytest.approx(6.009313489, abs=1e-8)

    def test_brackets_brute_force(self):
        rng = np.random.default_rng(17)
        fam = MatrixFamily([rng.random((3, 3)) for _ in range(2)])
        hi, lo = brute_force_rates(fam, 5)
        cmax = enumerate_candidates(fam, 5, "max")
        cmin = enumerate_candidates(fam, 5, "min")
        assert cmax.rho_per_step == pytest.approx(hi, rel=1e-10)
        assert cmin.rho_per_step == pytest.approx(lo, rel=1e-10)

    def test_nilpotent_short_circuits_min(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        fam = MatrixFamily([N, np.eye(2)])
        cand = enumerate_candidates(fam, 3, "min")
        assert cand.rho == 0.0

    def test_budget_enforced(self):
        # Two letters up to length 18 make 2^19 - 2 = 524,286 words.
        fam = MatrixFamily([np.eye(2), np.eye(2)])
        with pytest.raises(EnumerationBudgetError):
            enumerate_candidates(fam, 18, "max")

    def test_candidate_word_is_primitive_and_canonical(self):
        fam = MatrixFamily([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        cand = enumerate_candidates(fam, 4, "max")
        assert len(cand.word) == 1

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            enumerate_candidates(MatrixFamily([np.eye(2)]), 2, "best")


def reference_enumeration(family, max_length, sense):
    """``(word, rho)`` of the best candidate by a scan of every reading: keep
    the readings that are their own smallest rotation and primitive, take
    one product and one radius per word, and apply the sequential 1e-12
    tie rule.  ``rho`` is read as ``make_candidate`` reads it."""
    def candidate(word):
        return word, leading_eigen_analysis(naive_word_matrix(family, word)).rho

    best = None
    for length in range(1, max_length + 1):
        for reading in itertools.product(range(1, family.size + 1), repeat=length):
            if reading != min(reading[i:] + reading[:i] for i in range(length)):
                continue
            word = reading[::-1]
            if primitive_root_word(word) != word:
                continue
            rho = spectral_radius(naive_word_matrix(family, word))
            if sense == "min" and rho == 0.0:
                return candidate(word)
            score = rho ** (1.0 / length) if rho > 0.0 else 0.0
            margin = 1e-12 * max(score, best[0] if best else 0.0, 1e-300)
            if (best is None or (sense == "max" and score > best[0] + margin)
                    or (sense == "min" and score < best[0] - margin)):
                best = (score, word)
    return candidate(best[1])


def witt_count(m, n):
    """Number of Lyndon words of length n over m letters (Witt's formula)."""
    def mobius(k):
        sign, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if k > 1 else sign
    return sum(mobius(k) * m ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


# A 3x3 pair none of whose words is nilpotent up to length 4; the first
# nilpotent word is the fifth of the six Lyndon readings of length 5.
LATE_NILPOTENT = MatrixFamily([[[1, 1, 0], [1, 0, 0], [0, 0, 0]],
                               [[0, 0, 1], [1, 0, 0], [0, 1, 1]]])


class TestEnumerationOracle:
    @pytest.mark.parametrize("kind", ["gaussian-equal-norm", "nonneg-uniform", "binary"])
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("m, cap", [(2, 8), (3, 6)])
    def test_matches_the_scan_of_every_reading(self, kind, d, m, cap):
        fam = random_family(kind, d, m, seed=10 * d + m)
        for sense in ("max", "min"):
            cand = enumerate_candidates(fam, cap, sense)
            word, rho = reference_enumeration(fam, cap, sense)
            assert cand.word == word
            assert cand.rho.hex() == rho.hex()

    @pytest.mark.parametrize("fam, cap", [
        (MatrixFamily([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]), 8),
        (euler_binary(7), 9),
        (LATE_NILPOTENT, 8),
    ], ids=["tied-diagonal-pair", "euler-binary-7", "late-nilpotent"])
    def test_ties_and_nilpotent_words_resolve_as_the_scan(self, fam, cap):
        for sense in ("max", "min"):
            cand = enumerate_candidates(fam, cap, sense)
            word, rho = reference_enumeration(fam, cap, sense)
            assert cand.word == word
            assert cand.rho.hex() == rho.hex()

    def test_late_nilpotent_word_ends_the_min_search(self):
        cand = enumerate_candidates(LATE_NILPOTENT, 8, "min")
        assert cand.word == (2, 2, 1, 2, 1) and cand.rho == 0.0
        assert enumerate_candidates(LATE_NILPOTENT, 4, "min").rho > 0.0

    def test_overflow_after_a_nilpotent_word_of_the_same_length(self):
        # Reading (1, 2) is nilpotent and (2, 3) overflows; both have length
        # 2, so they share a stack.  The min search ends at the nilpotent
        # word first, and the max search meets the overflow.
        fam = MatrixFamily([[[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1e200, 1e200]],
                            1e200 * np.eye(2)])
        with np.errstate(over="ignore"):
            assert enumerate_candidates(fam, 3, "min").word == (2, 1)
            with pytest.raises(MatrixError, match="matrix entries must be finite"):
                enumerate_candidates(fam, 3, "max")

    def test_stacked_products_and_radii_are_bitwise_the_single_ones(self):
        for fam in (random_family("gaussian-equal-norm", 4, 3, seed=5),
                    random_family("binary", 6, 2, seed=1), euler_binary(9)):
            matrices = np.stack(fam.matrices)
            for readings in _lyndon_readings(fam.size, 7 if fam.size == 2 else 5):
                for block in (readings, readings[:3]):
                    products = _block_products(matrices, block)
                    radii = spectral_radii(products)
                    for reading, P, rho in zip(block, products, radii):
                        Q = naive_word_matrix(fam, reading[::-1])
                        assert P.tobytes() == Q.tobytes()
                        assert float(rho).hex() == spectral_radius(Q).hex()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lyndon_readings_follow_witt_and_lexicographic_order(self, m):
        by_length = _lyndon_readings(m, 10)
        assert len(by_length) == 10
        for n, readings in enumerate(by_length, 1):
            assert len(readings) == witt_count(m, n)
            assert all(a < b for a, b in zip(readings, readings[1:]))
            for r in readings:
                assert len(r) == n and set(r) <= set(range(1, m + 1))
                assert all(r < r[i:] + r[:i] for i in range(1, n))


class TestNormalization:
    def test_identity_scale(self):
        fam = MatrixFamily([np.diag([2.0, 1.0])])
        assert np.allclose(normalize_family(fam, 1.0).matrix(1),
                           fam.matrix(1))

    def test_candidate_product_unit_radius(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        assert spectral_radius(word_matrix(scaled, cand.word)) == pytest.approx(
            1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(MatrixError):
            normalize_family(MatrixFamily([np.eye(2)]), 0.0)


class TestCyclicRoot:
    def test_root_vertices_of_known_pair(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        assert len(root.vertices) == 2
        v1 = root.vertices[0] / root.vertices[0][0]
        # Known root vertex v_1 = (1, (sqrt(5)-1)/2) up to normalization.
        assert v1[1] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)
        # The successor vertex (0.586318522, 0.948683298).
        v2 = root.vertices[1] * (1.0 / root.vertices[0][0])
        assert v2 == pytest.approx(
            np.array([0.586318522, 0.948683298]), abs=1e-8)

    def test_chain_consistency(self, example_pair_lsr):
        cand = enumerate_candidates(example_pair_lsr, 8, "min")
        scaled = normalize_family(example_pair_lsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        n = len(cand.word)
        assert len(root.vertices) == n
        for i in range(1, n):
            expected = scaled.matrix(cand.word[i - 1]) @ root.vertices[i - 1]
            assert np.allclose(root.vertices[i], expected, atol=1e-12)

    def test_duals_pair_to_one(self, example_pair_lsr):
        cand = enumerate_candidates(example_pair_lsr, 8, "min")
        scaled = normalize_family(example_pair_lsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        for dual, vertex in zip(root.duals, root.vertices):
            assert float(dual @ vertex) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("case", ["jsr", "lsr", "gaussian-d3-s29"])
    def test_duals_are_left_eigenvectors_of_their_rotations(self, case, request):
        # Oracle: each rotation's product is multiplied out afresh, and the
        # dual must be its left eigenvector within the 1e-7 (relative to
        # max(1, max|dual|)) that the chain's closure allows.
        if case == "gaussian-d3-s29":
            # The word restarts reach from the two-letter cap.
            fam = random_family("gaussian-equal-norm", 3, 2, 29)
            cand = make_candidate(fam, (2,) + (1,) * 10)
        else:
            fam = request.getfixturevalue("example_pair_" + case)
            cand = enumerate_candidates(fam, 8, "max" if case == "jsr" else "min")
        scaled = normalize_family(fam, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        word = cand.word
        assert root.duals is not None and len(root.duals) == len(word)
        for i, (dual, vertex) in enumerate(zip(root.duals, root.vertices)):
            rotation = naive_word_matrix(scaled, word[i:] + word[:i])
            lam = np.sign(vertex @ rotation @ vertex)
            scale = max(1.0, float(np.max(np.abs(dual))))
            assert np.max(np.abs(rotation.T @ dual - lam * dual)) <= 1e-7 * scale
            assert float(dual @ vertex) == pytest.approx(1.0, abs=1e-10)

    def test_dual_chain_that_does_not_close_gives_no_duals(self, example_pair_jsr,
                                                          monkeypatch):
        # With a wrong first dual the chain does not close: the root has no
        # duals, the run grows without stopping tests, and its certificate
        # still verifies.
        import polyrad.candidates as candidates
        monkeypatch.setattr(candidates, "dual_leading_eigenvector",
                            lambda matrix, vector: np.array([1.0, 0.0]))
        cand = enumerate_candidates(example_pair_jsr, 4, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        assert len(root.vertices) == 2 and root.duals is None
        out = run(example_pair_jsr, RunConfig(mode=MODE_P, max_candidate_length=4))
        assert out.status == "terminated"
        report = verify(example_pair_jsr, out.certificate)
        assert report.verdict, report.failures

    def test_single_matrix_root(self):
        fam = MatrixFamily([np.diag([2.0, 1.0])])
        cand = enumerate_candidates(fam, 1, "max")
        scaled = normalize_family(fam, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=False)
        assert len(root.vertices) == 1
        assert root.duals is None


class TestRestart:
    def test_restart_improves_candidate(self):
        # Both generators alone have radius 1, but A_1 A_2 has averaged
        # radius equal to the golden mean, so a violation at the root of
        # the length-1 candidate must produce the length-2 word.
        A1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        A2 = np.array([[1.0, 0.0], [1.0, 1.0]])
        fam = MatrixFamily([A1, A2])
        cand = enumerate_candidates(fam, 1, "max")
        assert cand.word == (1,)
        scaled = normalize_family(fam, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        better = restart_product(fam, root, (1, (2,)), "max")
        assert better.rho_per_step > cand.rho_per_step
        exhaustive = enumerate_candidates(fam, 2, "max")
        assert better.rho_per_step <= exhaustive.rho_per_step + 1e-12

    def test_restart_requires_improvement(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        # The candidate is already optimal; no restart can improve on it.
        with pytest.raises(RestartFailedError):
            restart_product(example_pair_jsr, root, (1, (1,)), "max")

    def test_empty_path_rejected(self, example_pair_jsr):
        cand = enumerate_candidates(example_pair_jsr, 2, "max")
        scaled = normalize_family(example_pair_jsr, cand.rho_per_step)
        root = build_cyclic_root(scaled, cand, with_duals=True)
        with pytest.raises(RestartFailedError):
            restart_product(example_pair_jsr, root, (1, ()), "max")


class TestMakeCandidate:
    def test_canonicalizes(self, example_pair_jsr):
        a = make_candidate(example_pair_jsr, (2, 1))
        b = make_candidate(example_pair_jsr, (1, 2))
        assert a.word == b.word
        assert a.rho == pytest.approx(b.rho, rel=1e-12)

    def test_power_reduced(self, example_pair_jsr):
        a = make_candidate(example_pair_jsr, (2, 1, 2, 1))
        assert len(a.word) == 2


class TestSymmetricTwins:
    """The coordinate reversal J gives euler_binary(r) its symmetry
    A2 = J A1 J, which maps the word (1) to (2)."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("r", [7, 9])
    def test_reversal_found_in_any_coordinate_order(self, r, seed):
        fam = euler_binary(r)
        perm = np.arange(fam.dim)
        if seed is not None:
            perm = np.random.default_rng(seed).permutation(fam.dim)
            fam = MatrixFamily([A[np.ix_(perm, perm)] for A in fam.matrices])
        cand = make_candidate(fam, (1,))
        twins = symmetric_twins(fam, cand)
        assert [twin.word for twin in twins] == [(2,)]
        assert twins[0].rho_per_step == cand.rho_per_step
        # The coordinate map is the reversal, seen through the permutation.
        v = cand.eigen.leading_vector
        p = _coordinate_permutation(fam, {1: 2}, v, twins[0].eigen.leading_vector)
        assert np.array_equal(p, np.argsort(perm)[fam.dim - 1 - perm])
        assert np.array_equal(fam.matrix(2)[np.ix_(p, p)], fam.matrix(1))

    def test_image_that_is_a_rotation_adds_nothing(self):
        # The swap maps (1, 2) to (2, 1), a rotation of the same word.
        fam = euler_binary(9)
        assert symmetric_twins(fam, make_candidate(fam, (1, 2))) == ()

    def test_every_generator_must_be_permuted(self):
        # A third generator that the reversal does not map into the family
        # leaves the pair (1), (2) without a symmetry of the whole family.
        fam = euler_binary(7)
        A3 = np.zeros((fam.dim, fam.dim))
        A3[0, 1] = 1.0
        triple = MatrixFamily(list(fam.matrices) + [A3])
        assert symmetric_twins(triple, make_candidate(triple, (1,))) == ()
        # With its reversal added as a fourth generator, the symmetry is back.
        J = np.eye(fam.dim)[::-1]
        quad = MatrixFamily(list(triple.matrices) + [J @ A3 @ J])
        assert ([t.word for t in symmetric_twins(quad, make_candidate(quad, (1,)))]
                == [(2,)])

    def test_generic_family_has_no_twin(self, example_pair_jsr):
        for word in ((1,), (2,), (2, 1)):
            cand = make_candidate(example_pair_jsr, word)
            assert symmetric_twins(example_pair_jsr, cand) == ()
