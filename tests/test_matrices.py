import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrad import (
    MatrixError,
    MatrixFamily,
    canonical_word,
    cyclic_word,
    dual_leading_eigenvector,
    leading_eigen_analysis,
    primitive_root_word,
    spectral_radius,
    word_matrix,
)
from polyrad.matrices import (
    COMPLEX_LEADING,
    REAL_SIMPLE_UNIQUE,
    ZERO_RADIUS,
    _top_modulus,
    spectral_radii,
    word_reading,
)

from conftest import naive_word_matrix

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def small_matrices(dim):
    return st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=dim, max_size=dim),
        min_size=dim, max_size=dim).map(np.array)


class TestMatrixFamily:
    def test_basic_properties(self):
        fam = MatrixFamily([np.eye(3), np.ones((3, 3))])
        assert fam.dim == 3
        assert fam.size == 2
        assert np.array_equal(fam.matrix(1), np.eye(3))

    def test_one_based_indexing(self):
        fam = MatrixFamily([np.eye(2)])
        with pytest.raises(MatrixError):
            fam.matrix(0)
        with pytest.raises(MatrixError):
            fam.matrix(2)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(MatrixError):
            MatrixFamily([np.eye(2), np.eye(3)])

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(MatrixError):
            MatrixFamily([np.ones((2, 3))])
        with pytest.raises(MatrixError):
            MatrixFamily([np.array([[np.nan, 0.0], [0.0, 1.0]])])

    def test_rejects_empty(self):
        with pytest.raises(MatrixError):
            MatrixFamily([])

    def test_matrices_frozen(self):
        fam = MatrixFamily([np.eye(2)])
        with pytest.raises(ValueError):
            fam.matrix(1)[0, 0] = 5.0

    def test_nonnegative_check(self):
        assert MatrixFamily([np.eye(2)]).is_nonnegative()
        assert not MatrixFamily([-np.eye(2)]).is_nonnegative()

    def test_scaled_and_transposed(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        fam = MatrixFamily([M])
        assert np.allclose(fam.scaled(2.0).matrix(1), 2.0 * M)
        assert np.allclose(fam.transposed().matrix(1), M.T)


class TestWords:
    def test_empty_word_is_identity(self):
        fam = MatrixFamily([np.array([[2.0, 0.0], [0.0, 3.0]])])
        assert np.array_equal(word_matrix(fam, []), np.eye(2))

    def test_application_order(self, example_pair_jsr):
        # Word (2, 1): matrix 2 applied first, so the product is A_1 @ A_2.
        P = word_matrix(example_pair_jsr, (2, 1))
        expected = example_pair_jsr.matrix(1) @ example_pair_jsr.matrix(2)
        assert np.allclose(P, expected)
        # The product's radius is (9/10) times the squared golden mean.
        assert spectral_radius(P) == pytest.approx(0.9 * GOLDEN ** 2, rel=1e-12)

    def test_matches_naive_fold(self):
        rng = np.random.default_rng(7)
        fam = MatrixFamily([rng.normal(size=(3, 3)) for _ in range(2)])
        word = (1, 2, 2, 1, 2)
        assert np.allclose(word_matrix(fam, word), naive_word_matrix(fam, word))

    def test_index_out_of_range(self):
        fam = MatrixFamily([np.eye(2)])
        with pytest.raises(MatrixError):
            word_matrix(fam, (2,))

    def test_reading_is_reversal(self):
        assert word_reading((1, 2, 3)) == (3, 2, 1)

    def test_cyclic_word(self):
        assert cyclic_word((1, 2, 3), 1) == (1, 2, 3)
        assert cyclic_word((1, 2, 3), 2) == (2, 3, 1)
        assert cyclic_word((1, 2, 3), 3) == (3, 1, 2)
        with pytest.raises(MatrixError):
            cyclic_word((1, 2), 3)

    def test_primitive_root(self):
        assert primitive_root_word((1, 2, 1, 2)) == (1, 2)
        assert primitive_root_word((1, 2, 2)) == (1, 2, 2)
        assert primitive_root_word((1, 1, 1)) == (1,)

    def test_canonical_word_fixed_point(self):
        w = canonical_word((2, 1))
        assert canonical_word(w) == w

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_canonical_rotation_invariance(self, word, data):
        word = tuple(word)
        i = data.draw(st.integers(1, len(word)))
        assert canonical_word(cyclic_word(word, i)) == canonical_word(word)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_nilpotent_is_exactly_zero(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius(N) == 0.0

    def test_known_product(self, example_pair_lsr):
        # The length-8 product below has the closed-form radius
        # 4*(213803 + sqrt(44666192953)); its eighth root is 6.009313489.
        P = word_matrix(example_pair_lsr, (2, 1, 2, 1, 1, 2, 1, 1))
        expected = 4.0 * (213803.0 + math.sqrt(44666192953.0))
        assert spectral_radius(P) == pytest.approx(expected, rel=1e-12)
        assert spectral_radius(P) ** 0.125 == pytest.approx(6.009313489, abs=1e-8)

    def test_power_identity(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(4, 4))
        assert spectral_radius(np.linalg.matrix_power(M, 3)) == pytest.approx(
            spectral_radius(M) ** 3, rel=1e-8)

    @pytest.mark.parametrize("gap", [5e-7, 1e-9, 1e-12])
    def test_close_distinct_top_eigenvalues_kept(self, gap):
        # Distinct top eigenvalues are not averaged, however close, when
        # each is well conditioned; the eigen analysis reads rho the same way.
        assert spectral_radius(np.diag([1.0, 1.0 - gap])) == 1.0
        Q = np.array([[0.6, -0.8], [0.8, 0.6]])
        M = Q @ np.diag([2.0, 2.0 - 2.0 * gap]) @ Q.T
        assert spectral_radius(M) == pytest.approx(2.0, rel=1e-14)
        assert leading_eigen_analysis(M).rho == spectral_radius(M)

    @pytest.mark.parametrize("c", [1.0, 0.75, 1.5, -2.0])
    def test_split_defective_eigenvalue_counts_once(self, c):
        # M has the defective eigenvalue 2; eig splits it by about 1e-8,
        # as a complex pair or as two real values depending on c.
        M = np.array([[0.0, 1.0, 0.0],
                      [2.4149310157179447e-245, 2.0, 0.75],
                      [2.4149310157179447e-245, 0.0, 2.0]])
        assert spectral_radius(c * M) == pytest.approx(2.0 * abs(c), rel=1e-14)
        assert leading_eigen_analysis(c * M).rho == spectral_radius(c * M)

    def test_badly_scaled_complex_pair_kept(self):
        # The top pair 1.5 +- 5.75i has nearly parallel eigenvectors (the
        # 1e-282 coupling), but the two values are far apart: no average.
        M = 3.0 * np.array([[0.0, 1.1759421351809868e-282, -1.0],
                            [0.0, 0.0, 1.0],
                            [3.921875, 0.0, 1.0]])
        assert spectral_radius(M) == pytest.approx(math.sqrt(35.296875), rel=1e-14)

    @given(small_matrices(3), st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_scaling_homogeneity(self, M, c):
        rho = spectral_radius(M)
        assert spectral_radius(c * M) == pytest.approx(
            abs(c) * rho, rel=1e-10, abs=1e-10)

    @pytest.mark.xfail(strict=True,
                       reason="eig reads the ill-conditioned top eigenvalue of M "
                              "and 3M 4.85e-10 apart, relative; a Newton "
                              "refinement (ROADMAP item 4) would mend it")
    def test_scaling_homogeneity_of_an_ill_conditioned_eigenvalue(self):
        # A draw of test_scaling_homogeneity: the top eigenvalue, near 3,
        # is nearly defective.
        M = np.array([[3.0, 2.079504098120425e-102, 2.6580697468673755e-06],
                      [1.0, 3.0, 0.0], [1.0, 0.0, 0.0]])
        assert spectral_radius(3.0 * M) == pytest.approx(
            3.0 * spectral_radius(M), rel=1e-10, abs=1e-10)

    @pytest.mark.xfail(strict=True,
                       reason="eig splits a triple eigenvalue by about "
                              "eps^(1/3), wider than _top_modulus's cluster "
                              "shell, and reads M and 3M rel 3.5e-7 apart")
    def test_scaling_homogeneity_of_a_triple_jordan_block(self):
        # The 3x3 Jordan block of eigenvalue 2 in random coordinates.
        J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        S = np.random.default_rng(1).standard_normal((3, 3))
        M = S @ J @ np.linalg.inv(S)
        assert spectral_radius(3.0 * M) == pytest.approx(
            3.0 * spectral_radius(M), rel=1e-10, abs=1e-10)


def per_matrix_radius(M):
    """The radius rule applied to one matrix on its own: the top modulus of
    its ``eigvals``, clamped to 0 at 1e-12 of ``max(1, max|M|)``."""
    rho = _top_modulus(M, np.linalg.eigvals(M))
    return 0.0 if rho <= 1e-12 * max(1.0, float(np.max(np.abs(M)))) else rho


# A 2x2 Jordan block in rotated coordinates: eigvals splits its double
# eigenvalue 2 into 2 -+ 1e-8.
ROTATED_JORDAN = (np.array([[0.6, -0.8], [0.8, 0.6]]) @ np.array([[2.0, 1.0], [0.0, 2.0]])
                  @ np.array([[0.6, 0.8], [-0.8, 0.6]]))


class TestSpectralRadii:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_each_radius_is_bitwise_the_per_matrix_rule(self, d):
        rng = np.random.default_rng(d)
        stack = [rng.normal(size=(d, d)) for _ in range(20)]
        stack += [rng.random((d, d)) for _ in range(20)]
        stack += [np.triu(rng.normal(size=(d, d)), 1), np.zeros((d, d)), np.eye(d)]
        if d >= 2:
            # A rotation makes the stacked eigvals complex for every matrix.
            R, J = np.eye(d), np.eye(d)
            R[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
            J[:2, :2] = ROTATED_JORDAN
            stack += [R, J]
        radii = spectral_radii(np.stack(stack))
        assert radii.shape == (len(stack),)
        for M, rho in zip(stack, radii):
            assert float(rho).hex() == per_matrix_radius(M).hex()
            assert float(rho).hex() == spectral_radius(M).hex()

    def test_each_matrix_is_clamped_by_its_own_scale(self):
        # The first radius, 1e-8, is below 1e-12 of its matrix's 1e8 scale,
        # and the third, 1e-13, below 1e-12 of its scale 1; the second,
        # 1e-9, is above 1e-12 of its own scale 1, though not of the first's.
        stack = np.stack([[[0.0, 1e8], [1e-24, 0.0]], 1e-9 * np.eye(2), 1e-13 * np.eye(2)])
        radii = spectral_radii(stack)
        assert radii[0] == 0.0 and radii[2] == 0.0
        assert radii[1] == pytest.approx(1e-9, rel=1e-14)
        assert radii.tolist() == [spectral_radius(M) for M in stack]

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_nonfinite_entry_anywhere_raises(self, position, bad):
        stack = np.stack([np.eye(3)] * 5)
        stack[position, 1, 2] = bad
        with pytest.raises(MatrixError, match="matrix entries must be finite"):
            spectral_radii(stack)

    def test_split_jordan_block_in_a_stack_reads_its_cluster_mean(self):
        assert np.abs(np.linalg.eigvals(ROTATED_JORDAN)).max() - 2.0 > 1e-9
        stack = np.stack([np.diag([3.0, 1.0]), ROTATED_JORDAN, -ROTATED_JORDAN,
                          [[0.0, -1.0], [1.0, 0.0]]])
        radii = spectral_radii(stack)
        assert radii[1] == pytest.approx(2.0, rel=1e-14)
        assert radii[2] == pytest.approx(2.0, rel=1e-14)
        assert radii.tolist() == [spectral_radius(M) for M in stack]

    def test_rejects_a_matrix_that_is_not_a_stack(self):
        with pytest.raises(MatrixError):
            spectral_radii(np.eye(2))
        with pytest.raises(MatrixError):
            spectral_radii(np.zeros((2, 2, 3)))


class TestLeadingEigenAnalysis:
    def test_diagonal(self):
        ea = leading_eigen_analysis(np.diag([2.0, 1.0]))
        assert ea.classification == REAL_SIMPLE_UNIQUE
        assert ea.rho == pytest.approx(2.0)
        assert np.allclose(ea.leading_vector, [1.0, 0.0])

    def test_rotation_is_complex_leading(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert leading_eigen_analysis(R).classification == COMPLEX_LEADING

    def test_zero_radius(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        ea = leading_eigen_analysis(N)
        assert ea.classification == ZERO_RADIUS
        assert ea.rho == 0.0

    def test_negative_leading_sign(self):
        ea = leading_eigen_analysis(np.diag([-3.0, 1.0]))
        assert ea.rho == pytest.approx(3.0)
        assert ea.leading_sign == -1

    def test_example_product_eigenvector(self, example_pair_jsr):
        # Normalized product of word (2, 1) has unit radius with
        # leading eigenvector (1, (sqrt(5)-1)/2).
        P = word_matrix(example_pair_jsr, (2, 1))
        rho = spectral_radius(P)
        ea = leading_eigen_analysis(P / rho)
        assert ea.classification == REAL_SIMPLE_UNIQUE
        assert ea.rho == pytest.approx(1.0, rel=1e-12)
        v = ea.leading_vector / ea.leading_vector[0]
        assert v[1] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)

    def test_normalization_convention(self):
        rng = np.random.default_rng(3)
        M = rng.random((5, 5))  # positive: Perron root is simple
        ea = leading_eigen_analysis(M)
        v = ea.leading_vector
        assert np.max(np.abs(v)) == pytest.approx(1.0)
        assert v[int(np.argmax(np.abs(v)))] > 0

    def test_eigen_residual(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            M = np.random.default_rng(seed).random((6, 6))
            ea = leading_eigen_analysis(M)
            if ea.leading_vector is None:
                continue
            lam = ea.leading_sign * ea.rho
            residual = np.max(np.abs(M @ ea.leading_vector - lam * ea.leading_vector))
            assert residual <= 1e-10 * max(1.0, np.max(np.abs(M)))


class TestDualEigenvector:
    def test_symmetric(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        ea = leading_eigen_analysis(M)
        v = ea.leading_vector
        dual = dual_leading_eigenvector(M, v)
        assert np.allclose(dual, v / (v @ v))

    def test_diagonal(self):
        dual = dual_leading_eigenvector(np.diag([3.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(dual, [1.0, 0.0])

    def test_pairing_is_one(self, example_pair_jsr):
        P = word_matrix(example_pair_jsr, (2, 1))
        P = P / spectral_radius(P)
        v = leading_eigen_analysis(P).leading_vector
        dual = dual_leading_eigenvector(P, v)
        assert float(dual @ v) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(P.T @ dual, dual, atol=1e-10)
