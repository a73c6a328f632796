import numpy as np
import pytest

from polyrad import spectral_radius, word_matrix
from polyrad.cli import load_family, main
from polyrad.datasets import (
    _gaussian,
    euler_binary,
    euler_ternary_14,
    overlap_free,
    pascal_rhombus,
    random_family,
)


class TestEulerBinary:
    def test_r7_matches_published_display(self):
        fam = euler_binary(7)
        A1 = np.array([[1, 1, 1, 1, 0, 0],
                       [0, 1, 1, 1, 0, 0],
                       [0, 1, 1, 1, 1, 0],
                       [0, 0, 1, 1, 1, 0],
                       [0, 0, 1, 1, 1, 1],
                       [0, 0, 0, 1, 1, 1]], dtype=float)
        A2 = np.array([[1, 1, 1, 0, 0, 0],
                       [1, 1, 1, 1, 0, 0],
                       [0, 1, 1, 1, 0, 0],
                       [0, 1, 1, 1, 1, 0],
                       [0, 0, 1, 1, 1, 0],
                       [0, 0, 1, 1, 1, 1]], dtype=float)
        assert np.array_equal(fam.matrix(1), A1)
        assert np.array_equal(fam.matrix(2), A2)

    def test_r3_is_upper_and_lower_pascal_pair(self):
        fam = euler_binary(3)
        assert np.array_equal(fam.matrix(1), np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.array_equal(fam.matrix(2), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_banded_binary_invariant(self):
        for r in (5, 9, 13):
            fam = euler_binary(r)
            assert fam.dim == r - 1
            for s in (1, 2):
                M = fam.matrix(s)
                assert set(np.unique(M)) <= {0.0, 1.0}
                for i in range(r - 1):
                    for j in range(r - 1):
                        expected = 2 - s <= 2 * (j + 1) - (i + 1) <= r - s + 1
                        assert M[i, j] == float(expected)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            euler_binary(4)
        with pytest.raises(ValueError):
            euler_binary(1)


class TestPascalRhombus:
    def test_shape_and_column_sums(self):
        fam = pascal_rhombus()
        assert fam.dim == 5
        assert fam.size == 2
        # Column sums of the first member count how each state feeds growth.
        assert list(fam.matrix(1).sum(axis=0)) == [1.0, 2.0, 2.0, 2.0, 2.0]

    def test_upper_rate_is_two(self):
        # The maximizing single letter has spectral radius exactly 2.
        fam = pascal_rhombus()
        radii = [spectral_radius(fam.matrix(s)) for s in (1, 2)]
        assert max(radii) == pytest.approx(2.0, abs=1e-12)


class TestOverlapFree:
    def test_known_upper_candidate_value(self):
        fam = overlap_free()
        value = np.sqrt(spectral_radius(word_matrix(fam, (1, 2))))
        assert value == pytest.approx(2.517934040, abs=1e-8)

    def test_known_lower_candidate_value(self):
        fam = overlap_free()
        word = (1,) + (2,) * 10
        value = spectral_radius(word_matrix(fam, word)) ** (1.0 / 11.0)
        assert value == pytest.approx(2.417562630, abs=1e-8)

    def test_shape(self):
        fam = overlap_free()
        assert fam.dim == 20 and fam.size == 2
        assert fam.is_nonnegative()


class TestEulerTernary:
    def test_known_candidate_values(self):
        fam = euler_ternary_14()
        assert fam.dim == 7 and fam.size == 3
        jsr = np.sqrt(spectral_radius(word_matrix(fam, (2, 3))))
        lsr = np.sqrt(spectral_radius(word_matrix(fam, (1, 2))))
        assert jsr == pytest.approx(4.72204513, abs=1e-7)
        assert lsr == pytest.approx(4.61047781, abs=1e-7)


class TestRandomFamilies:
    def test_seed_determinism(self):
        for kind in ("gaussian-equal-norm", "nonneg-uniform", "binary"):
            a = random_family(kind, 4, 3, seed=42)
            b = random_family(kind, 4, 3, seed=42)
            for i in range(1, 4):
                assert np.array_equal(a.matrix(i), b.matrix(i))
            c = random_family(kind, 4, 3, seed=43)
            assert any(not np.array_equal(a.matrix(i), c.matrix(i))
                       for i in range(1, 4))

    def test_gaussian_unit_spectral_norm(self):
        fam = random_family("gaussian-equal-norm", 5, 4, seed=7)
        for i in range(1, 5):
            assert np.linalg.norm(fam.matrix(i), 2) == pytest.approx(
                1.0, abs=1e-10)

    def test_binary_density(self):
        fam = random_family("binary", 50, 2, seed=3, density=0.5)
        fills = []
        for i in (1, 2):
            M = fam.matrix(i)
            # Each matrix is a 0/1 pattern rescaled to spectral radius 1.
            nonzero = M[M > 0]
            assert nonzero.size and np.allclose(nonzero, nonzero[0])
            assert spectral_radius(M) == pytest.approx(1.0, abs=1e-10)
            assert M.sum(axis=0).min() > 0
            assert M.sum(axis=1).min() > 0
            fills.append((M > 0).mean())
        assert abs(np.mean(fills) - 0.5) < 0.05

    @pytest.mark.parametrize("dim, size, seed", [(4, 3, 42), (20, 2, 2), (50, 2, 4),
                                                 (7, 3, 11)])
    def test_binary_family_bytes_are_those_of_per_matrix_radii(self, dim, size, seed):
        # Normalizing by one stacked radius call divides each draw by
        # exactly its own spectral_radius, so the family bytes are unchanged.
        rng = np.random.default_rng(seed)
        while True:
            mats = [(rng.random((dim, dim)) < 0.5).astype(float) for _ in range(size)]
            if all(M.any(axis=0).all() and M.any(axis=1).all()
                   and spectral_radius(M) > 0.0 for M in mats):
                break
        fam = random_family("binary", dim, size, seed)
        assert [M.tobytes() for M in fam.matrices] == [
            (M / spectral_radius(M)).tobytes() for M in mats]

    def test_gaussian_transform_matches_scipy_ndtri_bitwise(self):
        ndtri = pytest.importorskip("scipy.special").ndtri

        class FixedDraws:
            def __init__(self, u):
                self.u = u

            def random(self, shape):
                return self.u.reshape(shape)

        rng = np.random.default_rng(2024)
        u = np.concatenate([
            rng.random(50000),                             # centre
            np.exp(-rng.uniform(2.0, 32.0, 20000)),        # lower tail
            np.exp(-rng.uniform(32.0, 690.0, 10000)),      # x >= 8 branch
            1.0 - np.exp(-rng.uniform(2.0, 36.7, 20000)),  # upper tail
            [0.0, 1e-300, 1e-299, 1.0 - 1e-16, np.exp(-2.0), 1.0 - np.exp(-2.0),
             np.exp(-32.0), 0.5],
        ])
        got = _gaussian(FixedDraws(u), u.shape)
        expected = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        assert u.size >= 100000
        assert np.array_equal(got, expected)

    def test_nonneg_uniform_range(self):
        fam = random_family("nonneg-uniform", 3, 2, seed=1)
        for i in (1, 2):
            M = fam.matrix(i)
            assert (M >= 0.0).all() and (M < 1.0).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_family("mystery", 3, 2, seed=0)
        with pytest.raises(ValueError):
            random_family("binary", 0, 2, seed=0)
        with pytest.raises(ValueError):
            random_family("binary", 3, 0, seed=0)


class TestBuild:
    def test_dispatch(self, tmp_path, capsys):
        out = str(tmp_path / "fam.json")
        for args, dim, size in [
                (["euler-binary", "--r", "7"], 6, 2),
                (["pascal-rhombus"], 5, 2),
                (["overlap-free"], 20, 2),
                (["euler-ternary-14"], 7, 3),
                (["random", "--kind", "binary", "--d", "4", "--m", "2",
                  "--seed", "5"], 4, 2)]:
            assert main(["dataset"] + args + ["--out", out]) == 0
            fam = load_family(out)
            assert (fam.dim, fam.size) == (dim, size)

    def test_missing_parameters(self, capsys):
        for args in (["euler-binary"], ["random", "--kind", "binary"],
                     ["random", "--d", "4", "--m", "2", "--seed", "5"]):
            assert main(["dataset"] + args) == 1
            assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(SystemExit):
            main(["dataset", "no-such-dataset"])
