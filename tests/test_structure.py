import numpy as np
import pytest

from polyrad import spans_check


class TestSpansCheck:
    def test_standard_basis(self):
        basis = list(np.eye(3))
        assert spans_check(basis, "linear")
        assert spans_check(basis, "positive")

    def test_positive_fails_on_zero_coordinate(self):
        vertices = [np.array([1.0, 2.0, 0.0]), np.array([3.0, 1.0, 0.0])]
        assert not spans_check(vertices, "positive")

    def test_linear_fails_on_rank_deficiency(self):
        v = np.array([1.0, 2.0, 3.0])
        assert not spans_check([v, 2 * v, -v], "linear")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            spans_check([np.ones(2)], "affine")
