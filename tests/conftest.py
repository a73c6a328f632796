"""Shared helpers and independent oracles for the test suite.

The brute-force growth-rate oracles below enumerate every product word up
to a length cap and take the extreme averaged spectral radius.  They are
deliberately naive (no canonicalization, no pruning) so they cannot share
a bug with the library's enumeration.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from polyrad import MatrixFamily

# Local runs keep no example database, so that a failing draw saved by one
# run is not replayed first by every later one.  Re-registering the default
# profile loads it at once; under CI Hypothesis has loaded its own "ci"
# profile instead, which this leaves as it is.
settings.register_profile("default", settings.get_profile("default"), database=None)


def brute_force_rates(family: MatrixFamily, max_length: int):
    """(max, min) of rho(B)^(1/k) over all products B of length k <= cap."""
    best_max = 0.0
    best_min = float("inf")
    for k in range(1, max_length + 1):
        for reading in itertools.product(range(family.size), repeat=k):
            B = np.eye(family.dim)
            for i in reading:
                B = B @ family.matrices[i]
            rho = float(np.max(np.abs(np.linalg.eigvals(B))))
            rate = rho ** (1.0 / k)
            best_max = max(best_max, rate)
            best_min = min(best_min, rate)
    return best_max, best_min


def naive_word_matrix(family: MatrixFamily, word):
    """Left fold A_{d_n} ... A_{d_1} written out without shortcuts."""
    result = np.eye(family.dim)
    for d in word:
        result = family.matrices[d - 1] @ result
    return result


@pytest.fixture
def example_pair_jsr():
    """2x2 pair with a known closed-form joint spectral radius."""
    A1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    A2 = 0.9 * np.array([[1.0, 0.0], [1.0, 1.0]])
    return MatrixFamily((A1, A2))


@pytest.fixture
def example_pair_lsr():
    """2x2 pair with a known closed-form lower spectral radius."""
    A1 = np.array([[7.0, 0.0], [2.0, 3.0]])
    A2 = np.array([[2.0, 4.0], [0.0, 8.0]])
    return MatrixFamily((A1, A2))


@pytest.fixture
def slow_converging_pair():
    """2x2 pair whose default run never terminates (boundary revisits)."""
    A1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    A2 = 0.8 * np.array([[1.0, 0.0], [1.0, 1.0]])
    return MatrixFamily((A1, A2))
