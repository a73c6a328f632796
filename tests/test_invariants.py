"""Invariants every exact run must satisfy, checked against numpy's
eigenvalues rather than against polyrad's own functions.

- Homogeneity: the radius of ``c F`` is ``c`` times the radius of ``F``.
- Transposition: ``F`` and its transpose have the same radius.
- Sandwich: LSR <= min_i rho(A_i) and max_i rho(A_i) <= JSR.
- Every terminated run's certificate passes ``verify``.
"""

import functools

import numpy as np
import pytest

from polyrad import MODE_L, MODE_P, MODE_R, MatrixFamily, RunConfig, run, verify
from polyrad.datasets import euler_binary, pascal_rhombus, random_family
from polyrad.engine import TERMINATED

REL = 1e-9
# The sandwich holds with equality in exact arithmetic for some families:
# euler_binary(7)'s JSR is 2.5e-15 relative below its largest rho(A_i),
# and euler_binary(9)'s LSR equals its smallest.
SANDWICH_SLACK = 1e-12

FAMILIES = {
    "jsr-pair": lambda: MatrixFamily([np.array([[1.0, 1.0], [0.0, 1.0]]),
                                      0.9 * np.array([[1.0, 0.0], [1.0, 1.0]])]),
    "lsr-pair": lambda: MatrixFamily([np.array([[7.0, 0.0], [2.0, 3.0]]),
                                      np.array([[2.0, 4.0], [0.0, 8.0]])]),
    "euler-binary-7": lambda: euler_binary(7),
    "euler-binary-9": lambda: euler_binary(9),
    "pascal-rhombus-T": lambda: pascal_rhombus().transposed(),
    "gaussian-d5-s4": lambda: random_family("gaussian-equal-norm", 5, 2, 4),
    "nonneg-uniform-d6-s3": lambda: random_family("nonneg-uniform", 6, 2, 3),
}
CASES = [("jsr-pair", MODE_P), ("lsr-pair", MODE_P), ("lsr-pair", MODE_L),
         ("euler-binary-7", MODE_P), ("euler-binary-7", MODE_L),
         ("euler-binary-9", MODE_P), ("euler-binary-9", MODE_L),
         ("pascal-rhombus-T", MODE_P), ("pascal-rhombus-T", MODE_L),
         ("gaussian-d5-s4", MODE_R),
         ("nonneg-uniform-d6-s3", MODE_P), ("nonneg-uniform-d6-s3", MODE_L)]
# The L run on the untransposed Pascal rhombus is capped at 50 iterations
# with bounds that bracket the transposed value, so it has no exact value
# to compare.
TRANSPOSABLE = [case for case in CASES if case != ("pascal-rhombus-T", MODE_L)]


def _family(name: str, transform: str) -> MatrixFamily:
    family = FAMILIES[name]()
    if transform == "T":
        return family.transposed()
    if transform:
        return family.scaled(float(transform))
    return family


@functools.lru_cache(maxsize=None)
def exact_value(name: str, mode: str, transform: str = "") -> float:
    """The terminated run's value; its certificate must verify."""
    family = _family(name, transform)
    out = run(family, RunConfig(mode=mode))
    assert out.status == TERMINATED, (name, mode, transform, out.status)
    report = verify(family, out.certificate)
    assert report.verdict, report.failures
    return out.value


@pytest.mark.parametrize("name, mode", CASES)
@pytest.mark.parametrize("c", ["3", "0.125"])
def test_homogeneity(name, mode, c):
    assert exact_value(name, mode, c) == pytest.approx(
        float(c) * exact_value(name, mode), rel=REL)


@pytest.mark.parametrize("name, mode", TRANSPOSABLE)
def test_transposition(name, mode):
    assert exact_value(name, mode, "T") == pytest.approx(
        exact_value(name, mode), rel=REL)


@pytest.mark.parametrize("name, mode", CASES)
def test_sandwich_by_generator_radii(name, mode):
    rhos = [float(np.max(np.abs(np.linalg.eigvals(A))))
            for A in FAMILIES[name]().matrices]
    value = exact_value(name, mode)
    if mode == MODE_L:
        assert value <= min(rhos) * (1.0 + SANDWICH_SLACK)
    else:
        assert max(rhos) <= value * (1.0 + SANDWICH_SLACK)
