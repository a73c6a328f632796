"""Benchmark matrix families and seeded random generators.

The fixed families come from combinatorics: partial sums of the Euler
binary and ternary partition functions, the Pascal rhombus, and the
counting of binary overlap-free words.  Random families are generated
from numpy's PCG64 generator; Gaussian variates are produced by applying
the inverse normal CDF to uniform draws so the stream depends only on the
seed and the generator algorithm, not on any sampler internals.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .matrices import MatrixFamily, spectral_radii

RANDOM_KINDS = ("gaussian-equal-norm", "nonneg-uniform", "binary")


def euler_binary(r: int) -> MatrixFamily:
    """The pair of (r-1) x (r-1) binary matrices tied to partial sums of
    the Euler binary partition function; ``r`` must be odd and >= 3.

    Entry (i, j) of the s-th matrix is 1 exactly when
    ``2 - s <= 2 j - i <= r - s + 1`` (1-based indices).
    """
    if r < 3 or r % 2 == 0:
        raise ValueError("r must be an odd integer >= 3")
    d = r - 1
    mats = []
    for s in (1, 2):
        M = np.zeros((d, d))
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if 2 - s <= 2 * j - i <= r - s + 1:
                    M[i - 1, j - 1] = 1.0
        mats.append(M)
    return MatrixFamily(mats)


def pascal_rhombus() -> MatrixFamily:
    """The 5x5 pair governing row growth of the Pascal rhombus."""
    A1 = [[0, 1, 0, 0, 0],
          [1, 0, 2, 0, 0],
          [0, 0, 0, 0, 0],
          [0, 1, 0, 0, 1],
          [0, 0, 0, 2, 1]]
    A2 = [[1, 0, 2, 0, 0],
          [0, 0, 0, 2, 1],
          [1, 1, 0, 0, 0],
          [0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0]]
    return MatrixFamily([A1, A2])


def overlap_free() -> MatrixFamily:
    """The 20x20 pair counting binary overlap-free words."""
    A1 = [
        [0, 0, 0, 0, 0, 0, 0, 2, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1],
        [0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    A2 = [
        [0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1],
        [0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    return MatrixFamily([A1, A2])


def euler_ternary_14() -> MatrixFamily:
    """The three 7x7 binary matrices for the Euler ternary problem."""
    A1 = [[1, 1, 1, 1, 1, 0, 0],
          [0, 1, 1, 1, 1, 0, 0],
          [0, 1, 1, 1, 1, 1, 0],
          [0, 1, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 1, 1],
          [0, 0, 1, 1, 1, 1, 1]]
    A2 = [[1, 1, 1, 1, 1, 0, 0],
          [1, 1, 1, 1, 1, 0, 0],
          [0, 1, 1, 1, 1, 0, 0],
          [0, 1, 1, 1, 1, 1, 0],
          [0, 1, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 1, 1]]
    A3 = [[1, 1, 1, 1, 0, 0, 0],
          [1, 1, 1, 1, 1, 0, 0],
          [1, 1, 1, 1, 1, 0, 0],
          [0, 1, 1, 1, 1, 0, 0],
          [0, 1, 1, 1, 1, 1, 0],
          [0, 1, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 1, 0]]
    return MatrixFamily([A1, A2, A3])


# Coefficients of the three rational approximations of the Cephes ndtri
# routine, highest degree first; each Q table starts with the implied 1.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse standard normal CDF at ``0 < y0 < 1``.

    A port of the Cephes ``ndtri`` routine that keeps its order of
    operations, so the result matches the C code bit for bit.
    """
    y, negate = (1.0 - y0, False) if y0 > 1.0 - _EXP_M2 else (y0, True)
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * 2.50662827463100050242E0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, P) / _polevl(z, Q)
    return -x if negate else x


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via the inverse CDF of uniform variates."""
    u = rng.random(shape)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return np.array([_ndtri(v) for v in u.ravel().tolist()]).reshape(u.shape)


def random_family(kind: str, dim: int, size: int, seed: int,
                  density: Optional[float] = None) -> MatrixFamily:
    """Seeded random families of three kinds.

    - ``gaussian-equal-norm``: i.i.d. standard normal entries, every
      matrix rescaled to spectral 2-norm 1;
    - ``nonneg-uniform``: i.i.d. uniform [0, 1) entries;
    - ``binary``: independent Bernoulli(density) entries (density defaults
      to 0.5), regenerated up to 100 times until no matrix has a zero row
      or column, then every matrix rescaled to spectral radius 1.
    """
    if kind not in RANDOM_KINDS:
        raise ValueError("kind must be one of %s" % (RANDOM_KINDS,))
    if dim < 1 or size < 1:
        raise ValueError("dim and size must be positive")
    rng = np.random.default_rng(int(seed))
    if kind == "gaussian-equal-norm":
        mats = []
        for _ in range(size):
            M = _gaussian(rng, (dim, dim))
            mats.append(M / np.linalg.norm(M, 2))
        return MatrixFamily(mats)
    if kind == "nonneg-uniform":
        return MatrixFamily([rng.random((dim, dim)) for _ in range(size)])
    p = 0.5 if density is None else float(density)
    if not 0.0 < p <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    for _ in range(100):
        mats = [(rng.random((dim, dim)) < p).astype(float) for _ in range(size)]
        ok = all(M.any(axis=0).all() and M.any(axis=1).all() for M in mats)
        if not ok:
            continue
        radii = spectral_radii(np.stack(mats))
        if any(r == 0.0 for r in radii):
            continue
        return MatrixFamily([M / r for M, r in zip(mats, radii)])
    raise RuntimeError("could not draw a binary family without zero rows or "
                       "columns in 100 attempts; raise the density")
