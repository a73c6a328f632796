"""Dense matrix families, product words, and leading eigenpair analysis.

Words are tuples of 1-based generator indices ``(d_1, ..., d_n)`` with the
convention that ``d_1`` is applied first, i.e. the word's matrix is
``A_{d_n} @ ... @ A_{d_1}``.  The "reading" of a word is the reversed tuple
``(d_n, ..., d_1)``, matching the left-to-right order in which the product
is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

GAP_TOL_DEFAULT = 1e-9
_ZERO_RADIUS_TOL = 1e-12
# Eigenvalues this close to the top modulus, relative to it, may be one
# defective eigenvalue that ``eigvals`` split (see :func:`_top_modulus`).
_CLUSTER_TOL = 1e-6
_EPS = float(np.finfo(float).eps)
# Split eigenvalue pairs of random 2x2 Jordan blocks in 2-5 dimensions had
# distance * sin(angle) up to 21.5 * n * eps * ||M||_F.
_SPLIT_FACTOR = 32.0

# Classification labels for the leading eigenvalue of a matrix.
REAL_SIMPLE_UNIQUE = "real_simple_unique"
REAL_MULTIPLE = "real_multiple_or_nonunique"
COMPLEX_LEADING = "complex_leading"
ZERO_RADIUS = "zero_radius"

Word = Tuple[int, ...]


class MatrixError(ValueError):
    """Raised for malformed matrices, families, or words."""


def _as_square(matrix) -> np.ndarray:
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise MatrixError("expected a non-empty square matrix, got shape %r" % (M.shape,))
    if not np.all(np.isfinite(M)):
        raise MatrixError("matrix entries must be finite")
    return M


@dataclass(frozen=True)
class MatrixFamily:
    """An ordered, finite family of real square matrices of equal dimension."""

    matrices: Tuple[np.ndarray, ...]

    def __init__(self, matrices: Iterable):
        mats = tuple(_as_square(M) for M in matrices)
        if not mats:
            raise MatrixError("a matrix family must contain at least one matrix")
        d = mats[0].shape[0]
        for M in mats:
            if M.shape[0] != d:
                raise MatrixError("all matrices in a family must share one dimension")
        frozen = []
        for M in mats:
            M = M.copy()
            M.setflags(write=False)
            frozen.append(M)
        object.__setattr__(self, "matrices", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.matrices)

    def matrix(self, index: int) -> np.ndarray:
        """Return the matrix with 1-based ``index``."""
        if not 1 <= index <= self.size:
            raise MatrixError("matrix index %d out of range 1..%d" % (index, self.size))
        return self.matrices[index - 1]

    def is_nonnegative(self) -> bool:
        return all(np.all(M >= 0.0) for M in self.matrices)

    def scaled(self, factor: float) -> "MatrixFamily":
        """Return the family with every matrix multiplied by ``factor``."""
        if not np.isfinite(factor):
            raise MatrixError("scaling factor must be finite")
        return MatrixFamily([factor * M for M in self.matrices])

    def transposed(self) -> "MatrixFamily":
        return MatrixFamily([M.T for M in self.matrices])


def _check_word(word: Sequence[int], size: Optional[int] = None) -> Word:
    word = tuple(int(i) for i in word)
    if not word:
        raise MatrixError("words must be non-empty")
    for i in word:
        if i < 1 or (size is not None and i > size):
            raise MatrixError("word index %d out of range" % i)
    return word


def word_matrix(family: MatrixFamily, word: Sequence[int]) -> np.ndarray:
    """Product matrix of ``word``: the first index is applied first.

    The empty word is permitted and yields the identity.
    """
    word = _check_word(word, family.size) if len(word) else ()
    result = np.eye(family.dim)
    for i in word:
        result = family.matrix(i) @ result
    return result


def word_reading(word: Sequence[int]) -> Word:
    """Left-to-right reading of the product: reversed application order."""
    return tuple(reversed(_check_word(word)))


def cyclic_word(word: Sequence[int], i: int) -> Word:
    """The i-th cyclic permutation ``(d_i, ..., d_n, d_1, ..., d_{i-1})``."""
    word = _check_word(word)
    if not 1 <= i <= len(word):
        raise MatrixError("cyclic index %d out of range 1..%d" % (i, len(word)))
    return word[i - 1:] + word[:i - 1]


def primitive_root_word(word: Sequence[int]) -> Word:
    """Shortest word whose repetition reproduces ``word``."""
    word = _check_word(word)
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]
    return word


def canonical_word(word: Sequence[int]) -> Word:
    """Canonical cyclic representative: lexicographically smallest reading."""
    word = _check_word(word)
    reading = word_reading(word)
    n = len(reading)
    best = min(reading[i:] + reading[:i] for i in range(n))
    return tuple(reversed(best))


def _screen(eigvals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Top modulus of each row of a ``(k, d)`` eigenvalue array, and whether
    that row needs the cluster rule of :func:`_top_modulus`.

    A row is flagged when its top modulus is nonzero and the top eigenvalue
    has a neighbour within ``_CLUSTER_TOL * rho`` both in modulus and in
    the plane.  Any other row's cluster is its top eigenvalue alone, and its
    radius is the top modulus; a complex-conjugate top pair is farther
    apart than that.
    """
    moduli = np.abs(eigvals)
    rows = np.arange(len(moduli))
    top = moduli.argmax(axis=1)
    rho = moduli[rows, top]
    width = _CLUSTER_TOL * rho
    flagged = (rho != 0.0) & (np.add.reduce(moduli >= (rho - width)[:, None], axis=1) >= 2)
    if flagged.any():
        flagged &= np.add.reduce(np.abs(eigvals - eigvals[rows, top, None])
                                 <= width[:, None], axis=1) >= 2
    return rho, flagged


def _top_modulus(M: np.ndarray, eigvals: np.ndarray,
                 eigvecs: Optional[np.ndarray] = None) -> float:
    """Largest eigenvalue modulus of one matrix, reading a split defective
    eigenvalue as one: the screen of :func:`_screen`, then the cluster rule
    for a matrix it flags.

    ``eig`` splits a nearly defective eigenvalue by about the square root of
    machine epsilon into values whose eigenvectors are nearly parallel, and
    the mean of the split values is accurate to roundoff.  Two eigenvalues
    at distance ``delta`` whose unit eigenvectors are at angle ``theta`` are
    one defective eigenvalue of a matrix within about ``delta * theta`` of
    ``M``.  So among the eigenvalues whose moduli lie within ``_CLUSTER_TOL
    * rho`` of the top one, those with ``delta <= _CLUSTER_TOL * rho`` and
    ``delta * sin(theta) <= _SPLIT_FACTOR * n * eps * ||M||_F`` from the
    largest are one cluster and are replaced by their mean; the radius is
    the largest ``|mean|``.  Distinct eigenvalues with well separated
    eigenvectors keep their own moduli, however close.  ``eigvecs``, when
    given, must come with ``eigvals`` from ``np.linalg.eig(M)``.
    """
    rho, flagged = _screen(eigvals[None])
    if not flagged[0]:
        return float(rho[0])
    if eigvecs is None:
        eigvals, eigvecs = np.linalg.eig(M)
    moduli = np.abs(eigvals)
    rho = float(np.max(moduli))
    width = _CLUSTER_TOL * rho
    bound = _SPLIT_FACTOR * len(eigvals) * _EPS * float(np.linalg.norm(M))
    shell = np.flatnonzero(moduli >= rho - width)
    shell = shell[np.argsort(-moduli[shell], kind="stable")]
    means = []
    while shell.size:
        x = eigvecs[:, shell[0]]
        others = eigvecs[:, shell]
        # sin(theta) as the norm of the part of each unit eigenvector
        # orthogonal to x, which is accurate where 1 - cos(theta) is not.
        sines = np.linalg.norm(others - np.outer(x, x.conj() @ others), axis=0)
        gaps = np.abs(eigvals[shell] - eigvals[shell[0]])
        near = (gaps <= width) & (gaps * sines <= bound)
        means.append(abs(eigvals[shell[near]].mean()))
        shell = shell[~near]
    return float(max(means))


def spectral_radii(stack) -> np.ndarray:
    """Spectral radius of each matrix of a ``(k, d, d)`` stack, from one
    ``eigvals`` call.

    Each radius is the largest eigenvalue modulus, with a nearly defective
    top eigenvalue that ``eigvals`` split counted once, at the mean of its
    split values.  The screen of :func:`_screen` runs on the whole stack at
    once, and only the matrices it flags go through the cluster rule of
    :func:`_top_modulus`, one at a time.  A radius at most 1e-12 of its own
    matrix's scale ``max(1, max|M|)`` is clamped to 0.
    """
    S = np.asarray(stack, dtype=float)
    if S.ndim != 3 or S.shape[1] != S.shape[2] or S.shape[1] == 0:
        raise MatrixError("expected a stack of square matrices, got shape %r" % (S.shape,))
    if not np.all(np.isfinite(S)):
        raise MatrixError("matrix entries must be finite")
    eigvals = np.linalg.eigvals(S)
    radii, flagged = _screen(eigvals)
    for i in np.flatnonzero(flagged):
        radii[i] = _top_modulus(S[i], eigvals[i])
    scales = np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
    radii[radii <= _ZERO_RADIUS_TOL * scales] = 0.0
    return radii


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus, by the rule of :func:`spectral_radii`."""
    return float(spectral_radii(_as_square(matrix)[None])[0])


@dataclass(frozen=True)
class EigenAnalysis:
    """Summary of a matrix's leading eigenvalue and eigenvector.

    ``leading_sign`` is +1 or -1 so that the leading eigenvalue equals
    ``leading_sign * rho`` whenever a real leading eigenvector exists.
    """

    rho: float
    classification: str
    leading_vector: Optional[np.ndarray]
    leading_sign: int = 1


def _real_eigenvector(column: np.ndarray) -> np.ndarray:
    """Realify an eigenvector of a real eigenvalue and normalize it.

    The result has infinity norm 1 with its largest-magnitude entry positive.
    """
    j = int(np.argmax(np.abs(column)))
    if column[j] == 0:
        raise MatrixError("cannot normalize a zero eigenvector")
    column = column / column[j]
    return np.ascontiguousarray(column.real)


def leading_eigen_analysis(matrix) -> EigenAnalysis:
    """Classify the leading eigenvalue and extract a real leading eigenvector.

    Classifications:
      - ``real_simple_unique``: the top eigenvalue is real, algebraically
        simple, and strictly dominates all others by a relative gap of at
        least ``GAP_TOL_DEFAULT``;
      - ``real_multiple_or_nonunique``: a real eigenvalue attains the top
        modulus but the gap condition fails;
      - ``complex_leading``: no real eigenvalue attains the top modulus;
      - ``zero_radius``: the spectral radius is (numerically) zero.
    """
    M = _as_square(matrix)
    d = M.shape[0]
    eigvals, eigvecs = np.linalg.eig(M)
    mods = np.abs(eigvals)
    rho = _top_modulus(M, eigvals, eigvecs)
    scale = max(1.0, float(np.max(np.abs(M))))
    if rho <= _ZERO_RADIUS_TOL * scale:
        return EigenAnalysis(0.0, ZERO_RADIUS, None, 1)

    sorted_mods = np.sort(mods)[::-1]
    second = float(sorted_mods[1]) if d > 1 else None
    unique_simple = second is None or (rho - second) >= GAP_TOL_DEFAULT * rho

    shell = [i for i in range(d) if mods[i] >= rho * (1.0 - GAP_TOL_DEFAULT)]
    real_shell = [i for i in shell if abs(eigvals[i].imag) <= rho * 1e-10]
    if not real_shell:
        return EigenAnalysis(rho, COMPLEX_LEADING, None, 1)

    # Deterministic pick: largest modulus, then positive sign, then index.
    pick = min(real_shell, key=lambda i: (-mods[i], 0 if eigvals[i].real > 0 else 1, i))
    vector = _real_eigenvector(eigvecs[:, pick])
    sign = 1 if eigvals[pick].real >= 0 else -1
    classification = REAL_SIMPLE_UNIQUE if unique_simple else REAL_MULTIPLE
    return EigenAnalysis(rho, classification, vector, sign)


def dual_leading_eigenvector(matrix, vector: np.ndarray) -> np.ndarray:
    """Left leading eigenvector ``v*`` of ``matrix`` scaled so ``(v*, v) = 1``.

    ``vector`` must be a (right) eigenvector of ``matrix``; the matching left
    eigenvector is selected by eigenvalue proximity.
    """
    M = _as_square(matrix)
    v = np.asarray(vector, dtype=float)
    if v.shape != (M.shape[0],):
        raise MatrixError("vector shape does not match the matrix dimension")
    vv = float(v @ v)
    if vv == 0.0:
        raise MatrixError("vector must be nonzero")
    lam = float(v @ (M @ v)) / vv
    eigvals, eigvecs = np.linalg.eig(M.T)
    i = int(np.argmin(np.abs(eigvals - lam)))
    u = _real_eigenvector(eigvecs[:, i])
    s = float(u @ v)
    norms = float(np.linalg.norm(u) * np.linalg.norm(v))
    if abs(s) <= 1e-12 * (norms + 1.0):
        raise MatrixError("left and right leading eigenvectors are nearly orthogonal")
    return u / s
