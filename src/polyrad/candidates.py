"""Candidate product search, symmetric twins, family normalization, and
cyclic root trees.

A candidate is a primitive product word maximizing (or minimizing) the
averaged spectral radius ``rho(P)^(1/n)`` over all words up to a length
cap.  Words are deduplicated up to cyclic permutation; the canonical
representative is the rotation whose left-to-right reading is smallest.
The readings that are canonical and primitive are exactly the Lyndon
words, and the search lists them directly (Duval, *Factorizing words over
an ordered alphabet*, J. Algorithms 1983).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .matrices import (
    REAL_SIMPLE_UNIQUE,
    EigenAnalysis,
    MatrixError,
    MatrixFamily,
    Word,
    canonical_word,
    cyclic_word,
    dual_leading_eigenvector,
    leading_eigen_analysis,
    primitive_root_word,
    spectral_radii,
    spectral_radius,
    word_matrix,
)


# The most words an enumeration may visit, the most entries (k * d * d) of
# one stack of word products, and the most turns of a cyclic permutation a
# restart may append.
_ENUMERATION_BUDGET = 500000
_STACK_ENTRIES = 4096
_RESTART_TURNS = 50


class EnumerationBudgetError(RuntimeError):
    """Raised when the word enumeration would exceed its budget."""


class InapplicableError(RuntimeError):
    """Raised when the candidate's leading eigenstructure rules the
    polytope construction out (no real leading eigenvector, or a zero
    image in the antinorm setting)."""


class RestartFailedError(RuntimeError):
    """Raised when no strictly better candidate can be derived from a
    stopping-criterion violation."""


@dataclass(frozen=True)
class Candidate:
    word: Word
    rho: float
    rho_per_step: float
    eigen: EigenAnalysis


@dataclass(frozen=True)
class CyclicRoot:
    """Root vertices (and optional duals) of the cyclic tree of a candidate.

    ``vertices[i]`` is the leading eigenvector of the (i+1)-th cyclic
    permutation of the normalized candidate product; consecutive vertices
    are images of each other under the normalized generators.  ``duals``
    (when present) are the matching left eigenvectors scaled so that each
    pairing ``(dual_i, vertex_i)`` equals 1.  Both chains are checked by
    closing their cycle; ``duals`` is ``None`` when none were asked for,
    when the leading eigenvalue is not real, simple and unique, or when
    the dual chain does not close.
    """

    scaled_family: MatrixFamily
    candidate: Candidate
    vertices: Tuple[np.ndarray, ...]
    duals: Optional[Tuple[np.ndarray, ...]]


def make_candidate(family: MatrixFamily, word: Sequence[int]) -> Candidate:
    """Build a candidate record for ``word`` (canonicalized)."""
    word = canonical_word(primitive_root_word(word))
    product = word_matrix(family, word)
    eigen = leading_eigen_analysis(product)
    rho = eigen.rho
    per_step = rho ** (1.0 / len(word)) if rho > 0.0 else 0.0
    return Candidate(word, rho, per_step, eigen)


def _lyndon_readings(m: int, max_length: int):
    """The Lyndon words over the letters ``1..m`` of length at most
    ``max_length``, as one list per length in lexicographic order.

    Duval's algorithm visits them in lexicographic order: bump the last
    letter, repeat the word periodically up to the cap, and drop the
    trailing largest letters.
    """
    by_length = [[] for _ in range(max_length)]
    w = [0]
    while w:
        w[-1] += 1
        by_length[len(w) - 1].append(tuple(w))
        period = len(w)
        while len(w) < max_length:
            w.append(w[-period])
        while w and w[-1] == m:
            w.pop()
    return by_length


def _block_products(matrices: np.ndarray, block) -> np.ndarray:
    """Products ``A_r1 @ (A_r2 @ (... @ (A_rn @ I)))`` of the distinct,
    equal-length readings ``block``, in its order.

    The products are associated exactly as :func:`word_matrix` does, and
    built from the shortest reading suffixes up: each level is one stacked
    matmul of first letters onto the products of the level below.
    """
    products = np.eye(matrices.shape[1])[None]
    index = {(): 0}
    for j in range(len(block[0]) - 1, -1, -1):
        suffixes = list(dict.fromkeys(r[j:] for r in block))
        products = (matrices[[s[0] - 1 for s in suffixes]]
                    @ products[[index[s[1:]] for s in suffixes]])
        index = {s: k for k, s in enumerate(suffixes)}
    return products


def enumerate_candidates(family: MatrixFamily, max_length: int,
                         sense: str) -> Candidate:
    """Best candidate word of length at most ``max_length``.

    ``sense`` is ``"max"`` (joint spectral radius) or ``"min"`` (lower
    spectral radius).  Ties within relative 1e-12 resolve to the shortest
    word and then to the lexicographically smallest reading, which is the
    order of enumeration.  In the ``"min"`` sense a nilpotent product
    short-circuits the search: the lower spectral radius is zero.

    Only the Lyndon readings are scored, in stacks of products with one
    ``eigvals`` call each, but the budget counts all ``m**k`` readings of
    each length ``k``.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    m = family.size
    total = sum(m ** k for k in range(1, max_length + 1))
    if total > _ENUMERATION_BUDGET:
        raise EnumerationBudgetError("enumerating %d words exceeds the budget of %d"
                                     % (total, _ENUMERATION_BUDGET))
    matrices = np.stack(family.matrices)
    block_size = max(1, _STACK_ENTRIES // family.dim ** 2)
    best: Optional[Tuple[float, Word]] = None
    rel = 1e-12
    for readings in _lyndon_readings(m, max_length):
        for start in range(0, len(readings), block_size):
            block = readings[start:start + block_size]
            products = _block_products(matrices, block)
            # Score the block up to its first overflowed product, which
            # ends the search unless a nilpotent word before it does.
            finite = np.isfinite(products).all(axis=(1, 2))
            cut = len(block) if finite.all() else int(finite.argmin())
            for reading, rho in zip(block, spectral_radii(products[:cut]).tolist()):
                word = reading[::-1]
                if sense == "min" and rho == 0.0:
                    return make_candidate(family, word)
                score = rho ** (1.0 / len(word)) if rho > 0.0 else 0.0
                if best is None:
                    best = (score, word)
                    continue
                margin = rel * max(score, best[0], 1e-300)
                if sense == "max":
                    if score > best[0] + margin:
                        best = (score, word)
                else:
                    if score < best[0] - margin:
                        best = (score, word)
            if cut < len(block):
                raise MatrixError("matrix entries must be finite")
    assert best is not None
    return make_candidate(family, best[1])


def _coordinate_keys(family: MatrixFamily, letters: Sequence[int],
                     vector: np.ndarray):
    """One key per coordinate: the row and column sums of each generator in
    ``letters`` (over sorted entries, so that equal multisets sum equally)
    and the entry of ``vector`` rounded to 10 digits."""
    columns = []
    for i in letters:
        A = family.matrix(i)
        columns += [np.sort(A, axis=1).sum(axis=1), np.sort(A, axis=0).sum(axis=0)]
    columns.append(np.round(vector, 10))
    return [tuple(row) for row in np.column_stack(columns)]


def _coordinate_permutation(family: MatrixFamily, tau, v: np.ndarray,
                            u: np.ndarray) -> Optional[np.ndarray]:
    """Index array ``p`` with ``A_tau(i)[p][:, p] == A_i`` exactly for each
    letter ``i`` of ``tau`` that maps the whole family onto itself, or
    ``None``.  ``p`` pairs the coordinates of equal keys, built from ``v``
    on the candidate's side and from ``u`` on the image's; a repeated key
    leaves ``p`` undetermined, and then there is none."""
    letters = sorted(tau)
    source = _coordinate_keys(family, letters, v)
    target = {key: b for b, key in
              enumerate(_coordinate_keys(family, [tau[i] for i in letters], u))}
    if len(target) < family.dim or set(source) != target.keys():
        return None
    p = np.array([target[key] for key in source])
    if not all(np.array_equal(family.matrix(tau[i])[np.ix_(p, p)], family.matrix(i))
               for i in letters):
        return None
    # The other generators must permute among themselves; adding 0.0 turns
    # -0.0 into 0.0 so that the bytes compare as the values do.
    permuted = sorted((A[np.ix_(p, p)] + 0.0).tobytes() for A in family.matrices)
    if permuted != sorted((A + 0.0).tobytes() for A in family.matrices):
        return None
    return p


def symmetric_twins(family: MatrixFamily,
                    candidate: Candidate) -> Tuple[Candidate, ...]:
    """The candidate's images under the coordinate-permutation symmetries of
    the family, other than its own rotations.

    A symmetry is a coordinate permutation ``p`` and a letter permutation
    ``sigma`` with ``A_sigma(i)[p][:, p] == A_i`` exactly for every
    generator.  It maps the product of the candidate word ``w`` to that of
    ``sigma(w)``, so ``sigma(w)`` attains the same averaged radius: it is
    a second dominant product, and the extremal polytope is symmetric
    under ``p``.  Only letters with equal sorted entries can be paired,
    which for a generic family leaves no ``sigma`` but the identity.

    Each twin keeps the word ``sigma(w)`` letter for letter, not its
    canonical rotation, so that the cyclic root chain built from it is the
    ``p``-image of the candidate's own chain, with the same weights.
    """
    v = candidate.eigen.leading_vector
    if v is None:
        return ()
    word = candidate.word
    letters = sorted(set(word))
    entries = [np.sort(A, axis=None) for A in family.matrices]
    partners = [[j for j in range(1, family.size + 1)
                 if np.array_equal(entries[i - 1], entries[j - 1])] for i in letters]
    seen = {canonical_word(word)}
    twins = []
    for images in itertools.product(*partners):
        if len(set(images)) < len(images):
            continue
        tau = dict(zip(letters, images))
        image = tuple(tau[i] for i in word)
        if canonical_word(image) in seen:
            continue
        eigen = leading_eigen_analysis(word_matrix(family, image))
        if (eigen.leading_vector is None
                or _coordinate_permutation(family, tau, v, eigen.leading_vector) is None):
            continue
        seen.add(canonical_word(image))
        twins.append(Candidate(image, candidate.rho, candidate.rho_per_step, eigen))
    return tuple(twins)


def normalize_family(family: MatrixFamily, rho_per_step: float) -> MatrixFamily:
    """Divide every family member by ``rho_per_step``."""
    if not (rho_per_step > 0.0) or not np.isfinite(rho_per_step):
        raise MatrixError("normalization requires a positive averaged radius")
    return family.scaled(1.0 / rho_per_step)


def _closed_chain(start: np.ndarray, steps, lam: float):
    """``[start, steps[0] @ start, ..., steps[-2] @ ... @ start]``, or
    ``None`` when the last step does not map the chain's last vector back
    to ``lam * start`` within 1e-7 of ``max(1, max|start|)``."""
    chain = [start]
    for step in steps[:-1]:
        chain.append(step @ chain[-1])
    closure = steps[-1] @ chain[-1]
    scale = max(1.0, float(np.max(np.abs(start))))
    if float(np.max(np.abs(closure - lam * start))) > 1e-7 * scale:
        return None
    return chain


def build_cyclic_root(scaled: MatrixFamily, candidate: Candidate,
                      with_duals: bool) -> CyclicRoot:
    """Root vertices of the cyclic tree for a normalized candidate.

    ``scaled`` must be the family normalized by the candidate's averaged
    spectral radius, so the candidate's product has spectral radius 1.
    The vertices carry the product's leading eigenvector through the word,
    and the duals its left one through the reversed word; each chain is
    checked once, by closing its cycle (see :class:`CyclicRoot`).  A vertex
    chain that does not close raises :class:`MatrixError`.
    """
    word = candidate.word
    product = word_matrix(scaled, word)
    eigen = leading_eigen_analysis(product)
    if eigen.leading_vector is None:
        raise InapplicableError(
            "candidate product has no real leading eigenvector (%s)"
            % eigen.classification)
    if abs(eigen.rho - 1.0) > 1e-8:
        raise MatrixError("normalized candidate product must have unit radius")
    lam = float(eigen.leading_sign)

    vertices = _closed_chain(eigen.leading_vector,
                             [scaled.matrix(i) for i in word], lam)
    if vertices is None:
        raise MatrixError("cyclic root chain failed to close up")
    duals: Optional[Tuple[np.ndarray, ...]] = None
    if with_duals and eigen.classification == REAL_SIMPLE_UNIQUE:
        # The i-th dual is the left eigenvector of the (i+1)-th cyclic
        # permutation: A*_{d_(i+1)} ... A*_{d_n} applied to the first.
        chain = _closed_chain(dual_leading_eigenvector(product, vertices[0]),
                              [scaled.matrix(i).T for i in reversed(word)], lam)
        if chain is not None:
            duals = tuple(u / float(u @ v) for u, v in
                          zip(chain[:1] + chain[:0:-1], vertices))
    return CyclicRoot(scaled, candidate, tuple(vertices), duals)


def restart_product(family: MatrixFamily, root: CyclicRoot, violation,
                    sense: str) -> Candidate:
    """Derive a candidate strictly better than ``root.candidate`` from a
    stopping violation.

    ``violation`` is ``(j, path)`` where ``j`` is the 1-based index of the
    violated dual and ``path`` is the word (applied first to last) carrying
    the j-th root vertex to the violating point.  The new candidate is the
    smallest power ``r`` such that appending ``r`` turns of the j-th cyclic
    permutation to the path crosses spectral radius 1 in the normalized
    family, up to ``_RESTART_TURNS`` turns.  A new word whose product
    is not finite in the unscaled family also raises
    :class:`RestartFailedError`.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    candidate = root.candidate
    j, path = violation
    path = tuple(int(i) for i in path)
    if not path:
        raise RestartFailedError("violation path is empty")
    scaled = root.scaled_family
    cycle = cyclic_word(candidate.word, j)
    current = word_matrix(scaled, path)
    turn = word_matrix(scaled, cycle)
    for r in range(1, _RESTART_TURNS + 1):
        current = turn @ current
        rho = spectral_radius(current)
        crossed = rho > 1.0 + 1e-12 if sense == "max" else rho < 1.0 - 1e-12
        if crossed:
            new_word = canonical_word(primitive_root_word(path + cycle * r))
            try:
                with np.errstate(over="ignore"):
                    replacement = make_candidate(family, new_word)
            except MatrixError as exc:
                # The word was found in the scaled family; its product in
                # the unscaled one can overflow.
                raise RestartFailedError("the restart word's product failed: %s"
                                         % exc) from exc
            improved = (replacement.rho_per_step > candidate.rho_per_step
                        if sense == "max"
                        else replacement.rho_per_step < candidate.rho_per_step)
            if not improved:
                raise RestartFailedError(
                    "restart produced no strict improvement (averaged radius "
                    "%.17g vs %.17g)" % (replacement.rho_per_step,
                                         candidate.rho_per_step))
            return replacement
    raise RestartFailedError(
        "no power up to %d crossed the unit radius; the violation is "
        "numerically marginal" % _RESTART_TURNS)
