"""Engine-independent references for benchmark problems.

Fixed families are checked against published values (the ones
``tests/test_acceptance.py`` asserts).  Random families are checked
against a numpy brute force over all short products: every averaged
spectral radius ``rho(B)^(1/k)`` is a lower bound on the joint spectral
radius and an upper bound on the lower one, and a run's candidate must be
no worse than any product as short as those it enumerated.  Nothing here
imports polyrad.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_REL = 1e-9
RADIUS_STATUSES = ("terminated", "iteration_capped")


def word_rate(matrices, word) -> float:
    """``rho(B)^(1/k)`` for the product of the 1-based ``word``, applied
    first index first."""
    B = np.eye(matrices[0].shape[0])
    for i in word:
        B = matrices[i - 1] @ B
    return float(np.max(np.abs(np.linalg.eigvals(B)))) ** (1.0 / len(word))


def brute_force_rates(matrices, max_length: int):
    """``(max, min)`` averaged spectral radius over every product of ``k``
    factors, for each ``k`` from 1 to ``max_length``, with no
    canonicalization or pruning."""
    d = matrices[0].shape[0]
    rates = []
    for k in range(1, max_length + 1):
        best_max, best_min = 0.0, math.inf
        for reading in itertools.product(range(len(matrices)), repeat=k):
            B = np.eye(d)
            for i in reading:
                B = B @ matrices[i]
            rate = float(np.max(np.abs(np.linalg.eigvals(B)))) ** (1.0 / k)
            best_max = max(best_max, rate)
            best_min = min(best_min, rate)
        rates.append((best_max, best_min))
    return tuple(rates)


@dataclass(frozen=True)
class Published:
    """A published radius ``value`` with absolute tolerance ``tol``.

    A terminated run must report it.  A capped run must bracket it, with
    its candidate's side of the bracket (``lo`` for a joint, ``hi`` for a
    lower spectral radius) within ``tol``; given ``capped_tol``, the other
    side must be within ``capped_tol`` too, as ``tests/test_acceptance.py``
    asserts for the capped ``euler_binary`` runs.
    """

    value: float
    tol: float
    capped_tol: Optional[float] = None

    def resolve(self, matrices):
        return self

    def check(self, mode, matrices, status, value, bounds, word):
        if status not in RADIUS_STATUSES:
            return "status %s where a radius of %.9g is published" % (status, self.value)
        v, tol = self.value, self.tol
        if status == "terminated":
            if abs(value - v) > tol:
                return "value %.12g differs from published %.12g" % (value, v)
            return None
        lo, hi = bounds
        if not (lo <= v + tol and hi >= v - tol):
            return "bounds [%.12g, %.12g] miss published %.12g" % (lo, hi, v)
        near, far = (hi, lo) if mode == "L" else (lo, hi)
        if abs(near - v) > tol:
            return "candidate bound %.12g differs from published %.12g" % (near, v)
        if self.capped_tol is not None and abs(far - v) > self.capped_tol:
            return ("bound %.12g is not within %g of published %.12g"
                    % (far, self.capped_tol, v))
        return None


@dataclass(frozen=True)
class OptimalWord:
    """A radius published as the optimal product ``word``: the reference
    value is that product's averaged spectral radius."""

    word: tuple
    tol: float

    def resolve(self, matrices):
        return Published(word_rate(matrices, self.word), self.tol)


@dataclass(frozen=True)
class BruteForce:
    """Bounds from all products of up to ``length`` factors.

    The run enumerates every product of up to ``candidate_length`` factors
    for its candidate, so the candidate's side of its bracket (``lo`` for a
    joint, ``hi`` for a lower spectral radius) must be the averaged radius
    of the reported word and at least as good as every product that short.
    The other side must hold against every product up to ``length``.
    ``rates`` is filled in by :meth:`resolve` before the timed passes, so
    checking costs little.
    """

    length: int
    candidate_length: int
    rates: tuple = ()

    def resolve(self, matrices):
        return BruteForce(self.length, self.candidate_length,
                          brute_force_rates(matrices, self.length))

    def check(self, mode, matrices, status, value, bounds, word):
        if status == "inapplicable" and mode == "R":
            # Only a product without a real eigenvalue of top modulus makes
            # the balanced construction inapplicable.
            B = np.eye(matrices[0].shape[0])
            for i in word:
                B = matrices[i - 1] @ B
            eig = np.linalg.eigvals(B)
            top = np.abs(eig) >= np.max(np.abs(eig)) * (1.0 - 1e-9)
            if np.any(np.abs(eig[top].imag) <= 1e-10 * np.max(np.abs(eig))):
                return "inapplicable although the candidate has a real leading eigenvalue"
            return None
        if status not in RADIUS_STATUSES:
            return "status %s" % status
        # Mode L must not exceed the brute-force min rates, modes P and R
        # must not fall below the max rates.
        pick, sign = (min, 1.0) if mode == "L" else (max, -1.0)
        side = 1 if mode == "L" else 0
        far_rate = pick(r[side] for r in self.rates)
        near_rate = pick(r[side] for r in self.rates[:self.candidate_length])
        rate = word_rate(matrices, word)
        # A terminated run also claims its value as both bounds.
        claims = [bounds] + ([(value, value)] if status == "terminated" else [])
        for lo, hi in claims:
            near, far = (hi, lo) if mode == "L" else (lo, hi)
            if sign * (far - far_rate) > _REL * far_rate:
                return ("bounds [%.12g, %.12g] exclude the brute-force rate %.12g"
                        % (lo, hi, far_rate))
            if sign * (near - near_rate) > _REL * near_rate:
                return ("candidate bound %.12g is worse than the rate %.12g of a "
                        "product of up to %d factors"
                        % (near, near_rate, self.candidate_length))
            if abs(near - rate) > _REL * rate:
                return ("candidate bound %.12g is not the rate %.12g of word %s"
                        % (near, rate, word))
        return None
