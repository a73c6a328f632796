"""Certificates of extremal polytopes and their independent verification.

A certificate records everything needed to re-check a terminated run:
the sense ("R", "P", or "L"), a fingerprint of the input family, the
candidate word, its averaged spectral radius, the polytope vertices (in
the coordinates of the normalized family), any cone rays, and the run's
boundary tolerance.  Verification re-derives the normalization from the
family and the word and replays every membership test from scratch; it
never trusts engine state.

Serialization is canonical: keys appear in a fixed order and every float
is rendered with 17 significant digits, so equal certificates serialize
to identical text and round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .matrices import MatrixFamily, primitive_root_word, spectral_radius, word_matrix
from .membership import (
    MODES,
    antinorm_membership_ext,
    cone_ray_margin,
    is_zero_image,
    norm_membership_P,
    norm_membership_R,
)

CERT_VERSION = 1
POS_TOL_DEFAULT = 1e-12
# The largest run tolerance a certificate may record (verify allows 10x).
MAX_TOLERANCE = 1e-6


class CertificateFormatError(ValueError):
    """Raised when certificate text is malformed or missing fields."""


@dataclass(frozen=True)
class Certificate:
    version: int
    mode: str
    family_fingerprint: str
    word: Tuple[int, ...]
    rho_per_step: float
    vertices: Tuple[np.ndarray, ...]
    cone_H: Optional[Tuple[np.ndarray, ...]]
    iterations: int
    tolerance: float


@dataclass
class VerificationReport:
    verdict: bool
    worst_slack: float
    span_ok: bool
    rho_recomputed: float
    failures: List[str] = field(default_factory=list)


def _render(obj) -> str:
    if isinstance(obj, dict):
        parts = ("%s:%s" % (json.dumps(str(k)), _render(v)) for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise CertificateFormatError("cannot serialize a non-finite float")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise CertificateFormatError("cannot serialize %r" % (type(obj),))


def family_canonical_text(family: MatrixFamily) -> str:
    """Canonical serialization of a family used for fingerprinting."""
    payload = {
        "version": 1,
        "dim": family.dim,
        "matrices": [[[float(x) for x in row] for row in M]
                     for M in family.matrices],
    }
    return _render(payload)


def family_fingerprint(family: MatrixFamily) -> str:
    return hashlib.sha256(family_canonical_text(family).encode("ascii")).hexdigest()


def serialize(cert: Certificate) -> str:
    payload = {
        "version": int(cert.version),
        "mode": cert.mode,
        "family_fingerprint": cert.family_fingerprint,
        "word": [int(i) for i in cert.word],
        "rho_per_step": float(cert.rho_per_step),
        "vertices": [[float(x) for x in v] for v in cert.vertices],
        "cone_H": (None if cert.cone_H is None
                   else [[float(x) for x in h] for h in cert.cone_H]),
        "iterations": int(cert.iterations),
        "tolerance": float(cert.tolerance),
    }
    return _render(payload)


_REQUIRED = ("version", "mode", "family_fingerprint", "word", "rho_per_step",
             "vertices", "cone_H", "iterations", "tolerance")


def _number(literal) -> float:
    """``float(literal)``, refusing NaN, infinities and overflow (1e999)."""
    x = float(literal)
    if not math.isfinite(x):
        raise CertificateFormatError("certificate holds the non-finite %s" % literal)
    return x


def deserialize(text: str) -> Certificate:
    try:
        raw = json.loads(text, parse_float=_number, parse_constant=_number)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError("certificate is not valid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    for key in _REQUIRED:
        if key not in raw:
            raise CertificateFormatError("certificate is missing field %r" % key)
    if raw["mode"] not in MODES:
        raise CertificateFormatError("unknown certificate mode %r" % (raw["mode"],))
    word = tuple(int(i) for i in raw["word"])
    if not word or any(i < 1 for i in word):
        raise CertificateFormatError("certificate word must be positive indices")
    vertices = tuple(np.asarray(v, dtype=float) for v in raw["vertices"])
    if not vertices:
        raise CertificateFormatError("certificate must contain vertices")
    cone = raw["cone_H"]
    cone_H = None if cone is None else tuple(np.asarray(h, dtype=float) for h in cone)
    # Quoted numbers bypass the parse hook.
    if not all(np.isfinite(x).all() for x in vertices + (cone_H or ())):
        raise CertificateFormatError("certificate holds a non-finite number")
    return Certificate(
        version=int(raw["version"]),
        mode=str(raw["mode"]),
        family_fingerprint=str(raw["family_fingerprint"]),
        word=word,
        rho_per_step=_number(raw["rho_per_step"]),
        vertices=vertices,
        cone_H=cone_H,
        iterations=int(raw["iterations"]),
        tolerance=_number(raw["tolerance"]),
    )


def spans_check(vertices, mode: str) -> bool:
    """Whether the vertex list spans enough of the space.

    ``mode="linear"``: the vertices span the whole space (full rank).
    ``mode="positive"``: every coordinate carries a strictly positive entry
    in at least one vertex.
    """
    if mode not in ("linear", "positive"):
        raise ValueError("mode must be 'linear' or 'positive'")
    V = np.asarray(list(vertices), dtype=float)
    if V.ndim != 2 or V.size == 0:
        raise ValueError("vertices must form a non-empty 2-D array")
    if mode == "linear":
        return int(np.linalg.matrix_rank(V)) == V.shape[1]
    return bool((V > POS_TOL_DEFAULT).any(axis=0).all())


def _dominating_rows(Vm: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``Vm`` that dominate another, distinct row."""
    mask = np.zeros(len(Vm), dtype=bool)
    for i, x in enumerate(Vm):
        mask[i] = bool(np.any(np.all(Vm <= x, axis=1) & np.any(Vm != x, axis=1)))
    return mask


def _dominance_value(z: np.ndarray, inside: np.ndarray,
                     tol: float) -> Optional[float]:
    """Antinorm value certified by one point of the body, or ``None``.

    A row ``w`` of ``inside`` (a point known to lie in the antinorm body)
    with ``w <= (1 + tol) z`` makes ``t = 1 + tol`` feasible in the
    antinorm LP, since the body is upward closed, so the image passes
    without solving it.  The returned value is the smallest ``t`` any such
    row certifies, an upper bound on the LP's own value.
    """
    covered = inside[np.all(inside <= (1.0 + tol) * z, axis=1)]
    if not covered.size:
        return None
    pos = z > 0.0
    t = np.max(covered[:, pos] / z[pos], axis=1, initial=0.0)
    return float(t.min())


def verify(family: MatrixFamily, cert: Certificate) -> VerificationReport:
    """Re-check a certificate against a family from first principles.

    The tolerance is ten times the certificate's recorded run tolerance,
    which must lie in ``[0, MAX_TOLERANCE]``.  The verdict is valid only
    when the family and the vertices have the sign the mode needs (modes P
    and L live in the nonnegative orthant), the recomputed candidate
    radius matches, every vertex image passes its membership test (a zero
    image passes in modes R and P and fails in L), the cone (if any) is
    invariant, and the vertices span appropriately (full rank for mode R,
    a positive entry per coordinate otherwise).

    In mode L an image that dominates, up to the tolerance, a vertex or
    an earlier image scaled by its LP value passes without an LP, and
    under a nonnegative family the images of a vertex that dominates
    another are implied by that vertex's images and are not re-checked.
    ``worst_slack`` is then an upper bound on the largest slack rather
    than its exact value.
    """
    failures: List[str] = []
    report = VerificationReport(False, float("-inf"), False, float("nan"), failures)
    if cert.version != CERT_VERSION:
        failures.append("unsupported certificate version %d" % cert.version)
        return report
    spec = MODES.get(cert.mode)
    if spec is None:
        failures.append("unknown mode %r" % (cert.mode,))
        return report
    if not 0.0 <= cert.tolerance <= MAX_TOLERANCE:
        failures.append("tolerance %r out of range" % (cert.tolerance,))
        return report
    if family_fingerprint(family) != cert.family_fingerprint:
        failures.append("family fingerprint mismatch")
        return report
    if not spec.balanced and not family.is_nonnegative():
        failures.append("mode %s requires a nonnegative family" % cert.mode)
        return report
    d = family.dim
    if any(v.shape != (d,) for v in cert.vertices):
        failures.append("vertex dimension mismatch")
        return report
    if not spec.balanced and any(np.any(v < 0.0) for v in cert.vertices):
        failures.append("mode %s requires nonnegative vertices" % cert.mode)
        return report
    if any(not 1 <= i <= family.size for i in cert.word):
        failures.append("word index out of range")
        return report
    if primitive_root_word(cert.word) != cert.word:
        failures.append("word is not primitive")

    rho = spectral_radius(word_matrix(family, cert.word))
    per_step = rho ** (1.0 / len(cert.word)) if rho > 0.0 else 0.0
    report.rho_recomputed = per_step
    if per_step <= 0.0:
        failures.append("candidate product has zero spectral radius")
        return report
    if not abs(per_step - cert.rho_per_step) <= 1e-9 * max(1.0, per_step):
        failures.append("recorded averaged radius disagrees with recomputation")

    tolerance = 10.0 * cert.tolerance
    scaled = family.scaled(1.0 / per_step)
    points = list(cert.vertices)
    skip = np.zeros(len(points), dtype=bool)
    if spec.sign < 0:
        Vm = np.asarray(points)
        # An antinorm body is upward closed, so under a nonnegative family
        # the images of a vertex that dominates another are covered by the
        # images of the smaller one.
        skip = _dominating_rows(Vm)
        # Points known to lie in the body: the vertices, then t * z for
        # every image z whose LP gave a finite value t.
        inside = np.zeros((len(points) * (scaled.size + 1), d))
        inside[:len(points)] = Vm
        n_inside = len(points)
    worst = float("-inf")
    for idx, v in enumerate(points):
        if skip[idx]:
            continue
        for j in range(1, scaled.size + 1):
            z = scaled.matrix(j) @ v
            if is_zero_image(z):
                t = float("inf")
            elif spec.sign > 0:  # the LPs are looked up by name, as in the engine
                t = (norm_membership_R if spec.balanced
                     else norm_membership_P)(z, points)
            else:
                t = _dominance_value(z, inside[:n_inside], tolerance)
                if t is None:
                    t = antinorm_membership_ext(z, points, cert.cone_H)
                    if np.isfinite(t):
                        inside[n_inside] = t * z
                        n_inside += 1
            slack = 1.0 - t if spec.sign > 0 else t - 1.0
            worst = max(worst, slack)
            if not slack <= tolerance:
                failures.append(
                    "vertex %d, matrix %d: membership value %.12g violates the "
                    "invariance margin" % (idx + 1, j, t))
    report.worst_slack = worst

    if spec.sign < 0 and cert.cone_H:
        for j in range(1, scaled.size + 1):
            A = scaled.matrix(j)
            for hidx, h in enumerate(cert.cone_H):
                margin = cone_ray_margin(A @ h, cert.cone_H)
                if not margin > 0.0:
                    failures.append("cone ray %d not strictly invariant under "
                                    "matrix %d" % (hidx + 1, j))

    span = "linear" if spec.balanced else "positive"
    report.span_ok = spans_check(points, span)
    if not report.span_ok:
        failures.append("vertices fail the %s span requirement" % span)

    report.verdict = not failures
    return report
