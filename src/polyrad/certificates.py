"""Certificates of extremal polytopes and their independent verification.

A certificate records everything needed to re-check a terminated run:
the sense ("R", "P", or "L"), a fingerprint of the input family, the
candidate word, its averaged spectral radius, the polytope vertices (in
the coordinates of the normalized family), any cone rays, and the run's
boundary tolerance.  Verification re-derives the normalization from the
family and the word and re-checks every vertex image from scratch; it
never trusts engine state.

Serialization is canonical: keys appear in a fixed order and every float
is rendered with 17 significant digits, so equal certificates serialize
to identical text and round-trip exactly.  A family file is its family's
canonical text, which :func:`family_fingerprint` hashes, and one parser
reads both kinds of file.
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
    one_vertex_bound,
    support_bound,
)

CERT_VERSION = 1
FAMILY_FILE_VERSION = 1
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
    # Images whose membership LP verify solved, and images a point already
    # known to lie in the body, or a cached support, settled without one.
    lps_solved: int = 0
    lps_skipped: int = 0


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
    """Canonical serialization of a family: its family file's text, and
    what its fingerprint hashes.  A zero is written as ``0`` whatever its
    sign, since the reader returns ``-0`` as ``+0.0``."""
    payload = {
        "version": FAMILY_FILE_VERSION,
        "dim": family.dim,
        "matrices": [[[float(x) + 0.0 for x in row] for row in M]
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


def _number(literal) -> float:
    """``float(literal)``, refusing NaN, infinities and overflow (1e999)."""
    x = float(literal)
    if not math.isfinite(x):
        raise CertificateFormatError("non-finite number %s" % literal)
    return x


def _integer(literal: str) -> int:
    """``int(literal)``, refusing one too large for a float."""
    _number(literal)
    return int(literal)


# Each field and the JSON types it may have, compared by ``type``: a bool
# is not a number.
_NUMBER = {int, float}
_FIELDS = (("version", {int}), ("mode", {str}), ("family_fingerprint", {str}),
           ("word", {list}), ("rho_per_step", _NUMBER), ("vertices", {list}),
           ("cone_H", {list, type(None)}), ("iterations", {int}),
           ("tolerance", _NUMBER))


def _parse(text: str, what: str, fields) -> dict:
    """The JSON object in ``text``, holding ``fields`` with their types."""
    try:
        raw = json.loads(text, parse_float=_number, parse_int=_integer,
                         parse_constant=_number)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError("%s is not valid JSON: %s" % (what, exc))
    if not isinstance(raw, dict):
        raise CertificateFormatError("%s must be a JSON object" % what)
    for key, types in fields:
        if key not in raw:
            raise CertificateFormatError("%s is missing field %r" % (what, key))
        if type(raw[key]) not in types:
            raise CertificateFormatError("%s %s has the wrong type" % (what, key))
    return raw


def _vectors(value, what: str) -> Tuple[np.ndarray, ...]:
    """A list of lists of JSON numbers as float vectors."""
    if type(value) is not list or not all(
            type(v) is list and set(map(type, v)) <= _NUMBER for v in value):
        raise CertificateFormatError("%s must be lists of numbers" % what)
    return tuple(np.asarray(v, dtype=float) for v in value)


def deserialize(text: str) -> Certificate:
    raw = _parse(text, "certificate", _FIELDS)
    if raw["mode"] not in MODES:
        raise CertificateFormatError("unknown certificate mode %r" % (raw["mode"],))
    word = tuple(raw["word"])
    if not word or any(type(i) is not int or i < 1 for i in word):
        raise CertificateFormatError("certificate word must be positive indices")
    vertices = _vectors(raw["vertices"], "certificate vertices")
    if not vertices:
        raise CertificateFormatError("certificate must contain vertices")
    cone = raw["cone_H"]
    return Certificate(
        version=raw["version"],
        mode=raw["mode"],
        family_fingerprint=raw["family_fingerprint"],
        word=word,
        rho_per_step=float(raw["rho_per_step"]),
        vertices=vertices,
        cone_H=None if cone is None else _vectors(cone, "certificate cone_H"),
        iterations=raw["iterations"],
        tolerance=float(raw["tolerance"]),
    )


def deserialize_family(text: str) -> MatrixFamily:
    """The family in family-file text; keys other than ``version``,
    ``dim`` and ``matrices`` are ignored.  Matrices that are not square or
    not of one size raise a ``ValueError`` from :class:`MatrixFamily`."""
    raw = _parse(text, "family file",
                 (("version", {int}), ("dim", {int}), ("matrices", {list})))
    if raw["version"] != FAMILY_FILE_VERSION:
        raise CertificateFormatError("unsupported family file version %r"
                                     % (raw["version"],))
    family = MatrixFamily(_vectors(M, "family file matrices")
                          for M in raw["matrices"])
    if family.dim != raw["dim"]:
        raise CertificateFormatError("declared dim %r does not match the "
                                     "matrices" % (raw["dim"],))
    return family


def spans_check(vertices, mode: str) -> bool:
    """Whether the vertex list spans enough of the space.

    ``mode="linear"``: the vertices span the whole space (full rank).
    ``mode="positive"``: every coordinate carries a strictly positive entry
    in at least one vertex.
    """
    if mode not in ("linear", "positive"):
        raise ValueError("mode must be 'linear' or 'positive'")
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.size == 0:
        raise ValueError("vertices must form a non-empty 2-D array")
    if mode == "linear":
        return int(np.linalg.matrix_rank(V)) == V.shape[1]
    return bool((V > POS_TOL_DEFAULT).any(axis=0).all())


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

    Modes P and L settle an image ``z`` by one rule.  Points known to lie
    in the body are the vertices and ``t z`` for every earlier image whose
    LP gave a finite value ``t``; when the best single one of them
    (:func:`~polyrad.membership.one_vertex_bound`) puts ``z`` inside up to
    the tolerance, ``z`` passes without an LP.  The body is an order ideal
    in P and upward closed in L, so a vertex that dominates another in the
    body's direction (``x <= y`` in P, ``x >= y`` in L) has images that
    the other's settle; vertices are visited from the body's boundary
    inwards (largest coordinate sum first in P, smallest in L), which puts
    that other vertex first.  Mode R settles an image without an LP when
    the best of the recent optimal supports of its LPs
    (:func:`~polyrad.membership.support_bound`) puts it inside up to the
    tolerance, and starts every other LP from that support's basis.  An
    image passed without an LP contributes the slack of its bound, so
    ``worst_slack`` is then an upper bound on the largest slack rather
    than its exact value.  ``lps_solved`` and
    ``lps_skipped`` count the images that needed their membership LP and
    the images settled without one; zero images and cone margins count
    as neither.
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
    if any(h.shape != (d,) for h in cert.cone_H or ()):
        failures.append("cone ray dimension mismatch")
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
    Vm = np.asarray(cert.vertices, dtype=float)
    # Points known to lie in the body (modes P and L): the vertices, then
    # t * z for every image z whose LP gave a finite value t.
    inside = np.zeros((len(Vm) * (scaled.size + 1), d))
    inside[:len(Vm)] = Vm
    n_inside = len(Vm)
    supports: List[Tuple[int, ...]] = []  # recent optimal supports (mode R)
    worst = float("-inf")
    for idx in np.argsort(-spec.sign * Vm.sum(axis=1), kind="stable"):
        for j in range(1, scaled.size + 1):
            z = scaled.matrix(j) @ Vm[idx]
            if is_zero_image(z):
                t = float("inf")
            else:
                if spec.balanced:
                    t, start = support_bound(z, Vm, supports)
                else:
                    t = one_vertex_bound(spec, z, inside[:n_inside])[0]
                if spec.sign * (1.0 - t) <= tolerance:
                    report.lps_skipped += 1
                elif spec.balanced:  # the LPs are looked up by name, as in the engine
                    t = norm_membership_R(z, Vm, start, supports)
                    report.lps_solved += 1
                else:
                    t = (norm_membership_P(z, Vm) if spec.sign > 0
                         else antinorm_membership_ext(z, Vm, cert.cone_H))
                    report.lps_solved += 1
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
    report.span_ok = spans_check(Vm, span)
    if not report.span_ok:
        failures.append("vertices fail the %s span requirement" % span)

    report.verdict = not failures
    return report
