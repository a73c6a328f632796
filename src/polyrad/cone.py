"""Polyhedral cone extension for minimal-growth (antinorm) runs.

When an antinorm run keeps producing vertices that creep toward the
boundary of the nonnegative orthant, the invariant set is widened from a
polytope to a polytope plus a cone spanned by rays with controlled
negative parts.  Each ray is built on a positive profile ``p``: it equals
``p`` off a detected index set and ``-epsilon * p`` on it.  The engine
takes ``p`` from the cyclic-root vertices (:func:`root_profile`), so a ray
is small wherever the extremal vertices are small; the extension is only
used after every ray's image under every generator is certified to stay
strictly inside the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .matrices import MatrixFamily
from .membership import cone_ray_margin

# Detection threshold, first ray epsilon, and the iteration the engine
# probes for collapsing coordinates at.
DELTA = 1.0 / 200.0
EPSILON = 0.25
PROBE_ITERS = 10

_POS_TOL = 1e-10
_MAX_HALVINGS = 4


@dataclass(frozen=True)
class ConeExtension:
    """Recession rays added to the antinorm polytope.

    ``index_sets`` holds the 1-based coordinate sets carrying the negative
    entries; ``rays`` are the corresponding vectors, equal to the profile
    off the set and to ``-epsilon`` times the profile on it.
    """

    rays: Tuple[np.ndarray, ...]
    index_sets: Tuple[Tuple[int, ...], ...]


def detect_near_boundary(points: Sequence[np.ndarray],
                         delta: float = DELTA) -> List[Tuple[int, ...]]:
    """Index sets of coordinates that collapse relative to the peak entry.

    A point is near the orthant boundary when its smallest entry falls
    below ``delta / d`` times its largest; the returned sets list the
    collapsing coordinates (1-based), deduplicated in discovery order.
    Sets covering all coordinates are skipped: they leave no room for a
    usable ray.
    """
    sets: List[Tuple[int, ...]] = []
    seen = set()
    for point in points:
        v = np.asarray(point, dtype=float)
        d = v.size
        peak = float(v.max())
        if peak <= 0.0:
            continue
        threshold = (delta / d) * peak
        if float(v.min()) >= threshold:
            continue
        indices = tuple(int(q) + 1 for q in np.nonzero(v < threshold)[0])
        if not indices or len(indices) == d:
            continue
        if indices not in seen:
            seen.add(indices)
            sets.append(indices)
    return sets


def root_profile(vertices: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """Ray profile: the mean of the root vertices, each scaled to max 1.

    Returns ``None`` unless every entry of that mean is positive, since a
    zero entry could leave a ray with no positive entry; the caller then
    falls back to the all-ones rays of :func:`rays_from_index_sets`.
    """
    points = [np.asarray(v, dtype=float) for v in vertices]
    if any(not float(v.max()) > 0.0 for v in points):
        return None
    profile = np.mean([v / float(v.max()) for v in points], axis=0)
    return profile if float(profile.min()) > 0.0 else None


def rays_from_index_sets(index_sets: Sequence[Sequence[int]], dim: int,
                         epsilon: float,
                         profile: Optional[np.ndarray] = None) -> ConeExtension:
    """Build the extension rays for the given 1-based index sets.

    Each ray equals ``profile`` off its set and ``-epsilon * profile`` on
    it; without a profile the all-ones vector is used.
    """
    base = np.ones(dim) if profile is None else np.asarray(profile, dtype=float)
    if base.shape != (dim,):
        raise ValueError("profile must have dimension %d" % dim)
    rays = []
    canonical = []
    for indices in index_sets:
        indices = tuple(sorted(int(q) for q in indices))
        if not indices or indices[0] < 1 or indices[-1] > dim:
            raise ValueError("index set out of range 1..%d" % dim)
        h = base.copy()
        on_set = np.asarray(indices) - 1
        h[on_set] *= -epsilon
        rays.append(h)
        canonical.append(indices)
    return ConeExtension(tuple(rays), tuple(canonical))


def validate_cone(scaled: MatrixFamily, extension: ConeExtension):
    """Certify that every generator maps the cone strictly into itself.

    For each generator ``A_j`` and each ray ``h`` the margin LP must find a
    strictly positive ``t`` with ``A_j h >= t * 1 + sum_g c_g g`` over the
    extension rays ``g``.  Returns ``(True, None)`` on success or
    ``(False, (j, ray_index))`` naming the first failing pair (1-based).
    """
    for j in range(1, scaled.size + 1):
        A = scaled.matrix(j)
        for idx, h in enumerate(extension.rays):
            margin = cone_ray_margin(A @ h, extension.rays)
            if not margin > _POS_TOL:
                return False, (j, idx + 1)
    return True, None


def negotiate_cone(scaled: MatrixFamily, index_sets: Sequence[Sequence[int]],
                   profile: Optional[np.ndarray] = None) -> Optional[ConeExtension]:
    """Search for a validating extension built from the detected index sets.

    At each epsilon (``EPSILON``, halved up to four times on failure) the
    full collection of rays is tried first; if a particular ray's image
    cannot be certified inside the cone, that ray is dropped and the
    smaller collection is retried, since a single uncoverable ray must not
    veto an otherwise invariant cone.  The rays are built on ``profile``
    (see :func:`rays_from_index_sets`).  Returns a validated extension or
    ``None``, in which case the caller continues without the cone.
    """
    eps = EPSILON
    for _ in range(_MAX_HALVINGS + 1):
        live = [tuple(sorted(int(q) for q in s)) for s in index_sets]
        while live:
            extension = rays_from_index_sets(live, scaled.dim, eps, profile)
            ok, failure = validate_cone(scaled, extension)
            if ok:
                return extension
            del live[failure[1] - 1]
        eps *= 0.5
    return None
