"""Membership linear programs for polytope norms and antinorms.

Each function returns the largest (or, for antinorms, smallest) ``t`` such
that ``t * z`` lies in the hull generated by the vertices ``V``, a list of
vectors or an ``(n, d)`` array read without a copy:

- ``norm_membership_R``: balanced hull (symmetric convex combinations with
  coefficient 1-norm at most 1);
- ``norm_membership_P``: order ideal of the convex hull in the nonnegative
  orthant (``t z <= sum_x w_x x`` with convex weights), solved as the
  covering program ``1/t = min{sum c : V^T c >= z, c >= 0}``;
- ``antinorm_membership_L``: dominating set of the hull
  (``t z >= sum t_x x`` with weights summing to at least 1);
- ``antinorm_membership_ext``: the same with extra recession rays ``H``.

For a point strictly inside the unit ball the returned value exceeds 1; for
a point strictly outside it is below 1 (reversed for the antinorm variants).

The bodies of modes P and L are monotone, so a single vertex already
bounds the value (:func:`one_vertex_bound`).  Mode R's value is bounded
from below by a recent optimal support
(:func:`~polyrad.stores.support_bound`).  :meth:`Mode.bound` picks the
mode's, which settles a point without an LP, with the LP's start: the
support, or the vertex, that each function maps to its own columns.
The optimal LPs of modes R and L feed the growth's store of
:mod:`polyrad.stores` (:meth:`Mode.store`), whose facets bound the value
on the other side (:func:`~polyrad.stores.facet_bound`).  Each body builds its own program
as arrays (:class:`~polyrad.simplex.LinearProgram`), and refuses a
point, vertex or ray that is not finite; the antinorm LP starts from the best covering
vertex's basis, the balanced-hull LP from the best cached support's and
the cone margin LP from its least coordinate, and each runs phase 2
alone, unless :func:`solve_lp` has to solve it again in two phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .simplex import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lp,
)
from .stores import (
    _SUPPORT_RESIDUAL,
    FacetStore,
    SupportStore,
    _remember_dual,
    _remember_support,
    support_bound,
)

_INF = float("inf")

MODE_R = "R"
MODE_P = "P"
MODE_L = "L"


@dataclass(frozen=True)
class Mode:
    """One mode's body and the rules growth and verification read from it:
    ``sign`` +1 for the norms R and P (inside means a value of at least 1),
    -1 for the antinorm L (at most 1), ``balanced`` for mode R's symmetric
    body (signed families; duals pair with ``|s|``), the candidate search's
    ``sense`` and the ``span`` its vertices need (``spans_check``)."""

    sign: int
    balanced: bool
    sense = property(lambda self: "max" if self.sign > 0 else "min")
    span = property(lambda self: "linear" if self.balanced else "positive")

    def slack(self, t: float) -> float:
        """How far value ``t`` lies outside the body, negative inside."""
        return 1.0 - t if self.sign > 0 else t - 1.0

    def bound(self, z, points, store) -> Tuple[float, object]:
        """The value of ``z`` that ``points`` of the body prove, with the
        mode's LP start: the best cached support of ``store`` in R
        (:func:`~polyrad.stores.support_bound`), the ``(bound, row)`` pair
        of :func:`one_vertex_bound` in P and L."""
        if self.balanced:
            return support_bound(z, store)
        vertex = one_vertex_bound(self, z, points)
        return vertex[0], vertex

    def store(self) -> Optional[FacetStore]:
        """A new store for one growth's optimal LPs, whose facets bound a
        value on the far side from :meth:`bound`: a
        :class:`~polyrad.stores.SupportStore` in R, a
        :class:`~polyrad.stores.FacetStore` in L, and none in P."""
        if self.balanced:
            return SupportStore()
        return FacetStore() if self.sign < 0 else None


MODES = {
    MODE_R: Mode(sign=1, balanced=True),
    MODE_P: Mode(sign=1, balanced=False),
    MODE_L: Mode(sign=-1, balanced=False),
}


class MembershipError(RuntimeError):
    """Raised when a membership LP finishes with an impossible status."""


def is_zero_image(z) -> bool:
    """Whether ``z`` is exactly zero, inside every norm body (value ``inf``)
    and outside every antinorm body; a tiny nonzero ``z`` needs its LP."""
    return not np.any(z)


def _stack(z, V):
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("z must be a vector")
    Vm = np.asarray(V, dtype=float)  # no copy for a float array
    if Vm.size == 0:
        raise ValueError("the vertex list must be non-empty")
    if Vm.ndim != 2 or Vm.shape[1] != z.size:
        raise ValueError("vertices must match the dimension of z")
    if not (np.isfinite(z).all() and np.isfinite(Vm).all()):
        raise ValueError("z and the vertices must be finite")
    if is_zero_image(z):
        raise ValueError("z must be nonzero")
    return z, Vm


def _rays(H, d: int) -> Optional[np.ndarray]:
    """The rays ``H`` as an ``(h, d)`` array, one per row (no copy for a
    float array), or ``None`` for no rays; refuses rays of another
    dimension, or with entries that are not finite."""
    if H is None or not len(H):
        return None
    try:
        rays = np.asarray(H, dtype=float)
    except ValueError:
        rays = None
    if rays is None or rays.ndim != 2 or rays.shape[1] != d:
        raise ValueError("ray dimension mismatch")
    if not np.isfinite(rays).all():
        raise ValueError("the rays must be finite")
    return rays


def one_vertex_bound(spec: Mode, z, Vm: np.ndarray) -> Tuple[float, int]:
    """The membership value of ``z`` that the best single row of ``Vm``
    proves, and that row (``-1`` for none).

    Mode P's body is an order ideal: a vertex ``v`` holds ``t z`` for
    ``t = min_{z_i > 0} v_i / z_i``, so the best such ``t`` bounds the
    value from below (``inf`` when ``z`` has no positive coordinate).  Mode
    L's body is upward closed: a vertex that covers ``z`` (``v_i = 0``
    wherever ``z_i = 0``) lies below ``t z`` for ``t = max_{z_i > 0} v_i /
    z_i``, so the best such ``t`` bounds the value from above, with or
    without cone rays; with no covering vertex, or a negative coordinate
    in ``z``, the bound is ``(inf, -1)``.  Mode R's body is not monotone;
    its bound comes from a cached support
    (:func:`~polyrad.stores.support_bound`).
    """
    if spec.balanced:
        raise ValueError("the balanced body has no one-vertex bound")
    pos = z > 0.0
    ratios = Vm[:, pos] / z[pos]
    if spec.sign > 0:
        values = np.min(ratios, axis=1, initial=_INF)
        best = int(np.argmax(values))
        return float(values[best]), best
    covers = ~np.any(Vm[:, ~pos], axis=1)
    if np.any(z < 0.0) or not np.any(covers):
        return _INF, -1
    values = np.where(covers, np.max(ratios, axis=1, initial=0.0), _INF)
    best = int(np.argmin(values))
    return float(values[best]), best


def norm_membership_R(z, V, start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                      supports: Optional[SupportStore] = None) -> float:
    """Membership value of ``z`` in the balanced hull of ``V``.

    Maximizes ``t`` subject to ``t z = sum_x c_x x`` with ``sum |c_x| <= 1``;
    the signed coefficients are split into positive and negative parts,
    over the columns ``[z | -V^T | V^T]``: variable ``1 + x`` is the
    positive part of row ``x``'s coefficient and ``1 + n + x`` its negative
    part.  ``start``, from :func:`~polyrad.stores.support_bound`, names a
    support that reproduces ``z``: its rows and whether each coefficient is
    negative.  Its basis, ``t`` and per row the part that carries the
    coefficient, is primal feasible, and phase 2 runs from it alone.
    ``supports``, when given, is the :class:`~polyrad.stores.SupportStore`
    of ``V``, and the LP's support is put at its front with the LP's
    facet.

    Since ``t z = V^T c`` with ``sum |c| <= 1``, ``t max|z|`` is at most
    ``max|V|``.  A value below ``_SUPPORT_RESIDUAL`` of that ceiling is the
    solver's round-off on a ``z`` outside the span of the vertices, whose
    true value is 0, and is returned as 0: a positive value would bound the
    radius on a body that is not full-dimensional.
    """
    z, Vm = _stack(z, V)
    n, d = Vm.shape
    # Rows z t - V^T c+ + V^T c- = 0, then the budget sum c+ + sum c- <= 1.
    A = np.empty((d + 1, 1 + 2 * n))
    A[:d, 0] = z
    np.negative(Vm.T, out=A[:d, 1:1 + n])
    A[:d, 1 + n:] = Vm.T
    A[d, 0] = 0.0
    A[d, 1:] = 1.0
    objective = np.zeros(1 + 2 * n)
    objective[0] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    lp = LinearProgram("max", objective, A, [EQ] * d + [LE], b)
    if start is not None:
        rows, negative = start
        start = [0] + (np.where(negative, 1 + n, 1) + rows).tolist()
    outcome = solve_lp(lp, assume_bounded=True, start=start)
    if outcome.status != OPTIMAL:
        raise MembershipError("balanced-hull membership LP ended %s" % outcome.status)
    if supports is not None:
        x = outcome.assignment
        _remember_support(supports, x[1:1 + n] - x[1 + n:], Vm)
    t = float(outcome.value)
    if t * float(np.max(np.abs(z))) <= _SUPPORT_RESIDUAL * float(np.max(np.abs(Vm))):
        return 0.0
    return t


def norm_membership_P(z, V) -> float:
    """Membership value of ``z`` in the order ideal of the hull of ``V``.

    The value is the largest ``t`` with ``t z <= V^T w`` for convex weights
    ``w``.  It is solved as the covering program ``min{sum c : V^T c >= z,
    c >= 0}``, whose optimum is ``1/t``: its costs are all 1, so the solver
    starts from the dual feasible slack basis, with no phase 1.  The
    vertices must be nonnegative, as the body lies in the nonnegative
    orthant.  A coordinate where ``z`` is positive and no vertex is leaves
    the program infeasible and the value 0; a ``z`` with no positive
    coordinate lies below every vertex and has the value ``inf``.  Neither
    needs an LP.

    The returned value is certified: the solver's weights are projected to
    convex weights ``w = c / sum c`` and the value is recomputed from that
    exactly-feasible decomposition as the least ``(V^T w)_i / z_i`` over
    positive ``z_i``, so it never overshoots the true optimum by more than
    roundoff in a handful of dot products.
    """
    z, Vm = _stack(z, V)
    if np.any(Vm < 0.0):
        raise ValueError("order-ideal vertices must be nonnegative")
    pos = z > 0.0
    if not np.any(pos):
        return _INF
    if np.any(pos & ~np.any(Vm > 0.0, axis=0)):
        return 0.0
    k = Vm.shape[0]
    lp = LinearProgram("min", np.ones(k), Vm.T, [GE] * z.size, z)
    outcome = solve_lp(lp, assume_bounded=True)
    if outcome.status != OPTIMAL:
        raise MembershipError("order-ideal membership LP ended %s" % outcome.status)
    c = np.clip(outcome.assignment, 0.0, None)
    s = float(c.sum())
    if not s > 0.0:
        raise MembershipError("order-ideal membership LP returned no weights")
    rhs = Vm.T @ (c / s)
    return float(np.min(rhs[pos] / z[pos]))


def _antinorm_lp(z, Vm, rays: Optional[np.ndarray], start=None):
    """Solve :func:`antinorm_membership_ext`'s LP over the columns ``[z | -V
    | -H]``, the last block only when ``rays`` (one per column) is given,
    from ``start``: per row, its basic variable (``t`` is variable 0, the
    weight of row ``x`` of ``Vm`` is ``1 + x``) or ``None`` for its slack."""
    n, d = Vm.shape
    nvar = 1 + n + (0 if rays is None else rays.shape[1])
    # Rows z t - V^T c - H^T c_H >= 0, then the budget sum c >= 1.
    A = np.zeros((d + 1, nvar))
    A[:d, 0] = z
    np.negative(Vm.T, out=A[:d, 1:1 + n])
    if rays is not None:
        np.negative(rays, out=A[:d, 1 + n:])
    A[d, 1:1 + n] = 1.0
    objective = np.zeros(nvar)
    objective[0] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    lp = LinearProgram("min", objective, A, [GE] * (d + 1), b)
    return solve_lp(lp, assume_bounded=True, start=start)


def _vertex_basis(z, Vm, best: int) -> list:
    """The antinorm LP's basis at row ``best`` of ``Vm``, a vertex that
    covers ``z``, as a ``start`` for :func:`_antinorm_lp`: ``t`` on the
    coordinate row where ``v_i / z_i`` is largest, the vertex's weight on
    the budget row, and every other coordinate row's own surplus."""
    pos = np.flatnonzero(z > 0.0)
    start = [None] * (z.size + 1)
    start[pos[np.argmax(Vm[best, pos] / z[pos])]] = 0
    start[-1] = 1 + best
    return start


def antinorm_membership_L(z, V, facets: Optional[FacetStore] = None,
                          start: Optional[Tuple[float, int]] = None) -> float:
    """Antinorm membership value: infeasible programs return ``inf``."""
    return antinorm_membership_ext(z, V, None, facets, start)


def antinorm_membership_ext(z, V, H: Optional[Sequence] = None,
                            facets: Optional[FacetStore] = None,
                            start: Optional[Tuple[float, int]] = None) -> float:
    """Antinorm membership against the hull of ``V`` plus recession rays ``H``.

    Minimizes ``t`` subject to ``t z >= sum_x c_x x + sum_h c_h h`` with
    ``sum_x c_x >= 1`` and all coefficients nonnegative.  Returns ``inf``
    when no multiple of ``z`` dominates the hull.  ``H`` is a sequence of
    rays or an ``(h, d)`` array of them, one per row, read without a copy,
    as :attr:`ConeExtension.matrix <polyrad.cone.ConeExtension.matrix>`
    stacks them once for a run; ``None`` or no rays is mode L's plain body.

    When a vertex ``v*`` covers ``z`` (:func:`one_vertex_bound`), the LP
    starts from its basis (:func:`_vertex_basis`), so no phase 1 runs: at
    ``c_v* = 1`` and ``t = max_{z_i > 0} v*_i / z_i`` every surplus
    ``t z_i - v*_i`` is nonnegative, so that basis is primal feasible.  The
    returned value is the smaller of the certified LP value and the
    one-vertex bound; both bound the true minimum from above.
    ``facets``, when given, is the :class:`~polyrad.stores.FacetStore` of
    ``V``, and an optimal LP's coordinate-row duals join it
    (:func:`~polyrad.stores._remember_dual`).  ``start``, when given, is
    :func:`one_vertex_bound` of ``z`` over ``V``, which the caller has
    already taken (:meth:`Mode.bound`).
    """
    z, Vm = _stack(z, V)
    k = Vm.shape[0]
    rays = _rays(H, z.size)
    bound, best = one_vertex_bound(MODES[MODE_L], z, Vm) if start is None else start
    basis = None if best < 0 else _vertex_basis(z, Vm, best)
    outcome = _antinorm_lp(z, Vm, None if rays is None else rays.T, basis)
    if outcome.status == INFEASIBLE:
        return bound
    if outcome.status != OPTIMAL:
        raise MembershipError("antinorm membership LP ended %s" % outcome.status)
    if facets is not None:
        _remember_dual(facets, outcome.duals[:z.size], Vm, rays)
    t = float(outcome.value)
    # Certify from an exactly feasible set of weights: any feasible
    # decomposition bounds the minimum from above, so the returned
    # value never undershoots the true optimum.
    wx = np.clip(outcome.assignment[1:1 + k], 0.0, None)
    s = float(wx.sum())
    if s > 0.0:
        if s < 1.0:
            wx = wx / s
        rhs = Vm.T @ wx
        if rays is not None:
            wh = np.clip(outcome.assignment[1 + k:], 0.0, None)
            rhs = rhs + rays.T @ wh
        pos = z > 0.0
        blocked = (~pos) & (rhs > 1e-12 * max(1.0, float(rhs.max())))
        if np.any(pos) and not np.any(blocked):
            t = max(0.0, float(np.max(rhs[pos] / z[pos])))
    return min(t, bound)


def cone_ray_margin(image, H) -> float:
    """Largest uniform margin ``t`` with ``image >= t * 1 + sum_h c_h h``.

    Used to certify that the image of a cone ray stays strictly inside the
    cone spanned by ``H`` and the all-ones direction.  The margin is free,
    so the LP maximizes ``t+ - t-`` over the columns ``[1 | -1 | H^T]``.
    It starts from ``t = min(image)`` with no ray weight, which is feasible:
    ``t+`` (``t-`` when that minimum is negative) is basic in the row of the
    minimum and every other row's slack in its own.  Returns ``inf`` when
    the margin is unbounded.  Every ray must have the dimension of
    ``image``.
    """
    image = np.asarray(image, dtype=float)
    d = image.size
    rays = _rays(H, d)
    h = 0 if rays is None else len(rays)
    objective = np.zeros(2 + h)
    objective[:2] = 1.0, -1.0
    # Rows t+ - t- + H^T c <= image.
    A = np.empty((d, 2 + h))
    A[:, 0] = 1.0
    A[:, 1] = -1.0
    if rays is not None:
        A[:, 2:] = rays.T
    start = [None] * d
    least = int(np.argmin(image))
    start[least] = 0 if image[least] >= 0.0 else 1
    lp = LinearProgram("max", objective, A, [LE] * d, image)
    outcome = solve_lp(lp, start=start)
    if outcome.status == UNBOUNDED:
        return _INF
    if outcome.status != OPTIMAL:
        raise MembershipError("cone margin LP ended %s" % outcome.status)
    return float(outcome.value)
