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
from below by a recent optimal support, d vertices of full rank that
represent ``z`` exactly (:func:`support_bound`); a :class:`SupportStore`
keeps the recent supports of one vertex array with their inverses, so
the bound is one batched product.  :meth:`Mode.bound` picks the mode's,
which settles a point without an LP.  From above, mode R's value is
bounded by the facets of those LPs, their optimal dual directions with
their reach over the vertices (:func:`facet_bound`), again one batched
product; growth uses it to find alive points without an LP.  Each body
builds its own program as arrays
(:class:`~polyrad.simplex.LinearProgram`), and refuses a point, vertex
or ray that is not finite; the antinorm LP starts from the best covering
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

_INF = float("inf")
# The number of recent optimal supports of mode-R LPs a
# :class:`SupportStore` keeps.
SUPPORTS = 64
# Relative round-off: a support's coefficients count only when they
# reproduce ``z`` to this relative residual, and a mode-R LP value this
# small against its ceiling ``max|V| / max|z|`` is read as 0.
_SUPPORT_RESIDUAL = 1e-12
_EPS = float(np.finfo(float).eps)
# Relative margin of a facet bound (:func:`facet_bound`), above the LP's
# round-off, so that a value it proves outside the body is outside by the
# LP's reckoning too.
_FACET_MARGIN = 1e-9

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

    def bound(self, z, points, supports) -> Tuple[float, Optional[list]]:
        """The value of ``z`` that ``points`` of the body prove, and mode R's
        LP start: :func:`support_bound` in R, :func:`one_vertex_bound` in P, L."""
        if self.balanced:
            return support_bound(z, points, supports)
        return one_vertex_bound(self, z, points)[0], None


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
    its bound comes from a cached support (:func:`support_bound`).
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


class SupportStore:
    """The recent optimal supports of the mode-R LPs over one vertex array,
    at most ``SUPPORTS`` of them.  Support ``k`` is ``d`` rows of the array
    in increasing order, of full rank, with ``V_S^T``, the transpose of
    those rows, and its inverse.  The array may grow by appended rows,
    which leaves every entry valid; a store serves no other array.

    Each support also keeps the facet of the LP that stored or last
    refreshed it: the dual direction ``y = (V_S^T)^-T sign(c_S)``, whose
    reach ``max_i |v_i . y|`` over the rows of the array bounds the
    balanced hull (:func:`facet_bound`).  A support keeps that LP's
    coefficients ``c_S``, and :func:`facet_bound` sets the facets of the
    slots in ``stale`` before it answers, so a store that is never asked,
    as in :func:`~polyrad.certificates.verify`, computes none.  The
    reaches cover the first ``seen`` rows, whose largest entry is
    ``peak``; :func:`facet_bound` folds in the rows appended since it
    last answered.

    The supports sit in slots of stacks preallocated for ``SUPPORTS`` and
    never move: ``slot_rows``, ``slot_VT``, ``slot_inv``, ``slot_c``,
    ``slot_y``, ``slot_y1`` (``|y|_1``) and ``slot_reach`` hold them in
    their first ``len(store)`` slots, and ``order`` lists those slots
    newest first.  ``rows``, ``VT`` and ``inv`` read the stacks newest
    first (copies)."""

    def __init__(self):
        self.count = self.seen = 0
        self.peak = 0.0
        self.stale = set()
        self.order = np.empty(SUPPORTS, dtype=np.intp)
        self.slot_rows = np.empty((0, 0), dtype=np.intp)
        self.slot_VT = self.slot_inv = np.empty((0, 0, 0))
        self.slot_c = self.slot_y = np.empty((0, 0))
        self.slot_y1 = self.slot_reach = np.empty(0)

    def __len__(self) -> int:
        return self.count

    rows = property(lambda self: self.slot_rows[self.order[:self.count]])
    VT = property(lambda self: self.slot_VT[self.order[:self.count]])
    inv = property(lambda self: self.slot_inv[self.order[:self.count]])


def support_bound(z, Vm: np.ndarray,
                  supports: SupportStore) -> Tuple[float, Optional[list]]:
    """The balanced-hull membership value of ``z`` that the best stored
    support proves, and that support's basis as a ``start`` for
    :func:`norm_membership_R` (``(0.0, None)`` when none proves one).

    One batched product with the stored inverses gives ``c`` with ``V_S^T
    c = z`` for every support ``S``; ``c`` counts when ``V_S^T c``
    reproduces ``z`` to a relative residual of ``_SUPPORT_RESIDUAL``.  Then
    ``z / |c|_1`` is a point of the balanced hull, so ``t = 1 / |c|_1``
    bounds the value from below, and the basis of ``t`` and, per row ``i``
    of ``S``, the positive part of ``c_i`` when ``c_i >= 0`` and its
    negative part otherwise, is primal feasible.  Among equal bounds the
    newest support wins.  The supports' facets bound the value from above
    (:func:`facet_bound`).
    """
    n = supports.count
    if not n:
        return 0.0, None
    c = supports.slot_inv[:n] @ z
    residual = abs((supports.slot_VT[:n] @ c[:, :, None])[:, :, 0] - z).max(axis=1)
    norms = np.where(residual <= _SUPPORT_RESIDUAL * float(abs(z).max()),
                     abs(c).sum(axis=1), _INF)
    order = supports.order[:n]
    best = int(order[norms[order].argmin()])
    if norms[best] == _INF:
        return 0.0, None
    # Variable 1 + x is the positive part of row x's coefficient, 1 + n + x
    # its negative part.
    parts = np.where(c[best] >= 0.0, 1, 1 + Vm.shape[0]) + supports.slot_rows[best]
    return 1.0 / float(norms[best]), [0] + parts.tolist()


def facet_bound(z, Vm: np.ndarray, supports: SupportStore) -> float:
    """The balanced-hull membership value of ``z`` that the stored facets
    bound from above, ``inf`` when none does.

    The balanced hull of the rows ``v_i`` lies between the two hyperplanes
    ``|x . y| = max_i |v_i . y|`` for every ``y``, so a point ``t z`` of it
    has ``t <= reach / |y . z|``; by duality the optimal ``y`` of an LP
    makes this exact for the points of its facet.  One batched product
    with the stored directions gives every ``y . z``, after the stale
    facets are set and the rows of ``Vm`` appended since the store last
    answered are folded into the reaches.  Each dot product of ``d``
    terms is off by at most ``delta = d eps |y|_1 max(|z|, |V|)``
    (largest entries), so a facet gives ``(reach + delta) / (|y . z| -
    delta)`` when ``|y . z| > delta``, and the least of these is raised
    by ``_FACET_MARGIN`` relative, beyond the round-off of the LP that
    would otherwise give the value.
    """
    n = supports.count
    if not n:
        return _INF
    if supports.stale:
        _set_facets(supports, Vm)
    y, reach = supports.slot_y[:n], supports.slot_reach[:n]
    if Vm.shape[0] > supports.seen:
        new = Vm[supports.seen:]
        np.maximum(reach, abs(new @ y.T).max(axis=0), out=reach)
        supports.peak = max(supports.peak, float(abs(new).max()))
        supports.seen = Vm.shape[0]
    scale = z.size * _EPS * max(float(abs(z).max()), supports.peak)
    delta = scale * supports.slot_y1[:n]
    excess = abs(y @ z) - delta
    proving = excess > 0.0
    if not proving.any():
        return _INF
    t = ((reach + delta)[proving] / excess[proving]).min()
    return float(t) * (1.0 + _FACET_MARGIN)


def _set_facets(supports: SupportStore, Vm: np.ndarray) -> None:
    """Give each stale slot the facet ``y = (V_S^T)^-T sign(c_S)`` of its
    support, with its reach over the rows the store has seen."""
    slots = np.fromiter(supports.stale, dtype=np.intp, count=len(supports.stale))
    supports.stale.clear()
    signs = np.sign(supports.slot_c[slots])
    y = (supports.slot_inv[slots].transpose(0, 2, 1) @ signs[:, :, None])[:, :, 0]
    supports.slot_y[slots] = y
    supports.slot_y1[slots] = abs(y).sum(axis=1)
    reach = abs(Vm[:supports.seen] @ y.T).max(axis=0, initial=0.0)
    supports.slot_reach[slots] = reach


def _remember_support(supports: SupportStore, c: np.ndarray, Vm: np.ndarray) -> None:
    """Put the support of ``c``, the rows of its ``d`` largest ``|c|``, at
    the front of ``supports``, keeping ``SUPPORTS`` distinct ones, with
    ``c`` on the support, whose signs give its facet.

    A support the store holds moves to the front as it is, and only its
    ``c_S`` (and so its facet) is replaced.  A new one pays one inverse
    of ``V_S^T``, and is not kept when that has no inverse in floating
    point: ``inv`` raises, or returns entries that are not finite, or
    ``|V_S|_1 |V_S^-1|_1`` reaches ``1 / (d eps)``, where the rank that
    ``matrix_rank`` reads from the singular values falls below ``d``.  It
    takes a free slot, or the oldest support's when the store is full.
    """
    d = Vm.shape[1]
    if c.size < d:
        return
    support = np.sort(np.argsort(-np.abs(c), kind="stable")[:d])
    n = supports.count
    order = supports.order
    if n:
        held = (supports.slot_rows[:n] == support).all(axis=1).nonzero()[0]
        if held.size:
            i = int((order[:n] == held[0]).argmax())
            order[1:i + 1] = order[:i]
            order[0] = held[0]
            supports.slot_c[held[0]] = c[support]
            supports.stale.add(int(held[0]))
            return
    VT = Vm[support].T
    try:
        inv = np.linalg.inv(VT)
    except np.linalg.LinAlgError:
        return
    # |V_S|_1 is the largest row sum of V_S^T, and |V_S^-1|_1 that of its
    # inverse; an inverse that is not finite makes the product inf or nan,
    # which fails the test as well.
    if not abs(VT).sum(axis=1).max() * abs(inv).sum(axis=1).max() < 1.0 / (d * _EPS):
        return
    if not n:
        supports.slot_rows = np.empty((SUPPORTS, d), dtype=np.intp)
        supports.slot_VT = np.empty((SUPPORTS, d, d))
        supports.slot_inv = np.empty((SUPPORTS, d, d))
        supports.slot_c = np.empty((SUPPORTS, d))
        supports.slot_y = np.empty((SUPPORTS, d))
        supports.slot_y1 = np.empty(SUPPORTS)
        supports.slot_reach = np.empty(SUPPORTS)
    if n < SUPPORTS:
        slot = n
        supports.count = n = n + 1
    else:
        slot = order[n - 1]
    order[1:n] = order[:n - 1]
    order[0] = slot
    supports.slot_rows[slot] = support
    supports.slot_VT[slot] = VT
    supports.slot_inv[slot] = inv
    supports.slot_c[slot] = c[support]
    supports.stale.add(int(slot))


def norm_membership_R(z, V, start: Optional[list] = None,
                      supports: Optional[SupportStore] = None) -> float:
    """Membership value of ``z`` in the balanced hull of ``V``.

    Maximizes ``t`` subject to ``t z = sum_x c_x x`` with ``sum |c_x| <= 1``;
    the signed coefficients are split into positive and negative parts,
    over the columns ``[z | -V^T | V^T]``: variable ``1 + x`` is the
    positive part of row ``x``'s coefficient and ``1 + n + x`` its negative
    part.  ``start``, from :func:`support_bound`, is a primal feasible
    basis, and phase 2 runs from it alone.  ``supports``, when given, is
    the :class:`SupportStore` of ``V``, and the LP's support is put at its
    front.

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


def antinorm_membership_L(z, V) -> float:
    """Antinorm membership value: infeasible programs return ``inf``."""
    return antinorm_membership_ext(z, V, None)


def antinorm_membership_ext(z, V, H: Optional[Sequence] = None) -> float:
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
    """
    z, Vm = _stack(z, V)
    k = Vm.shape[0]
    rays = _rays(H, z.size)
    bound, best = one_vertex_bound(MODES[MODE_L], z, Vm)
    start = None if best < 0 else _vertex_basis(z, Vm, best)
    outcome = _antinorm_lp(z, Vm, None if rays is None else rays.T, start)
    if outcome.status == INFEASIBLE:
        return bound
    if outcome.status != OPTIMAL:
        raise MembershipError("antinorm membership LP ended %s" % outcome.status)
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
