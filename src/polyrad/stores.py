"""Stores of recent optimal LP solutions over one growing vertex array,
and the membership values they bound without an LP.

A :class:`SupportStore` keeps the recent optimal supports of mode-R LPs,
``d`` vertices of full rank with their inverses: a support that
represents ``z`` exactly bounds its balanced-hull value from below
(:func:`support_bound`), and its LP's dual direction, a facet, bounds it
from above (:func:`facet_bound`).  A :class:`FacetStore` keeps the
clipped row duals of recent mode-L LPs, which bound the antinorm value
from below (:func:`antinorm_facet_bound`).  Each bound is one batched
product over the store, and each store folds the rows appended to its
array into its facets' reaches (:meth:`FacetStore.margins`).  The
membership functions of :mod:`polyrad.membership` fill the stores.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_INF = float("inf")
# The number of recent optimal supports of mode-R LPs a
# :class:`SupportStore` keeps, and of mode-L duals a :class:`FacetStore`.
SUPPORTS = 64
# Relative round-off: a support's coefficients count only when they
# reproduce ``z`` to this relative residual, and a mode-R LP value this
# small against its ceiling ``max|V| / max|z|`` is read as 0.
_SUPPORT_RESIDUAL = 1e-12
_EPS = float(np.finfo(float).eps)
# Relative margin of a facet bound (:func:`facet_bound`,
# :func:`antinorm_facet_bound`), beyond the LP's round-off, so that a
# value it proves outside the body is outside by the LP's reckoning too.
_FACET_MARGIN = 1e-9


class FacetStore:
    """Dual directions ``y`` of recent LPs over one vertex array, at most
    ``SUPPORTS`` of them, each with its reach over the rows ``v_i`` of the
    array: ``min_i v_i . y`` for the antinorm (mode L), whose store this
    class is, and ``max_i |v_i . y|`` for the balanced hull (mode R,
    :class:`SupportStore`).  The array may grow by appended rows; a store
    serves no other array.  The reaches cover the first ``seen`` rows,
    whose largest entry is ``peak``, and a bound folds in the rows
    appended since the store last answered (:meth:`margins`).

    ``slot_y``, ``slot_y1`` (``|y|_1``) and ``slot_reach`` hold the
    directions in their first ``len(store)`` slots.  A mode-L store is a
    ring: ``added`` counts the duals it took (:func:`_remember_dual`), and
    the next one replaces the oldest once ``SUPPORTS`` are held."""

    balanced = False

    def __init__(self):
        self.count = self.seen = self.added = 0
        self.peak = 0.0
        self.slot_y = np.empty((0, 0))
        self.slot_y1 = self.slot_reach = np.empty(0)

    def __len__(self) -> int:
        return self.count

    def margins(self, z, Vm: np.ndarray) -> np.ndarray:
        """Fold the rows of ``Vm`` appended since the store last answered
        into the reaches, and return each direction's round-off bound
        ``delta = d eps |y|_1 max(|z|, |V|)`` (largest entries) on a dot
        product of ``d`` terms with ``z`` or a row of ``Vm``."""
        n = self.count
        y, reach = self.slot_y[:n], self.slot_reach[:n]
        if Vm.shape[0] > self.seen:
            new = Vm[self.seen:]
            if self.balanced:
                np.maximum(reach, abs(new @ y.T).max(axis=0), out=reach)
            else:
                np.minimum(reach, (new @ y.T).min(axis=0), out=reach)
            self.peak = max(self.peak, float(abs(new).max()))
            self.seen = Vm.shape[0]
        scale = z.size * _EPS * max(float(abs(z).max()), self.peak)
        return scale * self.slot_y1[:n]


class SupportStore(FacetStore):
    """The recent optimal supports of the mode-R LPs over one vertex array,
    at most ``SUPPORTS`` of them.  Support ``k`` is ``d`` rows of the array
    in increasing order, of full rank, with ``V_S^T``, the transpose of
    those rows, and its inverse.

    Each support also keeps the facet of the LP that stored or last
    refreshed it: the dual direction ``y = (V_S^T)^-T sign(c_S)``, whose
    reach ``max_i |v_i . y|`` over the rows of the array bounds the
    balanced hull (:func:`facet_bound`).  A support keeps that LP's
    coefficients ``c_S``, and :func:`facet_bound` sets the facets of the
    slots in ``stale`` before it answers, so a store that is never asked,
    as in :func:`~polyrad.certificates.verify`, computes none.

    The supports sit in slots of stacks preallocated for ``SUPPORTS`` and
    never move: ``slot_rows``, ``slot_VT``, ``slot_inv`` and ``slot_c``
    hold them, as the facet stacks do, in their first ``len(store)``
    slots, and ``order`` lists those slots newest first.  ``rows``, ``VT``
    and ``inv`` read the stacks newest first (copies)."""

    balanced = True

    def __init__(self):
        super().__init__()
        self.stale = set()
        self.order = np.empty(SUPPORTS, dtype=np.intp)
        self.slot_rows = np.empty((0, 0), dtype=np.intp)
        self.slot_VT = self.slot_inv = np.empty((0, 0, 0))
        self.slot_c = np.empty((0, 0))

    rows = property(lambda self: self.slot_rows[self.order[:self.count]])
    VT = property(lambda self: self.slot_VT[self.order[:self.count]])
    inv = property(lambda self: self.slot_inv[self.order[:self.count]])


def support_bound(z, Vm: np.ndarray,
                  supports: SupportStore) -> Tuple[float, Optional[list]]:
    """The balanced-hull membership value of ``z`` that the best stored
    support proves, and that support's basis as a ``start`` for
    :func:`~polyrad.membership.norm_membership_R` (``(0.0, None)`` when
    none proves one).

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
    answered are folded into the reaches.  Each dot product is off by at
    most :meth:`~FacetStore.margins`'s ``delta``, so a facet gives
    ``(reach + delta) / (|y . z| - delta)`` when ``|y . z| > delta``, and
    the least of these is raised by ``_FACET_MARGIN`` relative, beyond
    the round-off of the LP that would otherwise give the value.
    """
    n = supports.count
    if not n:
        return _INF
    if supports.stale:
        _set_facets(supports, Vm)
    delta = supports.margins(z, Vm)
    y, reach = supports.slot_y[:n], supports.slot_reach[:n]
    excess = abs(y @ z) - delta
    proving = excess > 0.0
    if not proving.any():
        return _INF
    t = ((reach + delta)[proving] / excess[proving]).min()
    return float(t) * (1.0 + _FACET_MARGIN)


def antinorm_facet_bound(z, Vm: np.ndarray, facets: FacetStore) -> float:
    """The antinorm membership value of ``z`` that the stored duals bound
    from below, ``0.0`` when the store is empty.

    Take ``y >= 0`` with ``y . h >= 0`` for every cone ray ``h``, as
    :func:`_remember_dual` keeps.  A feasible ``t`` has ``t z >= sum_x c_x
    x + sum_h c_h h`` with ``sum_x c_x >= 1``, so ``t y . z >= min_x y .
    x``, the reach: ``t >= reach / (y . z)``, and by duality the optimal
    ``y`` of an LP makes this exact for its own ``z``.  One batched
    product gives every ``y . z``.  With :meth:`~FacetStore.margins`'s
    ``delta`` a direction gives ``(reach - delta) / (y . z + delta)``,
    and the largest of these is lowered by ``_FACET_MARGIN`` relative,
    beyond the round-off of the LP that would otherwise give the value.
    """
    n = facets.count
    if not n:
        return 0.0
    delta = facets.margins(z, Vm)
    t = ((facets.slot_reach[:n] - delta) / (facets.slot_y[:n] @ z + delta)).max()
    return float(t) * (1.0 - _FACET_MARGIN)


def _remember_dual(facets: FacetStore, duals: np.ndarray, Vm: np.ndarray,
                   rays: Optional[np.ndarray]) -> None:
    """Keep the coordinate-row duals of an antinorm LP over ``Vm``, clipped
    at zero, as ``y`` in ``facets``, in place of the oldest when the ring
    is full.

    A ``y`` that is zero or not finite is not kept, nor, with cone
    ``rays``, one whose computed ``y . h`` falls below its round-off bound
    ``d eps |y|_1 max|h|`` for some ray ``h``: the optimum's ``y . h`` is 0
    for a ray in use, and clipping or round-off can make it negative,
    where :func:`antinorm_facet_bound` would be no bound."""
    d = Vm.shape[1]
    y = np.maximum(duals[:d], 0.0)
    y1 = float(y.sum())
    if not 0.0 < y1 < _INF:
        return
    if rays is not None and (rays @ y < d * _EPS * y1 * abs(rays).max(axis=1)).any():
        return
    if not facets.added:
        facets.slot_y = np.empty((SUPPORTS, d))
        facets.slot_y1 = np.empty(SUPPORTS)
        facets.slot_reach = np.empty(SUPPORTS)
    slot = facets.added % SUPPORTS
    facets.added += 1
    facets.count = min(facets.added, SUPPORTS)
    facets.slot_y[slot] = y
    facets.slot_y1[slot] = y1
    facets.slot_reach[slot] = (Vm[:facets.seen] @ y).min(initial=_INF)


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
