"""Stores of recent optimal LP solutions over one growing vertex array,
and the membership values they bound without an LP.

A :class:`FacetStore` keeps dual directions ``y`` of recent LPs, each
with its reach over the rows of the array, and :func:`facet_bound` reads
them all in one batched product: the clipped row duals of mode-L LPs
bound the antinorm value from below.  A :class:`SupportStore` is the
facet store of mode R: it keeps the recent optimal supports of mode-R
LPs, ``d`` vertices of full rank with their inverses, and with each the
facet of its LP, written when the support is stored or refreshed.  A
support that represents ``z`` exactly bounds its balanced-hull value from
below (:func:`support_bound`), and the facets bound it from above
(:func:`facet_bound`).  The membership functions of
:mod:`polyrad.membership` fill the stores, and map a support to its LP's
columns and an LP's duals to a direction ``y``: the stores know no LP's
layout.
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
# Relative margin of a facet bound (:func:`facet_bound`), beyond the LP's
# round-off, so that a value it proves outside the body is outside by the
# LP's reckoning too.
_FACET_MARGIN = 1e-9


class FacetStore:
    """Dual directions ``y`` of recent LPs over one vertex array, at most
    ``SUPPORTS`` of them, each with its reach over the rows ``v_i`` of the
    array: ``min_i v_i . y`` for the antinorm (mode L, ``sign`` -1), whose
    store this class is, and ``max_i |v_i . y|`` for the balanced hull
    (mode R, ``sign`` +1, :class:`SupportStore`).  The array may grow by
    appended rows; a store serves no other array.  The reaches cover the
    first ``seen`` rows, whose largest entry is ``peak``, and
    :func:`facet_bound` folds in the rows appended since the store last
    answered.

    The directions sit in slots of stacks of ``SUPPORTS``, sized when the
    first one is stored, and never move: ``slot_y``, ``slot_y1``
    (``|y|_1``) and ``slot_reach`` hold them in their first ``count``
    slots, and ``order`` lists those slots newest first.  A new direction
    takes a free slot, or the oldest one's when the store is full
    (:meth:`_claim`)."""

    sign = -1

    def __init__(self):
        self.count = self.seen = 0
        self.peak = 0.0
        self.order = np.empty(SUPPORTS, dtype=np.intp)
        self._allocate(0)

    def _allocate(self, d: int) -> None:
        self.slot_y = np.empty((SUPPORTS, d))
        self.slot_y1 = np.empty(SUPPORTS)
        self.slot_reach = np.empty(SUPPORTS)

    def _front(self, slot: int, i: int) -> None:
        """Move ``slot``, at place ``i`` of ``order``, to the front."""
        order = self.order
        order[1:i + 1] = order[:i]
        order[0] = slot

    def _claim(self, d: int) -> int:
        """A free slot, or the oldest one when the store is full, recorded
        as the newest."""
        n = self.count
        if not n:
            self._allocate(d)
        if n < SUPPORTS:
            slot = n
            self.count = n = n + 1
        else:
            slot = int(self.order[n - 1])
        self._front(slot, n - 1)
        return slot

    def _put(self, slot: int, y: np.ndarray, Vm: np.ndarray) -> None:
        """Write ``y`` into ``slot`` with ``|y|_1`` and its reach over the
        rows of ``Vm`` the store has seen."""
        self.slot_y[slot] = y
        self.slot_y1[slot] = abs(y).sum()
        products = Vm[:self.seen] @ y
        self.slot_reach[slot] = (abs(products).max(initial=0.0) if self.sign > 0
                                 else products.min(initial=_INF))


class SupportStore(FacetStore):
    """The recent optimal supports of the mode-R LPs over one vertex array,
    at most ``SUPPORTS`` of them.  Support ``k`` is ``d`` rows of the array
    in increasing order, of full rank, with ``V_S^T``, the transpose of
    those rows, and its inverse.

    Each support also keeps the facet of the LP that stored or last
    refreshed it, written then: the dual direction ``y = (V_S^T)^-T
    sign(c_S)`` of that LP's coefficients ``c_S``, whose reach ``max_i |v_i
    . y|`` over the rows of the array bounds the balanced hull
    (:func:`facet_bound`).

    ``slot_rows``, ``slot_VT`` and ``slot_inv`` hold the supports in the
    facets' slots."""

    sign = 1

    def _allocate(self, d: int) -> None:
        super()._allocate(d)
        self.slot_rows = np.empty((SUPPORTS, d), dtype=np.intp)
        self.slot_VT = np.empty((SUPPORTS, d, d))
        self.slot_inv = np.empty((SUPPORTS, d, d))


def support_bound(z, supports: SupportStore
                  ) -> Tuple[float, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The balanced-hull membership value of ``z`` that the best stored
    support proves, and that support as a ``start`` for
    :func:`~polyrad.membership.norm_membership_R`: its rows, and whether
    each row's coefficient is negative (``(0.0, None)`` when none proves
    one).  The rows are a copy, which a later eviction of the support's
    slot leaves as it is.

    One batched product with the stored inverses gives ``c`` with ``V_S^T
    c = z`` for every support ``S``; ``c`` counts when ``V_S^T c``
    reproduces ``z`` to a relative residual of ``_SUPPORT_RESIDUAL``.  Then
    ``z / |c|_1`` is a point of the balanced hull, so ``t = 1 / |c|_1``
    bounds the value from below.  Among equal bounds the newest support
    wins.  The supports' facets bound the value from above
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
    return 1.0 / float(norms[best]), (supports.slot_rows[best].copy(), c[best] < 0.0)


def facet_bound(z, Vm: np.ndarray, store: FacetStore) -> float:
    """The membership value of ``z`` that the facets of ``store`` bound,
    from above for a :class:`SupportStore` (``inf`` when none does), from
    below for a mode-L :class:`FacetStore` (``0.0`` when it is empty).

    The balanced hull of the rows ``v_i`` lies between the two hyperplanes
    ``|x . y| = max_i |v_i . y|`` for every ``y``, so a point ``t z`` of it
    has ``t <= reach / |y . z|``.  For the antinorm take ``y >= 0`` with
    ``y . h >= 0`` for every cone ray ``h``, as :func:`_remember_dual`
    keeps: a feasible ``t`` has ``t z >= sum_x c_x x + sum_h c_h h`` with
    ``sum_x c_x >= 1``, so ``t y . z >= min_x y . x``, the reach, and ``t
    >= reach / (y . z)``.  By duality the optimal ``y`` of an LP makes
    either bound exact for its own ``z``.

    The rows of ``Vm`` appended since the store last answered are folded
    into the reaches first, and one batched product gives every ``y . z``.
    Each dot product of ``d`` terms with ``z`` or a row of ``Vm`` is off by
    at most ``delta = d eps |y|_1 max(|z|, |V|)`` (largest entries), so
    with the store's ``s = sign`` a facet gives ``(reach + s delta) / (|y
    . z| - s delta)`` when the divisor is positive.  The least of these for
    ``s = +1``, the largest for ``s = -1``, is moved outwards by
    ``_FACET_MARGIN`` relative, beyond the round-off of the LP that would
    otherwise give the value.  In mode L ``y`` and ``z`` are nonnegative,
    so ``|y . z| = y . z``.
    """
    s = store.sign
    no_bound = _INF if s > 0 else 0.0
    n = store.count
    if not n:
        return no_bound
    y, reach = store.slot_y[:n], store.slot_reach[:n]
    if Vm.shape[0] > store.seen:
        new = Vm[store.seen:]
        if s > 0:
            np.maximum(reach, abs(new @ y.T).max(axis=0), out=reach)
        else:
            np.minimum(reach, (new @ y.T).min(axis=0), out=reach)
        store.peak = max(store.peak, float(abs(new).max()))
        store.seen = Vm.shape[0]
    delta = z.size * _EPS * max(float(abs(z).max()), store.peak) * store.slot_y1[:n]
    excess = abs(y @ z) - s * delta
    proving = excess > 0.0
    if not proving.any():
        return no_bound
    t = (reach + s * delta)[proving] / excess[proving]
    return float(t.min() if s > 0 else t.max()) * (1.0 + s * _FACET_MARGIN)


def _remember_dual(facets: FacetStore, duals: np.ndarray, Vm: np.ndarray,
                   rays: Optional[np.ndarray]) -> None:
    """Keep ``duals``, the coordinate-row duals of an antinorm LP over
    ``Vm``, clipped at zero, as ``y`` in ``facets``, in place of the oldest
    when the store is full.

    A ``y`` that is zero or not finite is not kept, nor, with cone
    ``rays``, one whose computed ``y . h`` falls below its round-off bound
    ``d eps |y|_1 max|h|`` for some ray ``h``: the optimum's ``y . h`` is 0
    for a ray in use, and clipping or round-off can make it negative,
    where :func:`facet_bound` would be no bound."""
    d = Vm.shape[1]
    y = np.maximum(duals, 0.0)
    y1 = float(y.sum())
    if not 0.0 < y1 < _INF:
        return
    if rays is not None and (rays @ y < d * _EPS * y1 * abs(rays).max(axis=1)).any():
        return
    facets._put(facets._claim(d), y, Vm)


def _remember_support(supports: SupportStore, c: np.ndarray, Vm: np.ndarray) -> None:
    """Put the support of ``c``, the rows of its ``d`` largest ``|c|``, at
    the front of ``supports``, keeping ``SUPPORTS`` distinct ones, with the
    facet ``y = (V_S^T)^-T sign(c_S)`` of ``c`` on the support.

    A support the store holds moves to the front as it is, and only its
    facet is replaced.  A new one pays one inverse of ``V_S^T``, and is not
    kept when that has no inverse in floating point: ``inv`` raises, or
    returns entries that are not finite, or ``|V_S|_1 |V_S^-1|_1`` reaches
    ``1 / (d eps)``, where the rank that ``matrix_rank`` reads from the
    singular values falls below ``d``.  It takes a free slot, or the
    oldest support's when the store is full.
    """
    d = Vm.shape[1]
    if c.size < d:
        return
    support = np.sort(np.argsort(-np.abs(c), kind="stable")[:d])
    n = supports.count
    held = (supports.slot_rows[:n] == support).all(axis=1).nonzero()[0] if n else ()
    if len(held):
        slot = int(held[0])
        supports._front(slot, int((supports.order[:n] == slot).argmax()))
        inv = supports.slot_inv[slot]
    else:
        VT = Vm[support].T
        try:
            inv = np.linalg.inv(VT)
        except np.linalg.LinAlgError:
            return
        # |V_S|_1 is the largest row sum of V_S^T, and |V_S^-1|_1 that of
        # its inverse; an inverse that is not finite makes the product inf
        # or nan, which fails the test as well.
        if not abs(VT).sum(axis=1).max() * abs(inv).sum(axis=1).max() < 1.0 / (d * _EPS):
            return
        slot = supports._claim(d)
        supports.slot_rows[slot] = support
        supports.slot_VT[slot] = VT
        supports.slot_inv[slot] = inv
    supports._put(slot, inv.T @ np.sign(c[support]), Vm)
