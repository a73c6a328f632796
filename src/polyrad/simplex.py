"""Dense two-phase primal simplex solver with Bland's anti-cycling rule.

The solver is deterministic: identical inputs produce identical pivot
sequences and outcomes.  Entering variables are chosen as the smallest
index with a sufficiently negative reduced cost; leaving rows are chosen
by the minimum-ratio test with ties broken by the smallest basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE = "<="
EQ = "="
GE = ">="

_INF = float("inf")


class LPCyclingError(RuntimeError):
    """Raised when the pivot count exceeds the safety cap."""


class LPFormatError(ValueError):
    """Raised for malformed linear programs."""


@dataclass
class LinearProgram:
    """A general-form linear program.

    ``rows`` is a list of ``(coefficients, relation, rhs)`` triples with
    relation one of ``"<="``, ``"="``, ``">="``.  ``bounds`` gives a
    ``(lower, upper)`` pair per variable; infinities are allowed.
    """

    sense: str
    objective: Sequence[float]
    rows: List[Tuple[Sequence[float], str, float]]
    bounds: List[Tuple[float, float]]


@dataclass
class LPOutcome:
    status: str
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None


def _pivot_loop(T: np.ndarray, obj: np.ndarray, basis: List[int],
                allowed: np.ndarray, bounded: bool = False,
                refactor=None) -> str:
    """Run primal simplex pivots until optimal or unbounded.

    ``T`` is the constraint tableau with the right-hand side as the last
    column; ``obj`` is the reduced-cost row with ``obj[-1]`` holding the
    negative of the current objective value.

    Pricing is Dantzig's rule (most negative reduced cost) with the
    leaving row chosen among minimum-ratio ties by the largest pivot
    element, which keeps the tableau well conditioned.  After a long run
    of degenerate pivots the loop switches to Bland's rule, which cannot
    cycle.  Both phases are deterministic.

    ``refactor``, when given, maps the current basis to a tableau and
    objective row rebuilt from the unpivoted system.  It is applied every
    few pivots and again before declaring optimality, so errors that
    accumulate across pivots on ill-conditioned problems are flushed
    instead of corrupting ratio tests and the reported objective.
    """
    m, width = T.shape
    ncols = width - 1
    cap = 2000 + 200 * (m + ncols)
    bland = False
    stalled = 0
    since_refactor = 0
    fresh = refactor is None
    for _ in range(cap):
        if refactor is not None and since_refactor >= 25:
            rebuilt = refactor(basis)
            if rebuilt is not None:
                T[:] = rebuilt[0]
                obj[:] = rebuilt[1]
            since_refactor = 0
            fresh = True
        negative = (obj[:ncols] < -PIVOT_TOL) & allowed
        candidates = np.nonzero(negative)[0]
        if candidates.size == 0:
            if not fresh:
                rebuilt = refactor(basis)
                if rebuilt is not None:
                    T[:] = rebuilt[0]
                    obj[:] = rebuilt[1]
                since_refactor = 0
                fresh = True
                continue
            return OPTIMAL
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(obj[candidates])])
        column = T[:, enter]
        eligible = np.nonzero(column > PIVOT_TOL)[0]
        if eligible.size == 0:
            if bounded:
                # The problem is known to be bounded, so an "improving ray"
                # is round-off noise; retire the column and move on.
                allowed[enter] = False
                continue
            return UNBOUNDED
        ratios = T[eligible, -1] / column[eligible]
        best = float(ratios.min())
        tie_tol = 1e-9 * max(1.0, abs(best))
        tied = eligible[ratios <= best + tie_tol]
        if bland:
            leave = int(min(tied, key=lambda r: basis[r]))
        else:
            leave = int(tied[np.argmax(column[tied])])
        if best <= tie_tol:
            stalled += 1
            if stalled > 50 + m:
                bland = True
        else:
            stalled = 0
        pivot = T[leave, enter]
        T[leave] /= pivot
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, T[leave])
        obj -= obj[enter] * T[leave]
        basis[leave] = enter
        since_refactor += 1
        fresh = refactor is None
    raise LPCyclingError("pivot cap exceeded (%d iterations)" % cap)


def solve_lp(lp: LinearProgram, assume_bounded: bool = False) -> LPOutcome:
    """Solve a general-form LP; returns optimal/infeasible/unbounded.

    ``assume_bounded`` tells the solver the objective is known to be
    bounded, so apparent improving rays are treated as round-off noise
    instead of reporting an unbounded problem.
    """
    if lp.sense not in ("max", "min"):
        raise LPFormatError("sense must be 'max' or 'min'")
    c0 = np.asarray(lp.objective, dtype=float)
    if c0.ndim != 1:
        raise LPFormatError("objective must be a vector")
    n0 = c0.size
    if len(lp.bounds) != n0:
        raise LPFormatError("bounds length must match the number of variables")

    # Variable transforms to nonnegative standard-form variables y >= 0.
    kinds: List[tuple] = []
    ncols = 0
    upper_rows: List[Tuple[int, float]] = []
    for i, (lo, hi) in enumerate(lp.bounds):
        lo = -_INF if lo is None else float(lo)
        hi = _INF if hi is None else float(hi)
        if lo > hi:
            return LPOutcome(INFEASIBLE)
        if lo == -_INF and hi == _INF:
            kinds.append(("split", ncols, ncols + 1))
            ncols += 2
        elif lo > -_INF:
            kinds.append(("shift", ncols, lo))
            ncols += 1
            if hi < _INF:
                upper_rows.append((i, hi - lo))
        else:
            kinds.append(("neg", ncols, hi))
            ncols += 1

    identity = not upper_rows and all(
        kind[0] == "shift" and kind[2] == 0.0 for kind in kinds)

    def to_y(coeffs: np.ndarray) -> Tuple[np.ndarray, float]:
        if identity:
            # Every variable is already a standard-form y >= 0; adding 0.0
            # turns -0.0 into 0.0, as the general loop below does.
            return coeffs + 0.0, 0.0
        row = np.zeros(ncols)
        const = 0.0
        for i in range(n0):
            a = coeffs[i]
            if a == 0.0:
                continue
            kind = kinds[i]
            if kind[0] == "split":
                row[kind[1]] += a
                row[kind[2]] -= a
            elif kind[0] == "shift":
                row[kind[1]] += a
                const += a * kind[2]
            else:  # x = hi - y
                row[kind[1]] -= a
                const += a * kind[2]
        return row, const

    rows_y: List[Tuple[np.ndarray, str, float]] = []
    A0 = np.zeros((len(lp.rows), n0))
    for r, (coeffs, rel, rhs) in enumerate(lp.rows):
        if rel not in (LE, EQ, GE):
            raise LPFormatError("unknown relation %r" % (rel,))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n0,):
            raise LPFormatError("row length must match the number of variables")
        A0[r] = coeffs
        row, const = to_y(coeffs)
        rows_y.append((row, rel, float(rhs) - const))
    for i, ub in upper_rows:
        row = np.zeros(ncols)
        row[kinds[i][1]] = 1.0
        rows_y.append((row, LE, ub))

    m = len(rows_y)
    nslack = sum(1 for _, rel, _ in rows_y if rel != EQ)
    total = ncols + nslack + m
    T = np.zeros((m, total + 1))
    slack_col = ncols
    for r, (row, rel, rhs) in enumerate(rows_y):
        # Equilibrate: scaling a row changes neither the feasible set nor
        # the objective but keeps the tableau well conditioned.
        scale = float(np.max(np.abs(row))) if row.size else 0.0
        factor = 1.0 / scale if scale > 0.0 else 1.0
        T[r, :ncols] = row * factor
        T[r, -1] = rhs * factor
        if rel == LE:
            T[r, slack_col] = factor
            slack_col += 1
        elif rel == GE:
            T[r, slack_col] = -factor
            slack_col += 1
    for r in range(m):
        if T[r, -1] < 0:
            T[r] = -T[r]
    art0 = ncols + nslack
    for r in range(m):
        T[r, art0 + r] = 1.0
    basis = [art0 + r for r in range(m)]
    # Pristine copy for re-solving the final basic system: pivoting drifts.
    A_std = T[:, :total].copy()
    b_std = T[:, -1].copy()

    def make_refactor(cost_full: np.ndarray):
        def refactor(basis_now: List[int]):
            try:
                B = A_std[:, basis_now]
                Binv_A = np.linalg.solve(B, A_std)
                rhs = np.linalg.solve(B, b_std)
                rhs += np.linalg.solve(B, b_std - B @ rhs)
            except np.linalg.LinAlgError:
                return None
            if not (np.all(np.isfinite(Binv_A)) and np.all(np.isfinite(rhs))):
                return None
            if float(rhs.min()) < -1e-7:
                # The basis drifted into infeasibility; rebuilding from it
                # would break the primal invariant, so keep the tableau.
                return None
            Tn = np.empty((m, total + 1))
            Tn[:, :total] = Binv_A
            Tn[:, -1] = np.clip(rhs, 0.0, None)
            cb = cost_full[np.asarray(basis_now)]
            objn = np.empty(total + 1)
            objn[:total] = cost_full - cb @ Binv_A
            objn[-1] = -float(cb @ Tn[:, -1])
            return Tn, objn
        return refactor

    # Phase 1: minimize the sum of artificials.
    cost1 = np.zeros(total)
    cost1[art0:art0 + m] = 1.0
    obj = np.zeros(total + 1)
    obj[art0:art0 + m] = 1.0
    for r in range(m):
        obj -= T[r]
    allowed = np.ones(total, dtype=bool)
    status = _pivot_loop(T, obj, basis, allowed, bounded=True,
                         refactor=make_refactor(cost1))
    if status != OPTIMAL:
        raise LPCyclingError("phase 1 reported unbounded, which is impossible")
    allowed[:] = True
    # The tableau estimate of the artificial sum drifts over many pivots;
    # recompute it from the pristine system before judging feasibility.
    art_sum = -obj[-1]
    try:
        B = A_std[:, basis]
        y_basic = np.linalg.solve(B, b_std)
        y_basic += np.linalg.solve(B, b_std - B @ y_basic)
        if np.all(np.isfinite(y_basic)):
            art_sum = sum(max(float(y_basic[r]), 0.0)
                          for r in range(m) if basis[r] >= art0)
    except np.linalg.LinAlgError:
        pass
    if art_sum > FEAS_TOL:
        return LPOutcome(INFEASIBLE)

    # Drive artificials out of the basis where possible; the rest sit on
    # redundant rows at value zero and are barred from re-entering.
    allowed[art0:] = False
    for r in range(m):
        if basis[r] >= art0:
            nonzero = np.nonzero(np.abs(T[r, :art0]) > PIVOT_TOL)[0]
            if nonzero.size:
                enter = int(nonzero[0])
                pivot = T[r, enter]
                T[r] /= pivot
                factors = T[:, enter].copy()
                factors[r] = 0.0
                T -= np.outer(factors, T[r])
                basis[r] = enter

    # Phase 2 objective (min form) in y-space.
    cy, _ = to_y(c0 if lp.sense == "min" else -c0)
    cost2 = np.zeros(total)
    cost2[:ncols] = cy
    obj = np.zeros(total + 1)
    obj[:ncols] = cy
    for r in range(m):
        cb = obj[basis[r]]
        if cb != 0.0:
            obj = obj - cb * T[r]
    status = _pivot_loop(T, obj, basis, allowed, bounded=assume_bounded,
                         refactor=make_refactor(cost2))
    if status == UNBOUNDED:
        return LPOutcome(UNBOUNDED)

    # Recover the basic solution from the unpivoted system: the basis
    # identity is exact, so this removes the error accumulated over pivots.
    # When the basis matrix is ill conditioned the tableau solution can be
    # the better of the two, so both are checked against the original
    # constraints and the cleaner one wins.
    main_col = np.array([kind[1] for kind in kinds], dtype=int)
    split = np.array([kind[0] == "split" for kind in kinds], dtype=bool)
    second_col = np.array([kind[2] for kind in kinds if kind[0] == "split"],
                          dtype=int)
    sign = np.array([-1.0 if kind[0] == "neg" else 1.0 for kind in kinds])
    offset = np.array([0.0 if kind[0] == "split" else kind[2] for kind in kinds])

    def to_x(y_basic: np.ndarray) -> np.ndarray:
        y = np.zeros(total)
        y[basis] = y_basic
        x = offset + sign * y[main_col]
        x[split] -= y[second_col]
        return x

    # Residuals are judged relative to the size of each row, since the rows
    # of one program can span many orders of magnitude.
    rels = [rel for _, rel, _ in lp.rows]
    le = np.array([rel == LE for rel in rels], dtype=bool)
    ge = np.array([rel == GE for rel in rels], dtype=bool)
    rhs0 = np.array([float(rhs) for _, _, rhs in lp.rows])
    row_mag = np.max(np.abs(A0), axis=1, initial=0.0)

    def violation(x: np.ndarray) -> float:
        xmag = float(np.max(np.abs(x))) if x.size else 0.0
        # One dot product per row: a matrix-vector product rounds
        # differently and could flip near-ties between the candidates.
        lhs = np.array([a @ x for a in A0])
        r = np.where(le, lhs - rhs0, np.where(ge, rhs0 - lhs, np.abs(lhs - rhs0)))
        scale = np.maximum(np.maximum(1.0, row_mag * max(1.0, xmag)),
                           np.abs(rhs0))
        return float(np.fmax.reduce(r / scale, initial=0.0))

    candidates_x = [to_x(T[:, -1])]
    try:
        B = A_std[:, basis]
        y_basic = np.linalg.solve(B, b_std)
        # One step of iterative refinement recovers digits lost to
        # conditioning without changing the chosen basis.
        y_basic += np.linalg.solve(B, b_std - B @ y_basic)
        if np.all(np.isfinite(y_basic)):
            y_basic[np.abs(y_basic) < 1e-13] = 0.0
            candidates_x.append(to_x(y_basic))
    except np.linalg.LinAlgError:
        pass
    scored = sorted(((violation(x), i) for i, x in enumerate(candidates_x)))
    worst, pick = scored[0]
    x = candidates_x[pick]
    if worst > 1e-6:
        raise LPCyclingError("solution violates constraints by %g" % worst)

    return LPOutcome(OPTIMAL, float(c0 @ x), x)
