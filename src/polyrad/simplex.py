"""Dense simplex solver with Bland's anti-cycling rule.

Every variable is nonnegative.  A program whose rows are all inequalities
and whose costs (in min form) are all strictly positive starts from its
slack basis, which is then dual feasible: a dual simplex runs until
the basis is primal feasible, with no artificial variables and no phase 1,
and the primal simplex then finishes as phase 2.  The covering programs
of the mode-P norm, ``min{sum c : V^T c >= z, c >= 0}``, take this path.
A caller that knows a primal feasible basis may pass it as ``start``; the
primal simplex then runs as phase 2 alone, with no artificial variables.
The mode-L antinorm programs start from their best single vertex, and the
mode-R balanced-hull programs from their best cached support.  A started
solve that fails is solved again without its start.  Every other program
runs the two-phase primal simplex.

Pivoting accumulates error, so every 25 pivots, and before either loop
reports any status but unbounded, the tableau is rebuilt for the current
basis from the unpivoted, equilibrated system: its basic values by one
solve and one step of iterative refinement, the rest of the tableau by one
more solve.  The rebuild refuses a basis whose basis matrix is singular,
whose rebuild is not finite, or whose basic values (in the dual loop, its
reduced costs) fall below -1e-7, and otherwise clips their round-off below
zero.  A refused basis keeps its pivoted tableau, except in a started
solve, which raises :class:`LPCyclingError` instead so that
:func:`solve_lp` solves the program again without the start.  Since a loop
reports such a status only right after a rebuild, phase 1's feasibility
check and the final recovery read the basic values that rebuild solved
for: each final basis is solved once.

The solver is deterministic: identical inputs produce identical pivot
sequences and outcomes.  After a long run of degenerate pivots either
loop switches to Bland's rule (smallest index), which cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
# The dual simplex's relative tolerance: a basic value below -DUAL_TOL times
# its scale is negative, and its ratio test lets reduced costs dip to
# -DUAL_TOL.
DUAL_TOL = 1e-11

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
    """A linear program over nonnegative variables.

    ``rows`` is a list of ``(coefficients, relation, rhs)`` triples with
    relation one of ``"<="``, ``"="``, ``">="``.  Any other bound on a
    variable is written as a row, and a free quantity as the difference of
    two variables by the program that builds it.
    """

    sense: str
    objective: Sequence[float]
    rows: List[Tuple[Sequence[float], str, float]]

    @property
    def bounds(self) -> List[Tuple[float, float]]:
        """``(0, inf)`` per variable, read by ``bench/tracing.py``."""
        return [(0.0, _INF)] * len(self.objective)


@dataclass
class LPOutcome:
    """A solve's status, value and assignment, its pivot counts (phase 1,
    the dual simplex on the slack-basis path, and phase 2), and whether
    phase 2 started from the caller's basis, with no phase 1."""

    status: str
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    started: bool = False


def _pivot(T: np.ndarray, leave: int, enter: int) -> None:
    """Pivot ``T`` on row ``leave`` and column ``enter``."""
    T[leave] /= T[leave, enter]
    factors = T[:, enter].copy()
    factors[leave] = 0.0
    T -= factors[:, None] * T[leave]


def _drive(T: np.ndarray, obj: np.ndarray, basis: List[int], refactor,
           choose) -> Tuple[str, int]:
    """Pivot until ``choose`` reports a status; returns it and the number of
    pivots.

    ``T`` is the constraint tableau with the right-hand side as the last
    column; ``obj`` is the reduced-cost row with ``obj[-1]`` holding the
    negative of the current objective value.  ``choose(bland)`` returns a
    ``(leave, enter, degenerate)`` pivot, ``None`` to look again, or a
    status.  After a long run of degenerate pivots ``bland`` turns on, and
    ``choose`` must then follow Bland's rule, which cannot cycle.

    ``refactor(basis, T, obj)`` is the rebuild of the module docstring.  It
    runs every 25 pivots and again before any status but unbounded is
    returned, so that status is confirmed on a fresh tableau.
    """
    m, width = T.shape
    cap = 2000 + 200 * (m + width - 1)
    bland = False
    stalled = 0
    since_refactor = 0
    fresh = False
    pivots = 0
    for _ in range(cap):
        if since_refactor >= 25:
            refactor(basis, T, obj)
            since_refactor = 0
            fresh = True
        step = choose(bland)
        if step is None:
            continue
        if isinstance(step, str):
            # Only an unbounded ray returns without a rebuild since the
            # last pivot: any other status comes right after the current
            # basis was rebuilt, and the caller may read its basic values.
            if step == UNBOUNDED or fresh:
                return step, pivots
            refactor(basis, T, obj)
            since_refactor = 0
            fresh = True
            continue
        leave, enter, degenerate = step
        if degenerate:
            stalled += 1
            if stalled > 50 + m:
                bland = True
        else:
            stalled = 0
        _pivot(T, leave, enter)
        obj -= obj[enter] * T[leave]
        basis[leave] = enter
        pivots += 1
        since_refactor += 1
        fresh = False
    raise LPCyclingError("pivot cap exceeded (%d iterations)" % cap)


def _pivot_loop(T: np.ndarray, obj: np.ndarray, basis: List[int],
                allowed: np.ndarray, bounded: bool, refactor) -> Tuple[str, int]:
    """Run primal simplex pivots from a primal feasible basis until optimal
    or unbounded; returns the status and the number of pivots.

    Pricing is Dantzig's rule (most negative reduced cost among the
    ``allowed`` columns) with the leaving row chosen among minimum-ratio
    ties by the largest pivot element, which keeps the tableau well
    conditioned.  Under Bland's rule both are the smallest index.  A pivot
    is degenerate when its ratio is zero.
    """
    ncols = T.shape[1] - 1

    def choose(bland: bool):
        negative = (obj[:ncols] < -PIVOT_TOL) & allowed
        candidates = np.nonzero(negative)[0]
        if candidates.size == 0:
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
                return None
            return UNBOUNDED
        ratios = T[eligible, -1] / column[eligible]
        best = float(ratios.min())
        tie_tol = 1e-9 * max(1.0, abs(best))
        tied = eligible[ratios <= best + tie_tol]
        if bland:
            leave = int(min(tied, key=lambda r: basis[r]))
        else:
            leave = int(tied[np.argmax(column[tied])])
        return leave, enter, best <= tie_tol

    return _drive(T, obj, basis, refactor, choose)


def _dual_loop(T: np.ndarray, obj: np.ndarray, basis: List[int],
               xtol: np.ndarray, refactor) -> Tuple[str, int]:
    """Run dual simplex pivots from a dual feasible basis until the basic
    solution is primal feasible (optimal) or a row proves the program
    infeasible; returns the status and the number of pivots.

    A basic value counts as negative below ``-xtol`` of its column.  The
    leaving row has the most negative basic value, and the entering column
    comes from Harris's ratio test.  Under the dual Bland rule the leaving
    row is the negative one with the smallest basic index, and the
    entering column the smallest index the ratio test allows.  A pivot is
    degenerate when its ratio is zero.
    """
    ncols = T.shape[1] - 1

    def choose(bland: bool):
        rows = np.nonzero(T[:, -1] < -xtol[basis])[0]
        if rows.size == 0:
            return OPTIMAL
        if bland:
            leave = int(min(rows, key=lambda r: basis[r]))
        else:
            leave = int(rows[np.argmin(T[rows, -1])])
        row = T[leave, :ncols]
        eligible = np.nonzero(row < -PIVOT_TOL)[0]
        if eligible.size == 0:
            # A negative basic value that no nonnegative change of the
            # nonbasic columns can raise.
            return INFEASIBLE
        # Harris's two-pass ratio test: the step that keeps every reduced
        # cost above -DUAL_TOL bounds the ratios allowed, and among them the
        # largest pivot element wins, which avoids tiny pivots.  Reduced
        # costs that round-off made negative count as zero.
        costs = np.maximum(obj[eligible], 0.0)
        ratios = costs / -row[eligible]
        bound = float(((costs + DUAL_TOL) / -row[eligible]).min())
        tied = ratios <= bound
        if bland:
            pick = int(np.argmax(tied))
        else:
            pick = int(np.argmin(np.where(tied, row[eligible], 0.0)))
        return leave, int(eligible[pick]), ratios[pick] <= 1e-9

    return _drive(T, obj, basis, refactor, choose)


def _start_columns(start: Sequence[Optional[int]], ineq: np.ndarray,
                   ncols: int) -> List[int]:
    """Tableau columns of a caller's starting basis (see :func:`solve_lp`):
    a variable's own column, or the row's slack."""
    if len(start) != ineq.size:
        raise LPFormatError("the start basis needs one entry per row")
    slack = ncols + np.cumsum(ineq) - 1
    basis = []
    for r, var in enumerate(start):
        if var is None and ineq[r]:
            basis.append(int(slack[r]))
        elif var is not None and 0 <= var < ncols:
            basis.append(int(var))
        else:
            raise LPFormatError("row %d starts from %r, neither a variable nor "
                                "the slack of an inequality row" % (r, var))
    return basis


def solve_lp(lp: LinearProgram, assume_bounded: bool = False,
             start: Optional[Sequence[Optional[int]]] = None) -> LPOutcome:
    """Solve an LP; returns optimal/infeasible/unbounded.

    ``assume_bounded`` tells the solver the objective is known to be
    bounded, so apparent improving rays are treated as round-off noise
    instead of reporting an unbounded problem.

    ``start`` names a starting basis, one entry per row: the index of the
    variable basic in that row, or ``None`` for the row's own slack, which
    needs an inequality row.  Phase 2 runs from that basis alone, on a
    tableau without artificial columns.  The started solve raises
    :class:`LPCyclingError` when the rebuild (see the module docstring)
    refuses that basis or a later one, or when its pivots cycle (the ratio
    test's absolute tie tolerance can pick a pivot that leaves a row
    negative); the program is then solved again without the start, so the
    outcome is the unstarted one.
    """
    if start is not None:
        try:
            return _solve(lp, assume_bounded, start)
        except LPCyclingError:
            pass
    return _solve(lp, assume_bounded, None)


def _solve(lp: LinearProgram, assume_bounded: bool,
           start: Optional[Sequence[Optional[int]]]) -> LPOutcome:
    if lp.sense not in ("max", "min"):
        raise LPFormatError("sense must be 'max' or 'min'")
    c0 = np.asarray(lp.objective, dtype=float)
    if c0.ndim != 1:
        raise LPFormatError("objective must be a vector")
    ncols = c0.size
    m = len(lp.rows)
    A0 = np.zeros((m, ncols))
    b0 = np.zeros(m)
    for r, (coeffs, rel, rhs) in enumerate(lp.rows):
        if rel not in (LE, EQ, GE):
            raise LPFormatError("unknown relation %r" % (rel,))
        if np.shape(coeffs) != (ncols,):
            raise LPFormatError("row length must match the number of variables")
        A0[r] = coeffs
        b0[r] = rhs
    le = np.array([rel == LE for _, rel, _ in lp.rows], dtype=bool)
    ineq = np.array([rel != EQ for _, rel, _ in lp.rows], dtype=bool)

    # Phase 2 objective (min form).  When it is strictly positive and every
    # row is an inequality, the slack basis is dual feasible.  Adding to 0.0
    # turns -0.0 into +0.0, here, in the tableau and in the solution.
    cost = 0.0 + (c0 if lp.sense == "min" else -c0)
    dual = bool(np.all(ineq)) and bool(np.all(cost > 0.0))

    # The tableau's columns are, in this order, [variables | slacks |
    # artificials | rhs]: variable j in column j, one slack per inequality
    # row in row order, and one artificial per row, only when phase 1 runs:
    # neither the dual path nor a started solve has any.  bench/tracing's
    # ``tableau_bytes`` computes the tableau-size metric from the two-phase
    # layout.
    nslack = int(np.count_nonzero(ineq))
    art0 = ncols + nslack
    nart = 0 if dual or start is not None else m
    total = art0 + nart
    T = np.zeros((m, total + 1))
    T[:, :ncols] = 0.0 + A0
    T[:, -1] = b0
    # Equilibrate: scaling a row changes neither the feasible set nor the
    # objective but keeps the tableau well conditioned.
    scale = np.abs(T[:, :ncols]).max(axis=1, initial=0.0)
    factor = 1.0 / np.where(scale > 0.0, scale, 1.0)
    T *= factor[:, None]
    if dual:
        # Orient each row so that its slack enters with +1: the slack basis
        # is then the identity, with basic values of either sign.
        T[~le] *= -1.0
        T[:, ncols:total] = np.eye(m)
        basis = list(range(ncols, total))
    else:
        # Slacks enter with +-1, not with the row's factor, which would
        # give a row with a tiny coefficient a huge slack column.
        T[ineq, ncols + np.arange(nslack)] = np.where(le, 1.0, -1.0)[ineq]
        T[T[:, -1] < 0] *= -1.0
        T[:, art0:total] = np.eye(m, nart)
        basis = list(range(art0, total))
    # The unpivoted system the rebuild solves, and the basic values, before
    # clipping, that the last rebuild solved for (None when its basis
    # matrix was singular or they were not finite).
    A_std = T[:, :total].copy()
    b_std = T[:, -1].copy()
    solved = None

    def make_refactor(cost_full: np.ndarray, dual: bool = False,
                      strict: bool = False):
        """The rebuild for a loop over the costs ``cost_full``: it rewrites
        ``T`` and ``obj`` in place, or refuses the basis and keeps them,
        raising instead when ``strict``.  ``dual`` checks the reduced costs
        instead of the basic values."""
        def refactor(basis_now: List[int], T: np.ndarray, obj: np.ndarray) -> None:
            nonlocal solved
            B = A_std[:, basis_now]
            try:
                y = np.linalg.solve(B, b_std)
                y += np.linalg.solve(B, b_std - B @ y)
                Binv_A = np.linalg.solve(B, A_std)
            except np.linalg.LinAlgError:
                y = Binv_A = None
            solved = y if y is not None and np.all(np.isfinite(y)) else None
            if solved is not None and np.all(np.isfinite(Binv_A)):
                cb = cost_full[np.asarray(basis_now, dtype=int)]
                reduced = cost_full - cb @ Binv_A
                # A program without rows has no basic values, hence initial.
                if float((reduced if dual else y).min(initial=0.0)) >= -1e-7:
                    if dual:
                        reduced = np.clip(reduced, 0.0, None)
                    else:
                        y = np.clip(y, 0.0, None)
                    T[:, :-1] = Binv_A
                    T[:, -1] = y
                    obj[:-1] = reduced
                    obj[-1] = -float(cb @ y)
                    return
            if strict:
                raise LPCyclingError("the rebuild refused a basis of the started solve")
        return refactor

    cost2 = np.zeros(total)
    cost2[:ncols] = cost
    allowed = np.ones(total, dtype=bool)
    refactor2 = make_refactor(cost2, strict=start is not None)
    pivots1 = 0
    if start is not None:
        basis = _start_columns(start, ineq, ncols)
        obj = np.empty(total + 1)
        refactor2(basis, T, obj)
    elif dual:
        obj = np.append(cost2, 0.0)
        # A basic variable's scale is the largest rhs, or for a slack its
        # own row's rhs; a row with rhs 0 takes 1e-4 of the largest, so
        # that round-off on it does not count.
        bmax = float(np.abs(b_std).max(initial=0.0))
        basic_scale = np.full(total, bmax)
        basic_scale[ncols:] = np.where(b_std != 0.0, np.abs(b_std), 1e-4 * bmax)
        xtol = DUAL_TOL * basic_scale
        status, pivots1 = _dual_loop(T, obj, basis, xtol,
                                     make_refactor(cost2, dual=True))
        if status == INFEASIBLE:
            return LPOutcome(INFEASIBLE, phase1_pivots=pivots1)
    else:
        # Phase 1: minimize the sum of artificials.
        cost1 = np.zeros(total)
        cost1[art0:] = 1.0
        obj = np.append(cost1, 0.0)
        for r in range(m):
            obj -= T[r]
        status, pivots1 = _pivot_loop(T, obj, basis, allowed, True,
                                      make_refactor(cost1))
        if status != OPTIMAL:
            raise LPCyclingError("phase 1 reported unbounded, which is impossible")
        # The tableau estimate of the artificial sum drifts over many pivots;
        # judge feasibility by the final basis's values from the pristine
        # system instead.
        art_sum = -obj[-1]
        if solved is not None:
            art_sum = sum(max(float(solved[r]), 0.0)
                          for r in range(m) if basis[r] >= art0)
        if art_sum > FEAS_TOL:
            return LPOutcome(INFEASIBLE, phase1_pivots=pivots1)

        # Drive artificials out of the basis where possible; the rest sit on
        # redundant rows at value zero and are barred from re-entering.
        allowed = np.arange(total) < art0
        for r in range(m):
            if basis[r] >= art0:
                nonzero = np.nonzero(np.abs(T[r, :art0]) > PIVOT_TOL)[0]
                if nonzero.size:
                    basis[r] = int(nonzero[0])
                    _pivot(T, r, basis[r])
                    pivots1 += 1

        obj = np.append(cost2, 0.0)
        for r in range(m):
            cb = obj[basis[r]]
            if cb != 0.0:
                obj = obj - cb * T[r]
    started = start is not None
    status, pivots2 = _pivot_loop(T, obj, basis, allowed, assume_bounded,
                                  refactor2)
    if status == UNBOUNDED:
        return LPOutcome(UNBOUNDED, None, None, pivots1, pivots2, started)

    # Recover the basic solution from the tableau and, as the confirming
    # rebuild solved it, from the unpivoted system.  When the basis matrix
    # is ill conditioned the tableau solution can be the better of the two,
    # so both are checked against the original constraints and the cleaner
    # one wins.
    def to_x(basic: np.ndarray) -> np.ndarray:
        x = np.zeros(total)
        x[basis] = basic
        return 0.0 + x[:ncols]

    # Residuals are judged relative to the size of each row, since the rows
    # of one program can span many orders of magnitude.
    ge = ineq & ~le
    row_mag = np.max(np.abs(A0), axis=1, initial=0.0)

    def violation(x: np.ndarray) -> float:
        xmag = float(np.max(np.abs(x))) if x.size else 0.0
        # One dot product per row: a matrix-vector product rounds
        # differently and could flip near-ties between the candidates.
        lhs = np.array([a @ x for a in A0])
        r = np.where(le, lhs - b0, np.where(ge, b0 - lhs, np.abs(lhs - b0)))
        scale = np.maximum(np.maximum(1.0, row_mag * max(1.0, xmag)), np.abs(b0))
        return float(np.fmax.reduce(r / scale, initial=0.0))

    candidates_x = [to_x(T[:, -1])]
    if solved is not None:
        solved[np.abs(solved) < 1e-13] = 0.0
        candidates_x.append(to_x(solved))
    scored = sorted(((violation(x), i) for i, x in enumerate(candidates_x)))
    worst, pick = scored[0]
    x = candidates_x[pick]
    if worst > 1e-6:
        raise LPCyclingError("solution violates constraints by %g" % worst)

    return LPOutcome(OPTIMAL, float(c0 @ x), x, pivots1, pivots2, started)
