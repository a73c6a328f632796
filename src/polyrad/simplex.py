"""Dense simplex solver with Bland's anti-cycling rule.

A program is one record of arrays (see :class:`LinearProgram`): its
objective, coefficient matrix, one relation per row and right-hand sides,
all of them finite.  The tableau holds the constraint rows and, as its
last row, the reduced costs, so one outer product pivots both.

Every variable is nonnegative.  A program whose rows are all inequalities
and whose costs (in min form) are all strictly positive starts from its
slack basis, which is then dual feasible: a dual simplex runs until
the basis is primal feasible, with no artificial variables and no phase 1,
and the primal simplex then finishes as phase 2.  The covering programs
of the mode-P norm, ``min{sum c : V^T c >= z, c >= 0}``, take this path.
A caller that knows a primal feasible basis may pass it as ``start``; the
primal simplex then runs as phase 2 alone, with no artificial variables.
The mode-L antinorm programs start from their best single vertex, the
mode-R balanced-hull programs from their best cached support, and the cone
margin program from its least coordinate.  A started solve that fails is
solved again without its start.  Every other program runs the two-phase
primal simplex.

Pivoting accumulates error, so every 25 pivots, and before either loop
reports any status but unbounded, the tableau is rebuilt for the current
basis from the unpivoted, equilibrated system: its basic values by one
solve and one step of iterative refinement, the rest of the tableau by one
more solve.  The rebuild refuses a basis whose basis matrix is singular,
whose rebuild is not finite, or whose basic values (in the dual loop, its
reduced costs) fall below -1e-7, and otherwise clips their round-off below
zero.  A refused basis keeps its pivoted tableau, except in a started
solve, which raises :class:`LPCyclingError` instead so that
:func:`solve_lp` solves the program again without the start.

The rebuild keeps the last basis it solved, and that solve: a rebuild of
the same basis, from either loop, reuses it and applies only its own
acceptance test and clipping.  So each basis is solved once, and a loop
that opens on a basis the previous one confirmed, or that a started solve
rebuilt for its start, confirms it again without a solve.

A loop reports a status only right after a rebuild, so phase 1's verdict
and the answer are read from the tableau the last rebuild wrote: the
basic values it solved for, clipped at zero, or, if it refused the basis,
the pivoted ones.  The answer is checked against the original rows, and
one that violates them by more than 1e-6, relative to the row's size,
raises :class:`LPCyclingError`.

The solver is deterministic: identical inputs produce identical pivot
sequences and outcomes.  After a long run of degenerate pivots either
loop switches to Bland's rule (smallest index), which cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A linear program over nonnegative variables: ``sense`` ("max" or
    "min") of ``objective @ x`` subject to ``A[i] @ x relations[i] b[i]``
    for every row ``i``, each relation one of ``"<="``, ``"="``, ``">="``.
    Any other bound on a variable is written as a row, and a free quantity
    as the difference of two variables by the program that builds it.

    A frozen record: :func:`solve_lp` reads ``objective``, ``A`` and ``b``
    as float arrays and refuses a program that is ragged, not numeric or
    not finite.  Programs compare by identity, as arrays have no single
    truth value.
    """

    sense: str
    objective: Sequence[float]
    A: np.ndarray
    relations: Sequence[str]
    b: np.ndarray

    @cached_property
    def rows(self) -> List[Tuple[Sequence[float], str, float]]:
        """The rows read back as ``(coefficients, relation, rhs)`` triples.
        Neither this nor :attr:`bounds` is read by the solver: both are
        kept for the benchmark's tracer (``bench/tracing.py``), which takes
        an LP's shape from them, until it reads the arrays instead."""
        return list(zip(self.A, np.asarray(self.relations).tolist(),
                        np.asarray(self.b).tolist()))

    @property
    def bounds(self) -> List[Tuple[float, float]]:
        """``(0, inf)`` per variable, a read-back like :attr:`rows`."""
        return [(0.0, _INF)] * len(self.objective)


@dataclass
class LPOutcome:
    """A solve's status, value and assignment, its pivot counts (phase 1,
    the dual simplex on the slack-basis path, and phase 2), whether phase 2
    started from the caller's basis, with no phase 1, how many solves of a
    new basis (see the module docstring) its rebuild accepted and refused,
    and how many ``np.linalg.solve`` calls those made: three per new basis,
    one for a basis whose first solve finds it singular.  A rebuild that
    reuses a solve is not counted and makes no call.  Two silent
    fallbacks are counted too: the loops that switched to Bland's rule, and
    the columns retired as round-off rays (under ``assume_bounded``, and in
    phase 1, which is bounded).  A start that :func:`solve_lp` drops leaves
    no count: the outcome is the unstarted solve's.

    ``duals`` holds an optimal program's row duals ``pi`` when every row
    is an inequality (``None`` otherwise): ``b . pi`` is the value, ``pi``
    is nonnegative on the rows that bound the objective (``>=`` rows of a
    min, ``<=`` rows of a max) and nonpositive on the others, up to the
    pricing tolerance, and ``A^T pi`` is at most the objective in a min,
    at least it in a max.  They are read from the final tableau's slack
    reduced costs, mapped back through row equilibration and orientation,
    so they cost no solve."""

    status: str
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    started: bool = False
    rebuilds: int = 0
    rebuilds_refused: int = 0
    solves: int = 0
    bland_switches: int = 0
    columns_retired: int = 0
    duals: Optional[np.ndarray] = None


def _pivot(W: np.ndarray, leave: int, enter: int) -> None:
    """Pivot ``W`` on row ``leave`` and column ``enter``: one outer-product
    update of every row, the objective row included."""
    row = W[leave]
    row /= row[enter]
    factors = W[:, enter].copy()
    factors[leave] = 0.0
    W -= np.multiply.outer(factors, row)


def _drive(W: np.ndarray, basis: np.ndarray, refactor,
           choose) -> Tuple[str, int, bool]:
    """Pivot until ``choose`` reports a status; returns it, the number of
    pivots and whether the loop switched to Bland's rule.

    ``W`` is the tableau: its rows but the last are the constraint rows
    ``T``, with the right-hand side as the last column, and its last row is
    the reduced-cost row ``obj``, with ``obj[-1]`` holding the negative of
    the current objective value.  ``choose(bland)`` returns a
    ``(leave, enter, degenerate)`` pivot, ``None`` to look again, or a
    status.  After a long run of degenerate pivots ``bland`` turns on, and
    ``choose`` must then follow Bland's rule, which cannot cycle.

    ``refactor(basis, T, obj)`` is the rebuild of the module docstring.  It
    runs every 25 pivots and again before any status but unbounded is
    returned, so that status is confirmed on a fresh tableau; a basis the
    rebuild has already solved costs no second solve.
    """
    T, obj = W[:-1], W[-1]
    m, width = T.shape
    cap = 2000 + 200 * (m + width - 1)
    bland = False
    stalled = 0
    since_refactor = 0
    pivots = 0
    fresh = False
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
                return step, pivots, bland
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
        _pivot(W, leave, enter)
        basis[leave] = enter
        pivots += 1
        since_refactor += 1
        fresh = False
    raise LPCyclingError("pivot cap exceeded (%d iterations)" % cap)


def _pivot_loop(W: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                bounded: bool, refactor) -> Tuple[str, int, bool]:
    """Run primal simplex pivots from a primal feasible basis until optimal
    or unbounded; returns :func:`_drive`'s status, pivots and Bland switch.

    Pricing is Dantzig's rule (most negative reduced cost among the
    ``allowed`` columns) with the leaving row chosen among minimum-ratio
    ties by the largest pivot element, which keeps the tableau well
    conditioned.  Under Bland's rule both are the smallest index.  A pivot
    is degenerate when its ratio is zero.
    """
    T, obj = W[:-1], W[-1]
    m, ncols = T.shape[0], T.shape[1] - 1
    rhs, costs = T[:, -1], obj[:ncols]

    def choose(bland: bool):
        if bland:
            priced = (costs < -PIVOT_TOL) & allowed
            enter = int(priced.argmax())
            if not priced[enter]:
                return OPTIMAL
        elif not ncols:
            return OPTIMAL
        else:
            # The first most negative reduced cost among the allowed columns.
            priced = np.where(allowed, costs, _INF)
            enter = int(priced.argmin())
            if not priced[enter] < -PIVOT_TOL:
                return OPTIMAL
        column = T[:, enter]
        eligible = column > PIVOT_TOL
        # Rows that are not eligible read as an infinite ratio.
        ratios = np.divide(rhs, column, out=np.full(m, _INF), where=eligible)
        best = float(ratios.min(initial=_INF))
        tie_tol = 1e-9 * max(1.0, abs(best))
        if best < _INF:
            tied = (ratios <= best + tie_tol).nonzero()[0]
        elif eligible.any():
            tied = eligible.nonzero()[0]  # every eligible ratio overflowed
        elif bounded:
            # The problem is known to be bounded, so an "improving ray" is
            # round-off noise; retire the column and move on.
            allowed[enter] = False
            return None
        else:
            return UNBOUNDED
        if tied.size == 1:
            leave = int(tied[0])
        elif bland:
            leave = int(min(tied, key=lambda r: basis[r]))
        else:
            leave = int(tied[column[tied].argmax()])
        return leave, enter, best <= tie_tol

    return _drive(W, basis, refactor, choose)


def _dual_loop(W: np.ndarray, basis: np.ndarray, xtol: np.ndarray,
               refactor) -> Tuple[str, int, bool]:
    """Run dual simplex pivots from a dual feasible basis until the basic
    solution is primal feasible (optimal) or a row proves the program
    infeasible; returns :func:`_drive`'s status, pivots and Bland switch.

    A basic value counts as negative below ``-xtol`` of its column.  The
    leaving row has the most negative basic value, and the entering column
    comes from Harris's ratio test.  Under the dual Bland rule the leaving
    row is the negative one with the smallest basic index, and the
    entering column the smallest index the ratio test allows.  A pivot is
    degenerate when its ratio is zero.
    """
    T, obj = W[:-1], W[-1]
    m, ncols = T.shape[0], T.shape[1] - 1

    def choose(bland: bool):
        if not m:
            return OPTIMAL
        values = T[:, -1]
        negative = values < -xtol[basis]
        if bland:
            rows = negative.nonzero()[0]
            if not rows.size:
                return OPTIMAL
            leave = int(min(rows, key=lambda r: basis[r]))
        else:
            # The first most negative basic value among the negative ones.
            leave = int(np.where(negative, values, _INF).argmin())
            if not negative[leave]:
                return OPTIMAL
        row = T[leave, :ncols]
        eligible = (row < -PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            # A negative basic value that no nonnegative change of the
            # nonbasic columns can raise.
            return INFEASIBLE
        # Harris's two-pass ratio test: the step that keeps every reduced
        # cost above -DUAL_TOL bounds the ratios allowed, and among them the
        # largest pivot element wins, which avoids tiny pivots.  Reduced
        # costs that round-off made negative count as zero.
        pivots = row[eligible]
        costs = np.maximum(obj[eligible], 0.0)
        if pivots.size == 1:
            return leave, int(eligible[0]), costs[0] / -pivots[0] <= 1e-9
        ratios = costs / -pivots
        bound = ((costs + DUAL_TOL) / -pivots).min()
        tied = ratios <= bound
        if bland:
            pick = int(tied.argmax())
        else:
            pick = int(np.where(tied, pivots, 0.0).argmin())
        return leave, int(eligible[pick]), ratios[pick] <= 1e-9

    return _drive(W, basis, refactor, choose)


def _start_columns(start: Sequence[Optional[int]], ineq: np.ndarray,
                   ncols: int) -> np.ndarray:
    """Tableau columns of a caller's starting basis (see :func:`solve_lp`):
    a variable's own column, or the row's slack."""
    if len(start) != ineq.size:
        raise LPFormatError("the start basis needs one entry per row")
    # A row's slack column, only when some row names its slack.  At the
    # sizes of the membership programs this loop is cheaper than array
    # operations.
    slack = (ncols - 1 + ineq.cumsum()).tolist() if None in start else None
    basis = []
    for r, var in enumerate(start):
        if var is None and ineq[r]:
            basis.append(slack[r])
        elif var is not None and 0 <= var < ncols:
            basis.append(var)
        else:
            raise LPFormatError("row %d starts from %r, neither a variable nor "
                                "the slack of an inequality row" % (r, var))
    return np.array(basis, dtype=int)


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


def _arrays(lp: LinearProgram) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray]:
    """``lp``'s objective, coefficient matrix, relations and right-hand
    sides as arrays; raises :class:`LPFormatError` for a program that is
    malformed."""
    if lp.sense not in ("max", "min"):
        raise LPFormatError("sense must be 'max' or 'min'")
    try:
        c0 = np.asarray(lp.objective, dtype=float)
        A0 = np.asarray(lp.A, dtype=float)
        b0 = np.asarray(lp.b, dtype=float)
        rels = lp.relations
        nrels = len(rels)
    except (TypeError, ValueError):
        # A ragged or non-numeric objective, matrix or right-hand side, or
        # relations without a length.
        raise LPFormatError("the objective, coefficients and right-hand sides "
                            "must be arrays of numbers, and the relations a "
                            "sequence") from None
    if c0.ndim != 1:
        raise LPFormatError("objective must be a vector")
    m = b0.size
    if b0.shape != (m,) or nrels != m:
        raise LPFormatError("every row needs one relation and one right-hand side")
    for rel in rels:
        if rel not in (LE, EQ, GE):
            raise LPFormatError("unknown relation %r" % (rel,))
    if A0.shape != (m, c0.size):
        raise LPFormatError("each row must hold one number per variable")
    if not np.isfinite(c0).all():
        raise LPFormatError("the objective must be finite")
    return c0, A0, np.asarray(rels, dtype=str), b0


def _solve(lp: LinearProgram, assume_bounded: bool,
           start: Optional[Sequence[Optional[int]]]) -> LPOutcome:
    c0, A0, rels, b0 = _arrays(lp)
    m, ncols = A0.shape
    le = rels == LE
    ineq = rels != EQ

    # Phase 2 objective (min form).  When it is strictly positive and every
    # row is an inequality, the slack basis is dual feasible.  Adding to 0.0
    # turns -0.0 into +0.0, here, in the tableau and in the solution.
    cost = 0.0 + (c0 if lp.sense == "min" else -c0)
    dual = bool(ineq.all()) and bool((cost > 0.0).all())

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
    # W is the tableau: the constraint rows T, then the objective row obj.
    W = np.zeros((m + 1, total + 1))
    T = W[:m]
    np.add(A0, 0.0, out=T[:, :ncols])
    T[:, -1] = b0
    if not np.isfinite(T).all():
        raise LPFormatError("every coefficient and right-hand side must be finite")
    # Equilibrate: scaling a row changes neither the feasible set nor the
    # objective but keeps the tableau well conditioned.
    row_mag = np.abs(T[:, :ncols]).max(axis=1, initial=0.0)
    factor = 1.0 / np.where(row_mag > 0.0, row_mag, 1.0)
    T *= factor[:, None]
    if dual:
        # Orient each row so that its slack enters with +1: the slack basis
        # is then the identity, with basic values of either sign.
        T[~le] *= -1.0
        T[:, ncols:total] = np.eye(m)
        basis = np.arange(ncols, total)
    else:
        # Slacks enter with +-1, not with the row's factor, which would
        # give a row with a tiny coefficient a huge slack column.
        T[ineq, ncols + np.arange(nslack)] = np.where(le, 1.0, -1.0)[ineq]
        negative = T[:, -1] < 0.0
        if negative.any():
            T[negative] *= -1.0
        if nart:
            T[:, art0:total] = np.eye(m)
        basis = np.arange(art0, total)
    # The unpivoted system the rebuild solves.  A started solve has no
    # artificials, and its first rebuild writes all of W, so the system is
    # the T built so far.
    if start is not None:
        A_std, b_std = T[:, :-1], T[:, -1]
        W = np.empty_like(W)
        T = W[:m]
    else:
        A_std = T[:, :total].copy()
        b_std = T[:, -1].copy()
    obj = W[m]
    # The outcome, filled in place: the rebuild counts its solves there.
    out = LPOutcome(OPTIMAL, started=start is not None)
    # The last basis the rebuild solved, with that solve (basic values and
    # B^-1 A, None for a singular basis or a solve that is not finite).
    kept = None

    def make_refactor(cost_full: np.ndarray, dual: bool = False,
                      strict: bool = False):
        """The rebuild for a loop over the costs ``cost_full``: it rewrites
        ``T`` and ``obj`` in place, or refuses the basis and keeps them,
        raising instead when ``strict``.  ``dual`` checks the reduced costs
        instead of the basic values."""
        def refactor(basis_now: np.ndarray, T: np.ndarray, obj: np.ndarray) -> None:
            nonlocal kept
            new = kept is None or not (kept[0] == basis_now).all()
            if new:
                B = A_std[:, basis_now]
                out.solves += 1
                try:
                    y = np.linalg.solve(B, b_std)
                    out.solves += 2
                    y += np.linalg.solve(B, b_std - B @ y)
                    Binv_A = np.linalg.solve(B, A_std)
                    if not (np.isfinite(y).all() and np.isfinite(Binv_A).all()):
                        y = Binv_A = None
                except np.linalg.LinAlgError:
                    y = Binv_A = None
                kept = (basis_now.copy(), y, Binv_A)
            _, y, Binv_A = kept
            if y is not None:
                cb = cost_full[basis_now]
                reduced = cost_full - cb @ Binv_A
                # A program without rows has no basic values, hence initial.
                if float((reduced if dual else y).min(initial=0.0)) >= -1e-7:
                    out.rebuilds += new
                    if dual:
                        reduced = np.maximum(reduced, 0.0)
                    else:
                        y = np.maximum(y, 0.0)
                    T[:, :-1] = Binv_A
                    T[:, -1] = y
                    obj[:-1] = reduced
                    obj[-1] = -float(cb @ y)
                    return
            out.rebuilds_refused += new
            if strict:
                raise LPCyclingError("the rebuild refused a basis of the started solve")
        return refactor

    cost2 = np.zeros(total)
    cost2[:ncols] = cost
    allowed = np.ones(total, dtype=bool)
    refactor2 = make_refactor(cost2, strict=start is not None)
    if start is not None:
        basis = _start_columns(start, ineq, ncols)
        refactor2(basis, T, obj)
    elif dual:
        obj[:-1] = cost2
        # A basic variable's scale is the largest rhs, or for a slack its
        # own row's rhs; a row with rhs 0 takes 1e-4 of the largest, so
        # that round-off on it does not count.
        bmax = float(np.abs(b_std).max(initial=0.0))
        basic_scale = np.full(total, bmax)
        basic_scale[ncols:] = np.where(b_std != 0.0, np.abs(b_std), 1e-4 * bmax)
        xtol = DUAL_TOL * basic_scale
        status, out.phase1_pivots, bland1 = _dual_loop(
            W, basis, xtol, make_refactor(cost2, dual=True))
        out.bland_switches = int(bland1)
        if status == INFEASIBLE:
            out.status = INFEASIBLE
            return out
    else:
        # Phase 1: minimize the sum of artificials.
        cost1 = np.zeros(total)
        cost1[art0:] = 1.0
        obj[:-1] = cost1
        for r in range(m):
            obj -= T[r]
        status, out.phase1_pivots, bland1 = _pivot_loop(
            W, basis, allowed, True, make_refactor(cost1))
        out.bland_switches = int(bland1)
        if status != OPTIMAL:
            raise LPCyclingError("phase 1 reported unbounded, which is impossible")
        out.columns_retired = total - int(np.count_nonzero(allowed))
        # Judge feasibility by the basic values that the last rebuild wrote
        # (the pivoted ones if it was refused), not by the objective row,
        # whose estimate of the artificial sum drifts over many pivots.
        art_sum = float(np.maximum(T[basis >= art0, -1], 0.0).sum())
        if art_sum > FEAS_TOL:
            out.status = INFEASIBLE
            return out

        # Drive artificials out of the basis where possible; the rest sit on
        # redundant rows at value zero and are barred from re-entering.
        allowed = np.arange(total) < art0
        for r in range(m):
            if basis[r] >= art0:
                nonzero = np.nonzero(np.abs(T[r, :art0]) > PIVOT_TOL)[0]
                if nonzero.size:
                    basis[r] = int(nonzero[0])
                    _pivot(W, r, basis[r])
                    out.phase1_pivots += 1

        obj[:-1] = cost2
        obj[-1] = 0.0
        for r in range(m):
            cb = obj[basis[r]]
            if cb != 0.0:
                obj -= cb * T[r]
    open_columns = int(np.count_nonzero(allowed))
    status, out.phase2_pivots, bland2 = _pivot_loop(W, basis, allowed,
                                                    assume_bounded, refactor2)
    out.bland_switches += int(bland2)
    out.columns_retired += open_columns - int(np.count_nonzero(allowed))
    if status == UNBOUNDED:
        out.status = UNBOUNDED
        return out

    # The answer is the basic solution that the last rebuild wrote (the
    # pivoted one if it was refused), checked against the original
    # constraints.  Residuals are judged relative to the size of each row,
    # since the rows of one program can span many orders of magnitude.
    x = np.zeros(total)
    x[basis] = T[:, -1]
    x = 0.0 + x[:ncols]
    # gap > 0 violates a "<=" row, gap < 0 a ">=" row, either an "=" row.
    gap = A0 @ x - b0
    r = np.where(le, gap, np.where(ineq, -gap, np.abs(gap)))
    xmag = float(np.abs(x).max(initial=0.0))
    scale = np.maximum(np.maximum(1.0, row_mag * max(1.0, xmag)), np.abs(b0))
    worst = float(np.fmax.reduce(r / scale, initial=0.0))
    if worst > 1e-6:
        raise LPCyclingError("solution violates constraints by %g" % worst)

    if nslack == m:
        # Row i's slack enters the equilibrated, oriented row with +-1, so
        # its reduced cost is -(+-1) times that row's multiplier in min
        # form; undoing the row's factor and orientation gives the dual of
        # the original row, negated for a max.
        bounding = le if lp.sense == "max" else ~le
        out.duals = np.where(bounding, 1.0, -1.0) * factor * obj[ncols:art0]
    out.value, out.assignment = float(c0 @ x), x
    return out
