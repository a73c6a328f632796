import itertools

import numpy as np
import pytest

from polyrad import LinearProgram, simplex, solve_lp
from polyrad.simplex import (INFEASIBLE, LPCyclingError, LPFormatError, OPTIMAL,
                             UNBOUNDED)


def oracle_solve(lp: LinearProgram):
    """Brute-force LP oracle: enumerate candidate vertices and pick the best.

    Every optimum of a bounded feasible LP sits at an intersection of n
    active constraints (rows or variable bounds ``x_i >= 0``).  The oracle forms
    all such intersections, keeps the feasible ones, and returns the best
    objective.  Only usable for small n.
    """
    c = np.asarray(lp.objective, dtype=float)
    n = c.size
    planes = []
    for coeffs, _, rhs in lp.rows:
        planes.append((np.asarray(coeffs, dtype=float), float(rhs)))
    for i, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[i] = 1.0
        if lo is not None and np.isfinite(lo):
            planes.append((e.copy(), float(lo)))
        if hi is not None and np.isfinite(hi):
            planes.append((e.copy(), float(hi)))

    def feasible(x, tol=1e-7):
        for coeffs, rel, rhs in lp.rows:
            lhs = float(np.asarray(coeffs, dtype=float) @ x)
            if rel == "<=" and lhs > rhs + tol:
                return False
            if rel == ">=" and lhs < rhs - tol:
                return False
            if rel == "=" and abs(lhs - rhs) > tol:
                return False
        for i, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and np.isfinite(lo) and x[i] < lo - tol:
                return False
            if hi is not None and np.isfinite(hi) and x[i] > hi + tol:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not feasible(x):
            continue
        val = float(c @ x)
        if best is None:
            best = val
        elif lp.sense == "max":
            best = max(best, val)
        else:
            best = min(best, val)
    return best


def random_bounded_program(rng: np.random.Generator) -> LinearProgram:
    """A random feasible bounded LP in up to 3 variables.

    Feasibility is guaranteed by construction: constraints are slack at a
    random interior point, and box rows ``0 <= x <= 10`` keep the region
    bounded.  It is a program in free variables ``-5 <= x <= 5`` shifted
    into the orthant by ``x' = x + 5``.
    """
    n = int(rng.integers(1, 4))
    x0 = rng.uniform(-2.0, 2.0, size=n) + 5.0
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        a = rng.uniform(-3.0, 3.0, size=n)
        slack = rng.uniform(0.1, 2.0)
        rows.append((a, "<=", float(a @ x0) + slack))
    for e in np.eye(n):
        rows.append((e, "<=", 10.0))
        rows.append((e, ">=", 0.0))
    sense = "max" if rng.random() < 0.5 else "min"
    objective = rng.uniform(-2.0, 2.0, size=n)
    return LinearProgram(sense, objective, rows)


class TestBasics:
    # A free variable x is written as x+ - x-: its column twice, a and -a,
    # next to each other.

    def test_single_variable_max(self):
        lp = LinearProgram("max", [1.0], [([1.0], "<=", 1.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(1.0)

    def test_infeasible(self):
        lp = LinearProgram("max", [1.0, -1.0],
                           [([1.0, -1.0], ">=", 1.0), ([1.0, -1.0], "<=", 0.0)])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram("max", [1.0, -1.0], [([1.0, -1.0], ">=", 0.0)])
        assert solve_lp(lp).status == UNBOUNDED

    def test_assume_bounded_retires_an_improving_ray(self):
        # x2 improves without limit; a caller that knows its program is
        # bounded reads such a ray as round-off, and the column is retired.
        lp = LinearProgram("max", [1.0, 1.0], [([1.0, 0.0], "<=", 1.0)])
        assert solve_lp(lp).status == UNBOUNDED
        out = solve_lp(lp, assume_bounded=True)
        assert out.status == OPTIMAL
        assert out.value == 1.0
        assert np.array_equal(out.assignment, [1.0, 0.0])

    def test_equality_row(self):
        lp = LinearProgram("min", [1.0, 1.0], [([1.0, 1.0], "=", 2.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(2.0)

    def test_free_variable(self):
        lp = LinearProgram("min", [1.0, -1.0], [([1.0, -1.0], ">=", -3.0)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(-3.0)

    def test_upper_bounded_variable(self):
        # An upper bound is a row.
        lp = LinearProgram("max", [1.0], [([1.0], "<=", 2.5)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(2.5)

    def test_program_without_rows(self):
        lp = LinearProgram("max", [-1.0, -2.0], [])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == 0.0
        assert np.array_equal(out.assignment, [0.0, 0.0])
        lp = LinearProgram("max", [1.0], [])
        assert solve_lp(lp).status == UNBOUNDED

    def test_assignment_matches_value(self):
        lp = LinearProgram("max", [2.0, 3.0],
                           [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], "<=", 6.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert float(np.array([2.0, 3.0]) @ out.assignment) == pytest.approx(out.value)

    def test_two_variable_polytope_against_oracle(self):
        lp = LinearProgram(
            "max", [3.0, -3.0, 2.0, -2.0],
            [([2.0, -2.0, 1.0, -1.0], "<=", 18.0),
             ([2.0, -2.0, 3.0, -3.0], "<=", 42.0),
             ([3.0, -3.0, 1.0, -1.0], "<=", 24.0),
             ([1.0, -1.0, 0.0, 0.0], ">=", 0.0),
             ([0.0, 0.0, 1.0, -1.0], ">=", 0.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(oracle_solve(lp), abs=1e-8)

    def test_bad_sense_rejected(self):
        with pytest.raises(LPFormatError):
            solve_lp(LinearProgram("best", [1.0], []))

    def test_bad_relation_rejected(self):
        with pytest.raises(LPFormatError):
            solve_lp(LinearProgram("max", [1.0], [([1.0], "<", 1.0)]))

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(LPFormatError):
            solve_lp(LinearProgram("max", [1.0], [([1.0, 2.0], "<=", 1.0)]))

    @pytest.mark.parametrize("rows", [
        [([1.0, 2.0], "<=", 1.0), ([1.0], "<=", 1.0)],
        [([1.0], "<=", 1.0), ([1.0, 2.0], "<=", 1.0)],
        [([[1.0, 2.0]], "<=", 1.0)],
        [([], "<=", 1.0), ([], "<=", 1.0)],
        [([1.0, 2.0], "<=", [1.0, 2.0])],
    ], ids=["ragged-long-first", "ragged-short-first", "nested", "empty-rows",
            "vector-rhs"])
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(LPFormatError):
            solve_lp(LinearProgram("max", [1.0, 1.0], rows))


class TestPivotCounts:
    def test_slack_basis_start_counts_dual_pivots(self):
        # Positive costs and only inequality rows: the dual simplex makes
        # both rows feasible and phase 2 has nothing left to do.
        lp = LinearProgram("min", [1.0, 1.0],
                           [([1.0, 2.0], ">=", 2.0), ([3.0, 1.0], ">=", 3.0)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(1.4)
        assert (out.phase1_pivots, out.phase2_pivots) == (2, 0)

    def test_two_phase_counts_both_phases(self):
        lp = LinearProgram("max", [2.0, 3.0],
                           [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], "<=", 6.0),
                            ([1.0, 0.0], ">=", 1.0)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(9.0)
        assert (out.phase1_pivots, out.phase2_pivots) == (3, 1)
        again = solve_lp(lp)
        assert (again.phase1_pivots, again.phase2_pivots) == (3, 1)


class TestStartBasis:
    """A caller's basis, named per row by variable (or ``None`` for the
    row's slack): phase 2 alone when it is feasible, two phases otherwise."""

    # min t subject to t - c >= 0 and c >= 1: the optimum is t = c = 1.
    LP = LinearProgram("min", [1.0, 0.0],
                       [([1.0, -1.0], ">=", 0.0), ([0.0, 1.0], ">=", 1.0)])

    def test_feasible_start_runs_phase_2_alone(self):
        out = solve_lp(self.LP, start=[0, 1])
        assert out.started
        assert (out.phase1_pivots, out.phase2_pivots) == (0, 0)
        assert out.value == pytest.approx(1.0)
        assert not solve_lp(self.LP).started

    # min x + y subject to x + y >= 1 and x - y >= 0, optimum 1: every row
    # is an inequality and every cost is positive, so it takes the dual path.
    COVERING = LinearProgram("min", [1.0, 1.0],
                             [([1.0, 1.0], ">=", 1.0), ([1.0, -1.0], ">=", 0.0)])

    @pytest.mark.parametrize("lp, start", [
        (LP, [0, 0]), (LP, [None, 1]), (COVERING, [0, 0]), (COVERING, [1, None]),
    ], ids=["singular", "infeasible", "covering-singular", "covering-infeasible"])
    def test_refused_start_takes_two_phases(self, lp, start):
        # [0, 0] names a variable twice; [None, 1] sets c = 1 with t = 0,
        # leaving the first row's surplus at -1, and [1, None] sets y = 1
        # with x = 0, leaving the second row's surplus at -1.  The outcome
        # is exactly the unstarted one.
        out = solve_lp(lp, start=start)
        plain = solve_lp(lp)
        assert out.phase1_pivots > 0
        assert out.value == pytest.approx(1.0)
        assert (out.status, out.value, out.phase1_pivots, out.phase2_pivots,
                out.started) == (plain.status, plain.value, plain.phase1_pivots,
                                 plain.phase2_pivots, False)
        assert np.array_equal(out.assignment, plain.assignment)

    def test_free_variable_starts_from_its_first_column(self):
        # LP with t free, written as t+ - t-: t+ is basic in the first row.
        lp = LinearProgram("min", [1.0, -1.0, 0.0],
                           [([1.0, -1.0, -1.0], ">=", 0.0),
                            ([0.0, 0.0, 1.0], ">=", 1.0)])
        out = solve_lp(lp, start=[0, 2])
        assert out.started and out.value == pytest.approx(1.0)

    @pytest.mark.parametrize("start", [[0], [0, 2], [0, -1]],
                             ids=["short", "past-the-end", "negative"])
    def test_malformed_start_rejected(self, start):
        with pytest.raises(LPFormatError):
            solve_lp(self.LP, start=start)

    def test_equality_row_has_no_slack(self):
        lp = LinearProgram("min", [1.0, 0.0],
                           [([1.0, -1.0], "=", 0.0), ([0.0, 1.0], ">=", 1.0)])
        with pytest.raises(LPFormatError):
            solve_lp(lp, start=[None, 1])


def _broken_solve(solve, cause):
    """``np.linalg.solve`` broken so that every rebuild of the tableau from
    the unpivoted system is refused for ``cause``, or, for
    "shifted-basic-values", accepted with wrong basic values.  The rebuild
    solves for the basic values with a vector right-hand side and for the
    tableau with a matrix one."""
    def broken(B, b):
        if cause == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        x = solve(B, b)
        if cause == "non-finite":
            return np.full_like(x, np.inf)
        # Basic values 0.5 too high.  The refinement step's solve is 0.5 too
        # high as well, which cancels the -0.5 correction it finds, so the
        # rebuild's values stay 0.5 too high: finite, and nonnegative at a
        # feasible basis.
        if cause == "shifted-basic-values":
            return x + 0.5 if b.ndim == 1 else x
        # Basic values 1e6 too low, and in "negative-reduced-costs" a
        # tableau 1e6 too high as well, so that the reduced costs of every
        # basis with a basic variable of positive cost fall by 1e6 or more.
        if b.ndim == 1:
            return x - 1e6
        return x + 1e6 if cause == "negative-reduced-costs" else x
    return broken


class TestRebuild:
    """The one rebuild of the tableau from the unpivoted system (see the
    module docstring of :mod:`polyrad.simplex`)."""

    LP = TestStartBasis.LP
    COVERING = TestStartBasis.COVERING
    # max 2x + 3y subject to x + y <= 4, x + 3y <= 6 and x >= 1: two phases.
    TWO_PHASE = LinearProgram("max", [2.0, 3.0],
                              [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], "<=", 6.0),
                               ([1.0, 0.0], ">=", 1.0)])

    @pytest.mark.parametrize("lp, start, solves, value", [
        (LP, [0, 1], 3, 1.0), (LP, None, 3, 1.0), (COVERING, None, 3, 1.0),
        (TWO_PHASE, None, 6, 9.0),
    ], ids=["started", "two-phase", "dual-path", "two-phase-pivoting"])
    def test_each_final_basis_is_solved_once(self, monkeypatch, lp, start, solves,
                                             value):
        # Three solves per rebuild, and the rebuild keeps its last solve, so
        # each basis is solved once.  The started solve rebuilds its start,
        # which is already optimal, and phase 2 confirms it on that solve.
        # The dual path and the two-phase solve confirm the end of the dual
        # loop and of phase 1, and phase 2, which makes no pivot, confirms
        # the same basis on the same solve.  TWO_PHASE's phase 2 pivots once
        # and solves its new basis.  Phase 1's verdict and the answer are
        # read from the tableau the last rebuild wrote.
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append(1) or solve(*args))
        out = solve_lp(lp, start=start)
        assert out.value == pytest.approx(value)
        assert len(calls) == solves
        assert (out.rebuilds, out.rebuilds_refused) == (solves // 3, 0)

    @pytest.mark.parametrize("lp, start, cause", [
        (LP, [0, 1], "singular"),
        (LP, [0, 1], "non-finite"),
        (LP, [0, 1], "negative-basic-values"),
        (COVERING, [0, 1], "negative-reduced-costs"),
    ], ids=["singular", "non-finite", "negative-basic-values",
            "negative-reduced-costs"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_refused_rebuild_keeps_the_tableau(self, monkeypatch, lp, start, cause):
        # Unstarted, every refused rebuild keeps the pivoted tableau and the
        # optimum is still found.  Started, the refused start raises inside
        # the solver, and solve_lp solves the program again without it.
        monkeypatch.setattr(np.linalg, "solve", _broken_solve(np.linalg.solve, cause))
        with pytest.raises(LPCyclingError, match="refused"):
            simplex._solve(lp, False, start)
        plain = solve_lp(lp)
        assert plain.status == OPTIMAL
        assert plain.value == pytest.approx(1.0)
        assert not plain.started
        assert plain.rebuilds == 0 and plain.rebuilds_refused > 0
        out = solve_lp(lp, start=start)
        assert (out.status, out.value, out.phase1_pivots, out.phase2_pivots,
                out.started) == (plain.status, plain.value, plain.phase1_pivots,
                                 plain.phase2_pivots, False)
        assert np.array_equal(out.assignment, plain.assignment)

    # x <= 1 and x >= 1, with x's cost positive: the dual path.
    PINNED = LinearProgram("min", [1.0], [([1.0], "<=", 1.0), ([1.0], ">=", 1.0)])

    @pytest.mark.parametrize("lp, start", [
        (PINNED, None), (PINNED, [None, 0]), (TWO_PHASE, None),
    ], ids=["dual-path", "started", "two-phase"])
    def test_answer_that_violates_the_rows_raises(self, monkeypatch, lp, start):
        # Every rebuild is accepted, and the answer is read from the last
        # one: x = 1.5 breaks x <= 1, and (3.5, 1.5) breaks x + y <= 4.
        # Only the final check against the original rows catches it.  The
        # started solve is called directly, since solve_lp would answer its
        # error by solving again without the start.
        monkeypatch.setattr(np.linalg, "solve",
                            _broken_solve(np.linalg.solve, "shifted-basic-values"))
        with pytest.raises(LPCyclingError, match="violates constraints"):
            simplex._solve(lp, False, start)

    # max x subject to x <= 1 and x >= 2: phase 1 ends with an artificial
    # at 1.
    INFEASIBLE_LP = LinearProgram("max", [1.0], [([1.0], "<=", 1.0),
                                                 ([1.0], ">=", 2.0)])

    @pytest.mark.parametrize("cause", ["singular", "non-finite"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_refused_phase1_rebuild_reads_the_pivoted_tableau(self, monkeypatch,
                                                              cause):
        # Every rebuild is refused, so phase 1's verdict is read from the
        # pivoted tableau's basic values.
        monkeypatch.setattr(np.linalg, "solve", _broken_solve(np.linalg.solve, cause))
        out = solve_lp(self.INFEASIBLE_LP)
        assert out.status == INFEASIBLE
        assert out.rebuilds == 0 and out.rebuilds_refused > 0


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(123)
        lp = random_bounded_program(rng)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status
        assert a.value == b.value
        assert np.array_equal(a.assignment, b.assignment)


class TestAgainstOracle:
    def test_random_programs_match_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            lp = random_bounded_program(rng)
            out = solve_lp(lp)
            assert out.status == OPTIMAL
            expected = oracle_solve(lp)
            assert expected is not None
            assert out.value == pytest.approx(expected, abs=1e-8)

    def test_solutions_feasible(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            lp = random_bounded_program(rng)
            out = solve_lp(lp)
            x = out.assignment
            for coeffs, rel, rhs in lp.rows:
                lhs = float(np.asarray(coeffs) @ x)
                if rel == "<=":
                    assert lhs <= rhs + 1e-8
                else:
                    assert lhs >= rhs - 1e-8

    def test_tiny_coefficient_row_keeps_a_unit_slack(self):
        # Equilibration scales the third row by 1/7.09e-9; a slack scaled
        # with it (coefficient 1.41e8) made the ratio test exhaust the
        # pivot cap.  HiGHS gives 1.119889956030498.  The first variable is
        # free, written as its column and the negated one.
        rows = [
            ([0.12015960596870434, 0.0, 2.5741207082439663], ">=", -0.3436775211419525),
            ([-0.08427896085347236, 0.7093722286534158, -0.7261440497892808], "<=",
             -1.286754565148888),
            ([-7.0914580654808275e-09, 0.0, 0.0], "<=", 1.2465230453710996),
            ([-0.5986797270355864, 0.0, 0.16545298749575132], ">=", -0.561133770321015),
            ([-0.2813077921699419, 0.3880519412784416, 0.0], "<=", 0.9415980025768447),
            ([0.6356881760895375, 0.0, -0.7929041891428241], ">=", -1.3706967224252968)]
        cost = [0.24587525438179256, 1.2462152802969655, 0.6273675214729534]
        lp = LinearProgram("min", [cost[0], -cost[0]] + cost[1:],
                           [([a[0], -a[0]] + a[1:], rel, rhs) for a, rel, rhs in rows])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(1.119889956030498, abs=1e-12)
        assert out.value == pytest.approx(oracle_solve(lp), abs=1e-8)
