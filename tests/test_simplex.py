import dataclasses
import itertools

import numpy as np
import pytest

from polyrad import LinearProgram, LPOutcome, simplex, solve_lp
from polyrad.simplex import (INFEASIBLE, LPCyclingError, LPFormatError, OPTIMAL,
                             UNBOUNDED)

NAN = float("nan")
INF = float("inf")


def from_rows(sense: str, objective, rows) -> LinearProgram:
    """The program with the rows ``(coefficients, relation, rhs)``, stacked
    into its arrays."""
    A = (np.array([coeffs for coeffs, _, _ in rows], dtype=float) if rows
         else np.zeros((0, len(objective))))
    return LinearProgram(sense, objective, A, [rel for _, rel, _ in rows],
                         np.array([rhs for _, _, rhs in rows], dtype=float))


def assert_same_outcome(a: LPOutcome, b: LPOutcome) -> None:
    """``a`` and ``b`` agree field by field, bit for bit."""
    for field in dataclasses.fields(LPOutcome):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name in ("assignment", "duals") and x is not None and y is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        else:
            assert repr(x) == repr(y), field.name


def oracle_solve(lp: LinearProgram):
    """Brute-force LP oracle: enumerate candidate vertices and pick the best.

    Every optimum of a bounded feasible LP sits at an intersection of n
    active constraints (rows or variable bounds ``x_i >= 0``).  The oracle forms
    all such intersections, keeps the feasible ones, and returns the best
    objective.  Only usable for small n.
    """
    c = np.asarray(lp.objective, dtype=float)
    n = c.size
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float)
    rels = np.asarray(lp.relations)
    planes = list(zip(A, b)) + [(e, 0.0) for e in np.eye(n)]

    def feasible(x, tol=1e-7):
        gap = A @ x - b
        ok = np.where(rels == "<=", gap <= tol,
                      np.where(rels == ">=", gap >= -tol, np.abs(gap) <= tol))
        return bool(ok.all()) and bool((x >= -tol).all())

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        active = np.array([planes[i][0] for i in combo])
        level = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(active, level)
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
    return from_rows(sense, objective, rows)


class TestBasics:
    # A free variable x is written as x+ - x-: its column twice, a and -a,
    # next to each other.

    def test_single_variable_max(self):
        lp = from_rows("max", [1.0], [([1.0], "<=", 1.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(1.0)

    def test_infeasible(self):
        lp = from_rows("max", [1.0, -1.0],
                       [([1.0, -1.0], ">=", 1.0), ([1.0, -1.0], "<=", 0.0)])
        assert solve_lp(lp).status == INFEASIBLE

    UNBOUNDED_LP = from_rows("max", [1.0, -1.0], [([1.0, -1.0], ">=", 0.0)])

    def test_unbounded(self):
        assert solve_lp(self.UNBOUNDED_LP).status == UNBOUNDED

    def test_assume_bounded_retires_an_improving_ray(self):
        # x2 improves without limit; a caller that knows its program is
        # bounded reads such a ray as round-off, and the column is retired.
        lp = from_rows("max", [1.0, 1.0], [([1.0, 0.0], "<=", 1.0)])
        out = solve_lp(lp)
        assert (out.status, out.columns_retired) == (UNBOUNDED, 0)
        out = solve_lp(lp, assume_bounded=True)
        assert out.status == OPTIMAL
        assert out.value == 1.0
        assert np.array_equal(out.assignment, [1.0, 0.0])
        # The retirement is counted, and the solve never left Dantzig's rule.
        assert (out.columns_retired, out.bland_switches) == (1, 0)

    def test_equality_row(self):
        lp = from_rows("min", [1.0, 1.0], [([1.0, 1.0], "=", 2.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(2.0)

    def test_free_variable(self):
        lp = from_rows("min", [1.0, -1.0], [([1.0, -1.0], ">=", -3.0)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(-3.0)

    def test_upper_bounded_variable(self):
        # An upper bound is a row.
        lp = from_rows("max", [1.0], [([1.0], "<=", 2.5)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(2.5)

    def test_program_without_rows(self):
        lp = from_rows("max", [-1.0, -2.0], [])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == 0.0
        assert np.array_equal(out.assignment, [0.0, 0.0])
        lp = from_rows("max", [1.0], [])
        assert solve_lp(lp).status == UNBOUNDED

    def test_assignment_matches_value(self):
        lp = from_rows("max", [2.0, 3.0],
                       [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], "<=", 6.0)])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert float(np.array([2.0, 3.0]) @ out.assignment) == pytest.approx(out.value)

    def test_two_variable_polytope_against_oracle(self):
        lp = from_rows(
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
            solve_lp(from_rows("best", [1.0], []))

    def test_bad_relation_rejected(self):
        with pytest.raises(LPFormatError):
            solve_lp(from_rows("max", [1.0], [([1.0], "<", 1.0)]))

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(LPFormatError):
            solve_lp(from_rows("max", [1.0], [([1.0, 2.0], "<=", 1.0)]))

    @pytest.mark.parametrize("A, b", [
        ([[1.0, 2.0], [1.0]], [1.0, 1.0]),
        ([[1.0], [1.0, 2.0]], [1.0, 1.0]),
        ([[[1.0, 2.0]]], [1.0]),
        ([[], []], [1.0, 1.0]),
        ([[1.0, 2.0]], [[1.0, 2.0]]),
    ], ids=["ragged-long-first", "ragged-short-first", "nested", "empty-rows",
            "vector-rhs"])
    def test_malformed_rows_rejected(self, A, b):
        # A ragged matrix used to raise numpy's bare ValueError.
        with pytest.raises(LPFormatError):
            solve_lp(LinearProgram("max", [1.0, 1.0], A, ["<="] * len(b), b))

    @pytest.mark.parametrize("lp", [
        from_rows("max", [1.0], [([NAN], "<=", 1.0)]),
        from_rows("max", [1.0], [([1.0], "<=", INF)]),
        from_rows("min", [1.0], [([1.0], ">=", NAN)]),
        from_rows("max", [INF], [([1.0], "<=", 1.0)]),
    ], ids=["nan-coefficient", "infinite-rhs", "nan-rhs", "infinite-objective"])
    def test_non_finite_data_rejected(self, lp):
        # The first three used to read unbounded, optimal nan and optimal 0.0.
        with pytest.raises(LPFormatError, match="finite"):
            solve_lp(lp)
        with pytest.raises(LPFormatError, match="finite"):
            solve_lp(lp, start=[None])

    @pytest.mark.parametrize("objective, A, relations, b", [
        ([1.0], np.ones((2, 1)), ["<="], np.ones(2)),
        ([1.0], np.ones((2, 1)), ["<=", "<"], np.ones(2)),
        ([1.0], np.ones((2, 2)), ["<=", "<="], np.ones(2)),
        ([1.0], np.ones((2, 1)), ["<=", "<="], np.ones((2, 1))),
        ([1.0], [["one"]], ["<="], [1.0]),
        ([1.0], [[1.0]], ["<="], ["one"]),
        (["one"], [[1.0]], ["<="], [1.0]),
        ([1.0], [[1.0]], None, [1.0]),
    ], ids=["one-relation-short", "unknown-relation", "row-width", "matrix-rhs",
            "non-numeric-coefficient", "non-numeric-rhs", "non-numeric-objective",
            "no-relations"])
    def test_malformed_arrays_rejected(self, objective, A, relations, b):
        with pytest.raises(LPFormatError):
            solve_lp(LinearProgram("max", objective, A, relations, b))


class TestPivotCounts:
    def test_slack_basis_start_counts_dual_pivots(self):
        # Positive costs and only inequality rows: the dual simplex makes
        # both rows feasible and phase 2 has nothing left to do.
        lp = from_rows("min", [1.0, 1.0],
                       [([1.0, 2.0], ">=", 2.0), ([3.0, 1.0], ">=", 3.0)])
        out = solve_lp(lp)
        assert out.value == pytest.approx(1.4)
        assert (out.phase1_pivots, out.phase2_pivots) == (2, 0)

    def test_two_phase_counts_both_phases(self):
        lp = from_rows("max", [2.0, 3.0],
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
    LP = from_rows("min", [1.0, 0.0],
                   [([1.0, -1.0], ">=", 0.0), ([0.0, 1.0], ">=", 1.0)])

    def test_feasible_start_runs_phase_2_alone(self):
        out = solve_lp(self.LP, start=[0, 1])
        assert out.started
        assert (out.phase1_pivots, out.phase2_pivots) == (0, 0)
        assert out.value == pytest.approx(1.0)
        assert not solve_lp(self.LP).started

    # min x + y subject to x + y >= 1 and x - y >= 0, optimum 1: every row
    # is an inequality and every cost is positive, so it takes the dual path.
    COVERING = from_rows("min", [1.0, 1.0],
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
        lp = from_rows("min", [1.0, -1.0, 0.0],
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
        lp = from_rows("min", [1.0, 0.0],
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
    TWO_PHASE = from_rows("max", [2.0, 3.0],
                          [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], "<=", 6.0),
                           ([1.0, 0.0], ">=", 1.0)])

    # max x + y subject to x + y <= 4 and x <= 3, from the slack basis,
    # which is feasible but not optimal: phase 2 pivots twice.
    STARTED_PIVOTING = from_rows("max", [1.0, 1.0],
                                 [([1.0, 1.0], "<=", 4.0), ([1.0, 0.0], "<=", 3.0)])

    @pytest.mark.parametrize("lp, start, solves, value", [
        (LP, [0, 1], 3, 1.0), (STARTED_PIVOTING, [None, None], 6, 4.0),
        (LP, None, 3, 1.0), (COVERING, None, 3, 1.0), (TWO_PHASE, None, 6, 9.0),
    ], ids=["started", "started-pivoting", "two-phase", "dual-path",
            "two-phase-pivoting"])
    def test_each_final_basis_is_solved_once(self, monkeypatch, lp, start, solves,
                                             value):
        # Three solves per rebuild, and the rebuild keeps its last solve, so
        # each basis is solved once.  The started solve rebuilds its start,
        # which is already optimal, and phase 2 confirms it on that solve.
        # STARTED_PIVOTING's phase 2 pivots from its start and solves the
        # basis it ends on; it makes two pivots but rebuilds only that one,
        # before reporting it optimal.  The dual path and the two-phase
        # solve confirm the end of the dual loop and of phase 1, and phase
        # 2, which makes no pivot, confirms the same basis on the same
        # solve.  TWO_PHASE's phase 2 pivots once and solves its new basis.
        # Phase 1's verdict and the answer are read from the tableau the
        # last rebuild wrote.  LPOutcome.solves counts the calls.
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append(1) or solve(*args))
        out = solve_lp(lp, start=start)
        assert out.value == pytest.approx(value)
        assert len(calls) == out.solves == solves
        assert (out.rebuilds, out.rebuilds_refused) == (solves // 3, 0)
        assert out.started == (start is not None)

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
        # A singular basis costs the one solve that finds it singular.
        per_basis = 1 if cause == "singular" else 3
        assert plain.solves == per_basis * plain.rebuilds_refused
        out = solve_lp(lp, start=start)
        assert (out.status, out.value, out.phase1_pivots, out.phase2_pivots,
                out.started) == (plain.status, plain.value, plain.phase1_pivots,
                                 plain.phase2_pivots, False)
        assert np.array_equal(out.assignment, plain.assignment)

    # x <= 1 and x >= 1, with x's cost positive: the dual path.
    PINNED = from_rows("min", [1.0], [([1.0], "<=", 1.0), ([1.0], ">=", 1.0)])

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
    INFEASIBLE_LP = from_rows("max", [1.0], [([1.0], "<=", 1.0),
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


class TestArrayForm:
    """:attr:`LinearProgram.rows` and ``bounds`` read a program back in the
    shape the benchmark's tracer counts: the rows read back rebuild the
    same program, which solves to the same outcome, field by field."""

    @pytest.mark.parametrize("lp, start", [
        (TestStartBasis.LP, [0, 1]), (TestStartBasis.LP, [0, 0]),
        (TestStartBasis.COVERING, None), (TestRebuild.TWO_PHASE, None),
        (TestRebuild.INFEASIBLE_LP, None), (TestBasics.UNBOUNDED_LP, None),
    ], ids=["started", "refused-start", "dual-path", "two-phase", "infeasible",
            "unbounded"])
    def test_each_path_matches_its_rows(self, lp, start):
        assert_same_outcome(solve_lp(from_rows(lp.sense, lp.objective, lp.rows),
                                     start=start),
                            solve_lp(lp, start=start))

    def test_rows_read_back_as_triples(self):
        lp = LinearProgram("min", [1.0, 2.0], np.eye(2), [">=", "="],
                           np.array([1.0, 2.0]))
        assert [(a.tolist(), rel, rhs) for a, rel, rhs in lp.rows] == [
            ([1.0, 0.0], ">=", 1.0), ([0.0, 1.0], "=", 2.0)]
        assert lp.bounds == [(0.0, INF)] * 2


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
            gap = lp.A @ out.assignment - lp.b
            le = np.asarray(lp.relations) == "<="
            assert (gap[le] <= 1e-8).all() and (gap[~le] >= -1e-8).all()

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
        lp = from_rows("min", [cost[0], -cost[0]] + cost[1:],
                       [([a[0], -a[0]] + a[1:], rel, rhs) for a, rel, rhs in rows])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(1.119889956030498, abs=1e-12)
        assert out.value == pytest.approx(oracle_solve(lp), abs=1e-8)
