import itertools

import numpy as np
import pytest

from absfw.lp import (DEFAULT_TOL, FIXED_TOL, PIVOT_TOL, LpError, LpProblem, LpStatus, _Factor,
                      _Simplex, solve)
from absfw.polyhedron import Polyhedron, box, contains
from absfw.randgen import random_lp, random_box_lp
from conftest import spy


def make_poly(n, Aeq=None, beq=None, Ain=None, bin_=None, lo=None, hi=None):
    return Polyhedron(
        Aeq=np.zeros((0, n)) if Aeq is None else np.array(Aeq, dtype=float),
        beq=np.zeros(0) if beq is None else np.array(beq, dtype=float),
        Ain=np.zeros((0, n)) if Ain is None else np.array(Ain, dtype=float),
        bin=np.zeros(0) if bin_ is None else np.array(bin_, dtype=float),
        lo=np.full(n, -np.inf) if lo is None else np.array(lo, dtype=float),
        hi=np.full(n, np.inf) if hi is None else np.array(hi, dtype=float),
    )


def highs(lp):
    """(status value, objective) of ``lp`` from scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    P = lp.P
    res = linprog(
        lp.c,
        A_ub=P.Ain if P.Ain.shape[0] else None,
        b_ub=P.bin if P.Ain.shape[0] else None,
        A_eq=P.Aeq if P.Aeq.shape[0] else None,
        b_eq=P.beq if P.Aeq.shape[0] else None,
        bounds=list(zip(np.where(np.isfinite(P.lo), P.lo, None), np.where(np.isfinite(P.hi), P.hi, None))),
        method="highs",
    )
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[res.status]
    return status.value, (float(res.fun) if res.status == 0 else None)


def check_certificates(lp, sol, tol=1e-7):
    """Feasible primal + feasible dual + stationarity + complementary
    slackness + matching objectives certify optimality unconditionally."""
    P = lp.P
    x = sol.x
    assert contains(P, x, tol)
    assert np.all(sol.dual_in >= -tol)
    assert np.all(sol.dual_lo >= -tol)
    assert np.all(sol.dual_hi >= -tol)
    station = lp.c + P.Aeq.T @ sol.dual_eq + P.Ain.T @ sol.dual_in - sol.dual_lo + sol.dual_hi
    np.testing.assert_allclose(station, 0.0, atol=tol * (1 + np.max(np.abs(lp.c))))
    if P.Ain.shape[0]:
        slack = P.bin - P.Ain @ x
        assert np.max(np.abs(sol.dual_in * slack)) <= tol * (1 + np.max(np.abs(P.bin)))
    lo_gap = np.where(np.isfinite(P.lo), x - P.lo, 0.0)
    hi_gap = np.where(np.isfinite(P.hi), P.hi - x, 0.0)
    assert np.max(np.abs(sol.dual_lo * lo_gap), initial=0.0) <= 1e-6
    assert np.max(np.abs(sol.dual_hi * hi_gap), initial=0.0) <= 1e-6
    dual_obj = (
        -sol.dual_eq @ P.beq
        - sol.dual_in @ P.bin
        + sol.dual_lo @ np.where(np.isfinite(P.lo), P.lo, 0.0)
        - sol.dual_hi @ np.where(np.isfinite(P.hi), P.hi, 0.0)
    )
    assert dual_obj == pytest.approx(sol.objective, abs=tol * (1 + abs(sol.objective)))


class TestBasics:
    def test_dominant_coefficient(self):
        # min -2x1 - x2 s.t. x1 + x2 <= 1, x >= 0
        lp = LpProblem(c=[-2.0, -1.0], P=make_poly(2, Ain=[[1, 1]], bin_=[1.0], lo=[0, 0]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
        assert sol.objective == pytest.approx(-2.0)
        check_certificates(lp, sol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_rejected(self, bad):
        with pytest.raises(ValueError, match="objective must be finite"):
            LpProblem(c=[bad, 1.0], P=box([0.0, 0.0], [1.0, 1.0]))

    def test_infeasible(self):
        lp = LpProblem(c=[1.0], P=make_poly(1, Ain=[[1.0]], bin_=[-1.0], lo=[0.0]))
        assert solve(lp).status == LpStatus.INFEASIBLE

    def test_infeasible_reports_phase1_pivots(self):
        # phase 1 flips both columns to 3 and stops 4 short of the row
        lp = LpProblem(c=[1.0, 1.0], P=make_poly(2, Aeq=[[1, 1]], beq=[10.0], lo=[0, 0], hi=[3, 3]))
        sol = solve(lp)
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.simplex_iters == 2

    def test_redundant_row_keeps_basis(self):
        # the row is implied by the fixed x1, so its artificial (column 2)
        # stays basic at 0; the basis is returned, and as a hint, even with
        # its point, it is rejected and the solve starts cold
        lp = LpProblem(c=[1.0, 1.0], P=make_poly(2, Aeq=[[1, 0]], beq=[1.0], lo=[1, 0], hi=[1, 5]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0])
        assert sol.basis == (2,)
        again = solve(lp, basis_hint=sol.basis, start=sol.x)
        np.testing.assert_array_equal(again.x, sol.x)
        assert again.basis == sol.basis

    def test_unbounded(self):
        lp = LpProblem(c=[-1.0], P=make_poly(1, lo=[0.0]))
        sol = solve(lp)
        assert sol.status == LpStatus.UNBOUNDED
        assert sol.simplex_iters == 0  # finding the ray moves nothing

    def test_equality_system(self):
        # min x1+x2 s.t. x1 - x2 = 1 over [-5,5]^2 -> x = (-4+..,), vertex (-4, -5)
        lp = LpProblem(c=[1.0, 1.0], P=make_poly(2, Aeq=[[1, -1]], beq=[1.0], lo=[-5, -5], hi=[5, 5]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [-4.0, -5.0], atol=1e-8)
        check_certificates(lp, sol)

    def test_fixed_variables_stay_at_bound(self):
        lp = LpProblem(c=[3.0, 1.0], P=make_poly(2, lo=[2.0, 0.0], hi=[2.0, 1.0]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [2.0, 0.0])
        assert sol.simplex_iters == 0
        # every column fixed and no rows: an empty basis, no pivots
        sol = solve(LpProblem(c=[3.0, 1.0], P=make_poly(2, lo=[2.0, 1.0], hi=[2.0, 1.0])))
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [2.0, 1.0])
        assert sol.simplex_iters == 0
        assert sol.basis == ()

    def test_all_fixed_with_rows(self):
        lp = LpProblem(
            c=[1.0, -1.0],
            P=make_poly(2, Ain=[[1.0, 1.0]], bin_=[3.0], lo=[1.0, 2.0], hi=[1.0, 2.0]),
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0)
        np.testing.assert_allclose(sol.x, [1.0, 2.0])
        assert sol.simplex_iters <= 1  # only the slack column is left to place

    def test_infeasible_fixed_columns(self):
        lp = LpProblem(
            c=[1.0, 1.0],
            P=make_poly(2, Aeq=[[1.0, 1.0]], beq=[10.0], lo=[1.0, 2.0], hi=[1.0, 2.0]),
        )
        assert solve(lp).status == LpStatus.INFEASIBLE

    def test_fixed_column_never_pivoted_in(self):
        # phase 1 ends with its artificial basic at 0, so driving it out
        # decides the basis: x1 is fixed and must not take it, x2 must
        lp = LpProblem(c=[0.0, 1.0], P=make_poly(2, Aeq=[[1, -1]], beq=[1.0], lo=[1, 0], hi=[1, 5]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0])
        assert sol.basis == (1,)


class TestSuperbasicStart:
    """A nonbasic column strictly inside its bounds is priced both ways and
    flips to the bound its reduced cost asks for."""

    @pytest.mark.parametrize("c, x", [([-1.0, 0.0], [4.0, -3.0]), ([1.0, 0.0], [0.0, 1.0])])
    def test_one_bound_flip_from_interior(self, c, x):
        # x0 + x1 = 1 with x1 basic and x0 nonbasic at 0.5
        sx = _Simplex(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([0.0, -5.0]), np.array([4.0, 5.0]))
        sx.set_basis([1], np.array([0.5, 0.0]))
        np.testing.assert_array_equal(sx.x_full(), [0.5, 0.5])
        assert sx.run(np.array(c), max_iters=10) == "optimal"
        np.testing.assert_array_equal(sx.x_full(), x)
        assert sx.iters == 1


class TestStartPoint:
    """A hint with a start point: nonbasic columns sit at the start, and
    only phase 2 runs unless the start leaves its bounds by more than
    WARM_TOL, in which case the solve is the cold one.  A hint without a
    start, or the reverse, or a start of the wrong shape is rejected."""

    # min -x1 - 2 x2 s.t. x1 + x2 <= 4 on [0, 3]^2; the slack is basic
    LP = LpProblem(c=[-1.0, -2.0], P=make_poly(2, Ain=[[1, 1]], bin_=[4.0], lo=[0, 0], hi=[3, 3]))
    HINT = (2,)

    @pytest.mark.parametrize("start", [[1.0, 1.0], [0.5, 2.5], [1.0, 3.0 + 5e-8]])
    def test_interior_start_runs_phase2_only(self, start, phase1_calls):
        sol = solve(self.LP, basis_hint=self.HINT, start=np.array(start))
        assert phase1_calls == []
        assert sol.status == LpStatus.OPTIMAL
        assert sol.simplex_iters >= 1
        np.testing.assert_allclose(sol.x, [1.0, 3.0], atol=1e-12)
        check_certificates(self.LP, sol)

    @pytest.mark.parametrize("start", [[1.0, 3.0 + 2e-7], [-1e-6, 1.0], [np.nan, 1.0]])
    def test_start_outside_bounds_solves_cold(self, start, phase1_calls):
        sol = solve(self.LP, basis_hint=self.HINT, start=np.array(start))
        assert len(phase1_calls) == 1
        cold = solve(self.LP)
        assert (sol.status, sol.basis, sol.simplex_iters) == (cold.status, cold.basis, cold.simplex_iters)
        for name in ("x", "dual_eq", "dual_in", "dual_lo", "dual_hi"):
            np.testing.assert_array_equal(getattr(sol, name), getattr(cold, name))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(start=np.array([9.0, 9.0])), "together"),  # infeasible, and no hint
        (dict(basis_hint=HINT), "together"),
        (dict(basis_hint=HINT, start=1.0), "one value per column"),  # not broadcast
        (dict(basis_hint=HINT, start=np.zeros(3)), "one value per column"),
    ], ids=["start-only", "hint-only", "scalar-start", "long-start"])
    def test_malformed_warm_start_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            solve(self.LP, **kwargs)

    def test_warm_start_is_keyword_only(self):
        with pytest.raises(TypeError):
            solve(self.LP, self.HINT, np.ones(2))

    @pytest.mark.parametrize("rhs, cols", [(0.0, (1,)), (1e-12, (1,)), (4e-12, (0,))])
    def test_fixed_column_swapped_out_only_if_residual_tiny(self, rhs, cols):
        # x0 - 2 x1 = rhs with x0 fixed at 0 and basic at rhs: swapping in x1
        # drops the residual rhs, allowed up to FIXED_TOL * |alpha| = 2e-12;
        # the swap is the one pivot
        lp = LpProblem(c=[0.0, 1.0], P=make_poly(2, Aeq=[[1, -2]], beq=[rhs], lo=[0, 0], hi=[0, 1]))
        sol = solve(lp, basis_hint=(0,), start=np.zeros(2))
        swaps = int(cols == (1,))
        assert (sol.status, sol.basis, sol.simplex_iters) == (LpStatus.OPTIMAL, cols, swaps)


class TestBoxOracle:
    def test_random_box_vs_vertex_enumeration(self, rng):
        for n in (2, 3, 5, 8, 10):
            c, P = random_box_lp(rng, n)
            sol = solve(LpProblem(c=c, P=P))
            assert sol.status == LpStatus.OPTIMAL
            np.testing.assert_allclose(sol.x, -5.0 * np.sign(c), atol=1e-9)
            best = min(
                c @ np.array(v) for v in itertools.product([-5.0, 5.0], repeat=n)
            )
            assert sol.objective == pytest.approx(best, abs=1e-9)

    def test_constrained_vs_vertex_enumeration(self, rng):
        # brute force over vertices of {box} + one inequality via LP on edges is
        # overkill; instead check certificates on sampled feasible points
        for _ in range(10):
            c, P, x0 = random_lp(rng, n=6, m_eq=2, m_in=4)
            sol = solve(LpProblem(c=c, P=P))
            assert sol.status == LpStatus.OPTIMAL
            check_certificates(LpProblem(c=c, P=P), sol)
            assert sol.objective <= c @ x0 + 1e-9


class TestDualCertificates:
    def test_many_random_lps(self, rng):
        for k in range(60):
            c, P, _ = random_lp(rng, n=5 + k % 4, m_eq=k % 3, m_in=2 + k % 5)
            lp = LpProblem(c=c, P=P)
            sol = solve(lp)
            assert sol.status == LpStatus.OPTIMAL
            check_certificates(lp, sol)

    def test_determinism(self, rng):
        c, P, _ = random_lp(rng, n=7, m_eq=2, m_in=5)
        lp = LpProblem(c=c, P=P)
        a = solve(lp)
        b = solve(lp)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective
        assert a.basis == b.basis
        assert a.simplex_iters == b.simplex_iters


class TestAntiCycling:
    def test_beale_cycling_instance(self):
        # classic degenerate example that cycles under naive Dantzig pricing
        lp = LpProblem(
            c=[-0.75, 150.0, -0.02, 6.0],
            P=make_poly(
                4,
                Ain=[[0.25, -60.0, -1.0 / 25.0, 9.0],
                     [0.5, -90.0, -1.0 / 50.0, 3.0],
                     [0.0, 0.0, 1.0, 0.0]],
                bin_=[0.0, 0.0, 1.0],
                lo=[0.0, 0.0, 0.0, 0.0],
            ),
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-0.05)
        check_certificates(lp, sol)

    def test_highly_degenerate_assignment(self):
        # many ties in the ratio test
        n = 6
        Ain = []
        bin_ = []
        for i in range(n):
            row = np.zeros(n)
            row[: i + 1] = 1.0
            Ain.append(row)
            bin_.append(0.0)
        lp = LpProblem(
            c=np.ones(n),
            P=make_poly(n, Ain=np.array(Ain), bin_=np.array(bin_), lo=-np.ones(n), hi=np.ones(n)),
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        check_certificates(lp, sol)


class TestDump:
    def test_dump_round_readable(self):
        from absfw.lp import dump_lp

        lp = LpProblem(
            c=[1.0, -0.5],
            P=make_poly(2, Aeq=[[1, 1]], beq=[2.0], Ain=[[1, 0]], bin_=[1.5],
                        lo=[0, 0], hi=[3, 3]),
        )
        text = dump_lp(lp)
        lines = text.splitlines()
        assert lines[0].startswith("min ")
        assert any("=" in ln and "<=" not in ln for ln in lines[1:])
        assert any("<=" in ln for ln in lines)
        assert lines[-2].startswith("lo ") and lines[-1].startswith("hi ")


class TestWarmStart:
    """A warm start is a returned basis together with its point."""

    def test_hint_reused(self, rng):
        c, P, _ = random_lp(rng, n=8, m_eq=2, m_in=6)
        lp = LpProblem(c=c, P=P)
        cold = solve(lp)
        warm = solve(lp, basis_hint=cold.basis, start=cold.x)
        assert warm.status == LpStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.simplex_iters == 0

    def test_stepless_warm_start_keeps_its_inverse(self, rng, monkeypatch):
        # set_basis inverts the basis once; a warm start that makes no step
        # skips the final refactor, whose inverse and xB would be the same
        c, P, _ = random_lp(rng, n=8, m_eq=2, m_in=6)
        lp = LpProblem(c=c, P=P)
        cold = solve(lp)
        inverses = spy(monkeypatch, np.linalg, "inv")  # dense rows: not a signed permutation
        warm = solve(lp, basis_hint=cold.basis, start=cold.x)
        assert (warm.simplex_iters, len(inverses)) == (0, 1)
        for field in ("x", "dual_eq", "dual_in", "dual_lo", "dual_hi"):
            assert getattr(warm, field).tobytes() == getattr(cold, field).tobytes()

    def test_hint_with_changed_objective(self, rng):
        c, P, _ = random_lp(rng, n=8, m_eq=1, m_in=5)
        cold = solve(LpProblem(c=c, P=P))
        warm = solve(LpProblem(c=-c, P=P), basis_hint=cold.basis, start=cold.x)
        assert warm.status == LpStatus.OPTIMAL
        check_certificates(LpProblem(c=-c, P=P), warm)

    def test_garbage_hint_falls_back(self, rng):
        c, P, x0 = random_lp(rng, n=5, m_eq=1, m_in=3)
        lp = LpProblem(c=c, P=P)
        sol = solve(lp, basis_hint=(0, 0, 0, 0), start=x0)  # a singular basis
        assert sol.status == LpStatus.OPTIMAL
        check_certificates(lp, sol)


class TestFixedColumnOracle:
    """Fixed columns against scipy's HiGHS: same status and objective.  A
    fixed column is basic only in a row of B^-1 A with no movable nonzero
    entry.  Any returned basis over the LP's columns re-solves at its point
    with no pivot; one holding a phase-1 artificial is not a usable hint."""

    def check(self, lp, sol):
        status, objective = highs(lp)
        assert sol.status.value == status
        if sol.status != LpStatus.OPTIMAL:
            return
        assert abs(sol.objective - objective) <= 1e-9 * (1.0 + abs(objective))
        P, cols = lp.P, list(sol.basis)
        mi = P.Ain.shape[0]
        A = np.block([[P.Aeq, np.zeros((P.Aeq.shape[0], mi))], [P.Ain, np.eye(mi)]])
        movable = np.concatenate([P.hi - P.lo > FIXED_TOL, np.ones(mi, bool)])
        again = solve(lp, basis_hint=sol.basis, start=sol.x)
        if max(cols, default=-1) >= A.shape[1]:
            cold = solve(lp)
            assert (again.basis, again.simplex_iters) == (cold.basis, cold.simplex_iters)
            np.testing.assert_array_equal(again.x, cold.x)
            return
        if not movable[cols].all():
            rows = np.linalg.solve(A[:, cols], A)[~movable[cols]]
            assert np.max(np.abs(rows[:, movable])) <= PIVOT_TOL
        assert again.simplex_iters == 0
        np.testing.assert_array_equal(again.x, sol.x)

    def test_pinned_random_lps(self, rng):
        for k in range(200):
            c, P, x0 = random_lp(rng, n=4 + k % 6, m_eq=k % 3, m_in=1 + k % 4)
            pinned = rng.choice(P.dim, size=1 + k % 2, replace=False)
            lo, hi = P.lo.copy(), P.hi.copy()
            lo[pinned] = hi[pinned] = x0[pinned]
            lp = LpProblem(c=c, P=Polyhedron(Aeq=P.Aeq, beq=P.beq, Ain=P.Ain, bin=P.bin, lo=lo, hi=hi))
            sol = solve(lp)
            assert sol.status == LpStatus.OPTIMAL
            self.check(lp, sol)

    def test_crash_swaps_out_fixed_column(self):
        # x0 - x1 = 0 with x0 fixed at 0: the crash basis (x0,) is optimal
        # at the start, so only the zero-step swap, the one pivot counted,
        # takes x0 out of it
        lp = LpProblem(c=[0.0, 1.0], P=make_poly(2, Aeq=[[1, -1]], beq=[0.0], lo=[0, 0], hi=[0, 1]))
        sol = solve(lp, basis_hint=(0,), start=np.zeros(2))
        self.check(lp, sol)
        assert (sol.basis, sol.simplex_iters) == ((1,), 1)

    def test_lifted_lps_on_maxq(self, lp_solves):
        from absfw import bench
        from absfw.aasm import aasm_minimize
        from absfw.plmodel import affine_substitute
        from absfw.tape import abs_linearize

        inst = bench.maxq(6, "C2")
        # the start, a point on four of the five kinks, and 0 on all of them
        for x in (inst.x0, np.array([0.0, 1.0, 1.0, -1.0, -1.0, -1.0]), np.zeros(6)):
            form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
            aasm_minimize(form, inst.C, x)
        assert all(np.any(p.P.hi - p.P.lo <= FIXED_TOL) for (p,), _, _ in lp_solves)
        for (problem,), _, sol in lp_solves:
            self.check(problem, sol)


class TestBoundFault:
    @pytest.fixture(scope="class")
    def maxq_lps(self):
        """A ``Call`` of every LP that AASM solves on the whole maxq C2 n=20
        run, to gap 1e-10."""
        import absfw.lp
        from absfw import bench
        from absfw.asfw import StepRule, asfw_run

        with pytest.MonkeyPatch.context() as mp:
            solved = spy(mp, absfw.lp, "solve")
            inst = bench.maxq(20, "C2")
            res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(),
                           max_iters=200, gap_tol=1e-10)
        assert res.status.value == "gap_tol_reached" and len(res.trace.rows) == 56
        return solved

    def test_optimal_points_within_column_bounds_on_maxq(self, maxq_lps):
        """The whole maxq C2 n=20 run keeps every OPTIMAL point within its
        column bounds.  Cold first LPs broke them from outer iteration 38 on:
        a phase-1 artificial basic at 5.8e-11 was pinned at 0 and its
        residual dropped, and the final refactor then moved a basic v column
        by about 2e-5.  Crashed from the start point, no LP runs phase 1."""
        assert maxq_lps
        for (problem,), _, sol in maxq_lps:
            if sol.status == LpStatus.OPTIMAL:
                assert np.all(sol.x >= problem.P.lo - 1e-9)
                assert np.all(sol.x <= problem.P.hi + 1e-9)

    def test_cold_resolves_within_bounds_on_maxq(self, maxq_lps):
        """The run's first LPs, solved again cold (phase 1, no start), stay
        within their column bounds and rows.  With an unguarded swap after
        phase 1, the last four (t = 52-55) came back OPTIMAL up to 2.6e-5
        outside their bounds: the swap dropped an artificial's residual."""
        firsts = [problem for (problem,), kwargs, _ in maxq_lps if kwargs.get("start") is not None]
        assert len(firsts) == 56
        for problem in firsts:
            sol = solve(problem)
            assert sol.status == LpStatus.OPTIMAL
            P = problem.P
            assert np.all(sol.x >= P.lo - 1e-9) and np.all(sol.x <= P.hi + 1e-9)
            b_max = float(np.max(np.abs(np.concatenate([P.beq, P.bin])), initial=0.0))
            resid = np.concatenate([np.abs(P.Aeq @ sol.x - P.beq), np.maximum(P.Ain @ sol.x - P.bin, 0.0)])
            assert np.max(resid, initial=0.0) <= DEFAULT_TOL * (1.0 + b_max)


def l1_fit(rng, d, m):
    """min sum_i |z_i| over z = A v - y, -5 <= v <= 5, in the split columns
    (v, z+, z-): rows -A v + z+ - z- = -y, costs 0 on v and 1 on z+, z-.
    Returns the LP, its twin pairs, and the crash basis and start point at
    the corner v = -5, from where the simplex crosses many kinks."""
    A, y = rng.normal(size=(m, d)), rng.normal(size=m)
    I = np.eye(m)
    P = make_poly(d + 2 * m, Aeq=np.hstack([-A, I, -I]), beq=-y,
                  lo=np.concatenate([np.full(d, -5.0), np.zeros(2 * m)]),
                  hi=np.concatenate([np.full(d, 5.0), np.full(2 * m, np.inf)]))
    c = np.concatenate([np.zeros(d), np.ones(2 * m)])
    twins = tuple((d + i, d + m + i) for i in range(m))
    v0 = np.full(d, -5.0)
    crash = tuple(d + i + (0 if zi >= 0 else m) for i, zi in enumerate(A @ v0 - y))
    return LpProblem(c=c, P=P), twins, crash, np.concatenate([v0, np.zeros(2 * m)])


class TestTwins:
    """Split pairs (z+, z-) let one simplex step cross a kink."""

    def test_random_l1_fits_match_oracle(self, rng):
        pivots = np.zeros(2, dtype=int)
        for _ in range(8):
            plain, twins, crash, start = l1_fit(rng, d=3, m=15)
            split = LpProblem(c=plain.c, P=plain.P, twins=twins)
            a = solve(plain, basis_hint=crash, start=start)
            b = solve(split, basis_hint=crash, start=start)
            assert a.status == b.status == LpStatus.OPTIMAL
            assert b.objective == pytest.approx(a.objective, rel=1e-9, abs=1e-9)
            assert highs(plain) == ("optimal", pytest.approx(b.objective, rel=1e-9, abs=1e-9))
            check_certificates(split, b)
            pivots += a.simplex_iters, b.simplex_iters
        assert pivots[1] < pivots[0]

    def test_median_in_one_step(self):
        # min sum |v - a_i| from v = -5: one step crosses the kinks at 0 and 1
        # and stops at the median 2; a plain simplex pivots at every kink
        a = np.array([0.0, 1.0, 2.0, 3.0, 4.5])
        m = a.size
        I = np.eye(m)
        P = make_poly(1 + 2 * m, Aeq=np.hstack([-np.ones((m, 1)), I, -I]), beq=-a,
                      lo=np.concatenate([[-5.0], np.zeros(2 * m)]),
                      hi=np.concatenate([[5.0], np.full(2 * m, np.inf)]))
        c = np.concatenate([[0.0], np.ones(2 * m)])
        crash = tuple(range(1 + m, 1 + 2 * m))  # every z- basic
        start = np.concatenate([[-5.0], np.zeros(2 * m)])
        twins = tuple((1 + i, 1 + m + i) for i in range(m))
        sol = solve(LpProblem(c=c, P=P, twins=twins), basis_hint=crash, start=start)
        plain = solve(LpProblem(c=c, P=P), basis_hint=crash, start=start)
        assert (sol.simplex_iters, plain.simplex_iters) == (1, 3)
        assert sol.x[0] == pytest.approx(2.0) and plain.x[0] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(plain.objective) == pytest.approx(6.5)

    def test_cold_two_phase(self, rng):
        # phase 1 appends artificial columns, which have no twin
        for _ in range(5):
            plain, twins, _, _ = l1_fit(rng, d=3, m=10)
            sol = solve(LpProblem(c=plain.c, P=plain.P, twins=twins))
            ref = solve(plain)
            assert sol.status == ref.status == LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
            check_certificates(plain, sol)

    @pytest.mark.parametrize("twins, message", [
        (((3, 6),), "exact negatives"),       # z+_0 against z-_1
        (((0, 3),), "lower bound 0"),         # v_0 has lower bound -5
        (((3, 7), (7, 4)), "disjoint"),
        (((3, 3),), "disjoint"),
        (((3, 99),), "disjoint"),
        (((-1, 3),), "disjoint"),
        ((3, 7), "pairs of column indices"),
        (((3, 7, 4),), "pairs of column indices"),
    ])
    def test_invalid_twins_rejected(self, rng, twins, message):
        plain, _, _, _ = l1_fit(rng, d=3, m=4)
        with pytest.raises(ValueError, match=message):
            LpProblem(c=plain.c, P=plain.P, twins=twins)

    def test_inexact_negation_rejected(self, rng):
        plain, twins, _, _ = l1_fit(rng, d=3, m=4)
        P = plain.P
        Aeq = P.Aeq.copy()
        Aeq[0, twins[0][1]] += 1e-15
        bent = Polyhedron(Aeq=Aeq, beq=P.beq, Ain=P.Ain, bin=P.bin, lo=P.lo, hi=P.hi)
        LpProblem(c=plain.c, P=P, twins=twins)
        with pytest.raises(ValueError, match="exact negatives"):
            LpProblem(c=plain.c, P=bent, twins=twins)


class TestBoundGuard:
    @pytest.mark.parametrize("drift, raises", [(0.5, False), (2.0, True)])
    def test_drifted_optimal_point(self, monkeypatch, drift, raises):
        # every column of this LP (x and the slack) has lower bound 0; the
        # final refactor is made to put each basic column drift * DEFAULT_TOL below it
        real = _Simplex.refactor

        def drifted(sx):
            real(sx)
            sx.xB = sx.lo[sx.basis] - drift * DEFAULT_TOL

        monkeypatch.setattr(_Simplex, "refactor", drifted)
        lp = LpProblem(c=[-1.0, -2.0], P=make_poly(2, Ain=[[1.0, 1.0]], bin_=[1.0], lo=[0.0, 0.0], hi=[1.0, 1.0]))
        if raises:
            with pytest.raises(LpError, match="leaves a column bound"):
                solve(lp)
        else:
            assert solve(lp).status == LpStatus.OPTIMAL

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_optimal_point(self, monkeypatch, bad):
        # NaN compares false, and no column has a finite upper bound, so
        # neither point leaves a bound
        real = _Simplex.refactor

        def poisoned(sx):
            real(sx)
            sx.xB = np.full(sx.m, bad)

        monkeypatch.setattr(_Simplex, "refactor", poisoned)
        lp = LpProblem(c=[-1.0, -2.0], P=make_poly(2, Ain=[[1.0, 1.0]], bin_=[1.0], lo=[0.0, 0.0]))
        with pytest.raises(LpError, match="not finite"):
            solve(lp)


def dense_replace(inv, r, w):
    """The dense rank-1 update of an explicit basis inverse when column r
    of B becomes a, with w = B^-1 a: the reference ``_Factor`` is held to."""
    inv = inv.copy()
    piv = w[r]
    eta = w / piv
    eta[r] = 0.0
    inv -= np.outer(eta, inv[r])
    inv[r] /= piv
    return inv


def random_basis(rng, m, kind):
    """A nonsingular m x m basis.  "dense" is Gaussian, so its inverse has
    no zeros; "sparse" is a signed unit lower triangle like AASM's z block,
    with exact zeros of both signs in it and in its inverse."""
    if kind == "dense":
        return rng.normal(size=(m, m))
    lower = np.tril(np.where(rng.random((m, m)) < 3.0 / m, rng.normal(size=(m, m)), 0.0), -1)
    return (np.eye(m) - lower) * rng.choice([-1.0, 1.0], size=m)


def pivot_both(rng, B, steps=15):
    """Make the same random pivots on a factor of B and on the dense
    reference; returns (factor, reference, whether every solve and solve_T
    on the way gave the reference's bytes)."""
    m = B.shape[0]
    fac = _Factor(m)
    fac.refactor(B)
    ref = fac.inv.copy()
    same_products = True
    for _ in range(steps):
        a = np.where(rng.random(m) < 0.2, rng.normal(size=m), 0.0)
        w = fac.solve(a)
        r = int(np.abs(w).argmax())
        if w[r] == 0.0:
            continue
        fac.replace(r, w)
        ref = dense_replace(ref, r, w)
        probe = np.where(rng.random(m) < 0.5, rng.normal(size=m), 0.0)
        same_products &= (fac.solve(probe).tobytes() == (ref @ probe).tobytes()
                          and fac.solve_T(probe).tobytes() == (ref.T @ probe).tobytes())
    return fac, ref, same_products


class TestFactor:
    """``_Factor`` against the dense formulas it replaces, bit for bit."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("m", [5, _Factor.SPARSE_ROWS - 1, _Factor.SPARSE_ROWS, 90])
    def test_replace_matches_dense_update(self, rng, m, kind):
        # the dense path is the reference formula; the touched-row path may
        # leave a -0.0 where the reference made +0.0, and nothing else
        for _ in range(3):
            fac, ref, same_products = pivot_both(rng, random_basis(rng, m, kind))
            assert np.array_equal(fac.inv, ref)
            differ = np.signbit(fac.inv) != np.signbit(ref)
            assert np.all(fac.inv[differ] == 0.0) and np.all(np.signbit(fac.inv[differ]))
            if kind == "dense" or m < _Factor.SPARSE_ROWS:
                assert not differ.any()
            assert same_products

    def test_a_dropped_row_is_caught(self, rng, monkeypatch):
        real = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: real(a)[:-1])
        fac, ref, _ = pivot_both(rng, random_basis(rng, 80, "dense"))
        assert not np.array_equal(fac.inv, ref)

    @pytest.mark.parametrize("m", range(1, 121))
    def test_signed_permutation_inverse_is_lapacks(self, rng, monkeypatch, m):
        # slack-like +e_i columns, negated columns and zeros of both signs
        k = m // 3
        B = np.where(rng.random((m, m)) < 0.5, -0.0, 0.0)
        B[np.concatenate([np.arange(k), k + rng.permutation(m - k)]), np.arange(m)] = np.concatenate(
            [np.ones(k), rng.choice([-1.0, 1.0], size=m - k)])
        fac = _Factor(m)
        inverses = spy(monkeypatch, np.linalg, "inv")
        fac.refactor(B)
        assert inverses == []
        ref = np.linalg.inv(B)
        assert fac.inv.flags.c_contiguous and fac.inv.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bend", ["one-plus-ulp", "extra-nonzero", "singular"])
    def test_other_bases_are_inverted(self, rng, monkeypatch, bend):
        m = 30
        B = np.eye(m)[:, rng.permutation(m)] * rng.choice([-1.0, 1.0], size=m)
        i, j = np.argwhere(B != 0.0)[7]
        if bend == "one-plus-ulp":
            B[i, j] = np.copysign(1.0 + 2.0 ** -52, B[i, j])
        elif bend == "extra-nonzero":
            B[(i + 1) % m, j] = 0.5
        else:
            B[:, j] = B[:, (j + 1) % m]
        fac = _Factor(m)
        inverses = spy(monkeypatch, np.linalg, "inv")
        if bend == "singular":
            with pytest.raises(np.linalg.LinAlgError):
                fac.refactor(B)
            return
        fac.refactor(B)
        assert len(inverses) == 1
        assert fac.inv.tobytes() == np.linalg.inv(B).tobytes()

    def test_bound_flips_price_once(self, monkeypatch):
        # x0 + x1 + s = 5 on [0, 1]^2: both columns flip to 1 and the slack
        # stays basic, so the reduced costs of the first step serve all
        sx = _Simplex(np.array([[1.0, 1.0, 1.0]]), np.array([5.0]), np.zeros(3),
                      np.array([1.0, 1.0, np.inf]))
        sx.set_basis([2], np.zeros(3))
        pricings = spy(monkeypatch, _Factor, "solve_T")
        assert sx.run(np.array([-1.0, -2.0, 0.0]), max_iters=10) == "optimal"
        assert sx.iters == 2 and len(pricings) == 1
        np.testing.assert_array_equal(sx.x_full(), [1.0, 1.0, 3.0])
