import itertools

import numpy as np
import pytest

from absfw.lp import LpProblem, LpStatus, LpBasis, solve
from absfw.polyhedron import Polyhedron, box, contains
from absfw.randgen import random_lp, random_box_lp


def make_poly(n, Aeq=None, beq=None, Ain=None, bin_=None, lo=None, hi=None):
    return Polyhedron(
        Aeq=np.zeros((0, n)) if Aeq is None else np.array(Aeq, dtype=float),
        beq=np.zeros(0) if beq is None else np.array(beq, dtype=float),
        Ain=np.zeros((0, n)) if Ain is None else np.array(Ain, dtype=float),
        bin=np.zeros(0) if bin_ is None else np.array(bin_, dtype=float),
        lo=np.full(n, -np.inf) if lo is None else np.array(lo, dtype=float),
        hi=np.full(n, np.inf) if hi is None else np.array(hi, dtype=float),
    )


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

    def test_infeasible(self):
        lp = LpProblem(c=[1.0], P=make_poly(1, Ain=[[1.0]], bin_=[-1.0], lo=[0.0]))
        assert solve(lp).status == LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LpProblem(c=[-1.0], P=make_poly(1, lo=[0.0]))
        assert solve(lp).status == LpStatus.UNBOUNDED

    def test_equality_system(self):
        # min x1+x2 s.t. x1 - x2 = 1 over [-5,5]^2 -> x = (-4+..,), vertex (-4, -5)
        lp = LpProblem(c=[1.0, 1.0], P=make_poly(2, Aeq=[[1, -1]], beq=[1.0], lo=[-5, -5], hi=[5, 5]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [-4.0, -5.0], atol=1e-8)
        check_certificates(lp, sol)

    def test_fixed_variables_presolved(self):
        lp = LpProblem(c=[3.0, 1.0], P=make_poly(2, lo=[2.0, 0.0], hi=[2.0, 1.0]))
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [2.0, 0.0])
        assert sol.simplex_iters == 0

    def test_fully_presolved_with_rows(self):
        lp = LpProblem(
            c=[1.0, -1.0],
            P=make_poly(2, Ain=[[1.0, 1.0]], bin_=[3.0], lo=[1.0, 2.0], hi=[1.0, 2.0]),
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0)
        np.testing.assert_allclose(sol.x, [1.0, 2.0])
        assert sol.simplex_iters <= 1  # only the slack column is left to place

    def test_presolve_detects_infeasible_fixed(self):
        lp = LpProblem(
            c=[1.0, 1.0],
            P=make_poly(2, Aeq=[[1.0, 1.0]], beq=[10.0], lo=[1.0, 2.0], hi=[1.0, 2.0]),
        )
        assert solve(lp).status == LpStatus.INFEASIBLE

    def test_rejects_bad_tol(self):
        lp = LpProblem(c=[1.0], P=make_poly(1, lo=[0.0], hi=[1.0]))
        with pytest.raises(ValueError):
            solve(lp, tol=0.0)


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
    def test_hint_reused(self, rng):
        c, P, _ = random_lp(rng, n=8, m_eq=2, m_in=6)
        lp = LpProblem(c=c, P=P)
        cold = solve(lp)
        warm = solve(lp, basis_hint=cold.basis)
        assert warm.status == LpStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.simplex_iters == 0

    def test_hint_with_changed_objective(self, rng):
        c, P, _ = random_lp(rng, n=8, m_eq=1, m_in=5)
        cold = solve(LpProblem(c=c, P=P))
        warm = solve(LpProblem(c=-c, P=P), basis_hint=cold.basis)
        assert warm.status == LpStatus.OPTIMAL
        check_certificates(LpProblem(c=-c, P=P), warm)

    def test_garbage_hint_falls_back(self, rng):
        c, P, _ = random_lp(rng, n=5, m_eq=1, m_in=3)
        lp = LpProblem(c=c, P=P)
        bad = LpBasis(cols=(0, 0, 0, 0), at_upper=())
        sol = solve(lp, basis_hint=bad)
        assert sol.status == LpStatus.OPTIMAL
        check_certificates(lp, sol)


class TestBoundFault:
    @pytest.mark.xfail(strict=True, reason=(
        "known fault: on maxq C2 n=20 from outer iteration 38, a phase-1 artificial "
        "stays basic at 5.8e-11, under the 1e-9 infeasibility tolerance; "
        "_drive_out_artificials pivots it out at step 0 and phase 1 pins it at 0, "
        "dropping that residual; the final refactor() then moves a basic v column "
        "with entries of about 3e-6 by about 2e-5, outside its bound"))
    def test_optimal_points_within_column_bounds_on_maxq(self, monkeypatch):
        import absfw.aasm
        from absfw import bench
        from absfw.asfw import StepRule, asfw_run

        lpmod = absfw.aasm.lpmod
        real_solve = lpmod.solve
        solved = []

        def recording(problem, *args, **kwargs):
            sol = real_solve(problem, *args, **kwargs)
            solved.append((problem, sol))
            return sol

        monkeypatch.setattr(lpmod, "solve", recording)
        inst = bench.maxq(20, "C2")
        asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=39)
        assert solved
        for problem, sol in solved:
            if sol.status == LpStatus.OPTIMAL:
                assert np.all(sol.x >= problem.P.lo - 1e-9)
                assert np.all(sol.x <= problem.P.hi + 1e-9)
