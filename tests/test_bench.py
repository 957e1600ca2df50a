import numpy as np
import pytest

from absfw import bench
from absfw import lp as lpmod
from absfw.aasm import _Lifted
from absfw.asfw import StepRule, asfw_run
from absfw.plmodel import eval_pl
from absfw.polyhedron import contains
from absfw.randgen import midpoint_convex
from absfw.rng import CounterRng
from absfw.tape import abs_linearize, evaluate
from conftest import spy


def feval(inst, x):
    return evaluate(inst.tape, np.asarray(x, dtype=float)).y


class TestMaxq:
    def test_start_value(self):
        inst = bench.maxq(4, "C3")  # C3 keeps the classic start feasible
        np.testing.assert_allclose(inst.x0, [1.0, 2.0, -3.0, -4.0])
        assert feval(inst, inst.x0) == pytest.approx(16.0)

    def test_c1_c2_starts_clip_first_coordinate(self):
        for fs in ("C1", "C2"):
            inst = bench.maxq(4, fs)
            assert contains(inst.C, inst.x0, 1e-9)
            np.testing.assert_allclose(inst.x0[1:], [2.0, -3.0, -4.0])
            assert inst.x0[0] == 0.0
            assert feval(inst, inst.x0) == pytest.approx(16.0)

    def test_matches_direct_max(self, rng):
        inst = bench.maxq(6, "C1")
        for _ in range(20):
            x = rng.uniform(-3, 3, size=6)
            assert feval(inst, x) == pytest.approx(float(np.max(x**2)), abs=1e-12)

    def test_c2_optimum(self):
        inst = bench.maxq(10, "C2")
        xstar, fstar = inst.known_optimum
        np.testing.assert_allclose(xstar, 0.0)
        assert fstar == 0.0
        assert contains(inst.C, xstar, 0.0)

    def test_c3_optimum(self):
        inst = bench.maxq(10, "C3")
        xstar, fstar = inst.known_optimum
        np.testing.assert_allclose(np.abs(xstar), 1.0)
        assert fstar == 1.0
        assert feval(inst, xstar) == pytest.approx(1.0)

    def test_model_is_convex(self, rng):
        inst = bench.maxq(5, "C1")
        for _ in range(20):
            xbar = rng.uniform(inst.C.lo, inst.C.hi)
            form = abs_linearize(inst.tape, xbar)
            assert midpoint_convex(form, -np.ones(5), np.ones(5), rng, samples=40)


class TestChainedLq:
    def test_start_value_n2(self):
        inst = bench.chained_lq(2)
        assert feval(inst, [-0.5, -0.5]) == pytest.approx(1.0)

    def test_known_optimum(self):
        inst = bench.chained_lq(2)
        xstar, fstar = inst.known_optimum
        assert fstar == pytest.approx(-np.sqrt(2.0))
        assert feval(inst, xstar) == pytest.approx(fstar, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        inst = bench.chained_lq(5)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=5)
            direct = sum(
                max(-x[i] - x[i + 1], -x[i] - x[i + 1] + x[i] ** 2 + x[i + 1] ** 2 - 1)
                for i in range(4)
            )
            assert feval(inst, x) == pytest.approx(direct, abs=1e-12)

    def test_model_is_convex(self, rng):
        inst = bench.chained_lq(4)
        for _ in range(20):
            xbar = rng.uniform(inst.C.lo, inst.C.hi)
            form = abs_linearize(inst.tape, xbar)
            assert midpoint_convex(form, -np.ones(4), np.ones(4), rng, samples=40)


class TestRosenbrockNesterov:
    def test_rn2_start_value(self):
        inst = bench.rosenbrock_nesterov2(3)
        np.testing.assert_allclose(inst.x0, [-1.0, 1.0, 1.0])
        # 0.25*|x1-1| + |1-2+1| + |1-2+1| = 0.5
        assert feval(inst, inst.x0) == pytest.approx(0.5)

    def test_rn2_optimum(self):
        inst = bench.rosenbrock_nesterov2(6)
        xstar, fstar = inst.known_optimum
        assert feval(inst, xstar) == pytest.approx(0.0, abs=1e-14)
        assert fstar == 0.0

    def test_rn1_start_and_optimum(self):
        inst = bench.rosenbrock_nesterov1(4)
        np.testing.assert_allclose(inst.x0, [-0.5, 0.5, -0.5, 0.5])
        assert feval(inst, np.ones(4)) == pytest.approx(0.0, abs=1e-14)

    def test_rn1_even_bounds(self):
        inst = bench.rosenbrock_nesterov1(4)
        np.testing.assert_allclose(inst.C.lo, -5.0)
        np.testing.assert_allclose(inst.C.hi, 5.0)


class TestCrescentAndMifflin:
    def test_cc1_start_pattern(self):
        inst = bench.chained_crescent1(4)
        np.testing.assert_allclose(inst.x0, [-1.5, 2.0, -1.5, 2.0])

    def test_cc1_matches_direct(self, rng):
        inst = bench.chained_crescent1(4)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=4)
            f1 = sum(x[i] ** 2 + (x[i + 1] - 1) ** 2 + x[i + 1] - 1 for i in range(3))
            f2 = sum(-x[i] ** 2 - (x[i + 1] - 1) ** 2 + x[i + 1] + 1 for i in range(3))
            assert feval(inst, x) == pytest.approx(max(f1, f2), abs=1e-12)

    def test_cc1_optimum_value(self):
        inst = bench.chained_crescent1(5)
        xstar, fstar = inst.known_optimum
        assert feval(inst, xstar) == pytest.approx(fstar, abs=1e-14)

    def test_mifflin_values(self):
        inst = bench.mifflin2()
        assert feval(inst, [-1.8, 1.8]) == pytest.approx(1.8 + 2 * 5.48 + 1.75 * 5.48)
        xstar, fstar = inst.known_optimum
        assert feval(inst, xstar) == pytest.approx(fstar)

    def test_extended_problems_evaluate(self, rng):
        for ctor in (bench.chained_mifflin2, bench.chained_crescent2):
            inst = ctor(4)
            assert contains(inst.C, inst.x0, 1e-9)
            assert np.isfinite(feval(inst, rng.uniform(-2, 2, size=4)))


class TestLasso:
    def test_reproducible(self):
        a = bench.constrained_lasso(6, 9, rho=0.7, seed=42)
        b = bench.constrained_lasso(6, 9, rho=0.7, seed=42)
        A1, y1 = bench.lasso_design(6, 9, 42)
        A2, y2 = bench.lasso_design(6, 9, 42)
        assert np.array_equal(A1, A2) and np.array_equal(y1, y2)
        assert np.array_equal(a.x0, b.x0)
        assert feval(a, a.x0) == feval(b, b.x0)

    def test_matches_direct_objective(self, rng):
        n, p, rho, seed = 5, 8, 0.9, 3
        inst = bench.constrained_lasso(n, p, rho=rho, seed=seed)
        A, y = bench.lasso_design(n, p, seed)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=n)
            direct = 0.5 * np.sum((A @ x - y) ** 2) + rho * np.sum(np.abs(x))
            assert feval(inst, x) == pytest.approx(direct, rel=1e-12)

    def test_rho_zero_is_smooth(self):
        inst = bench.constrained_lasso(4, 6, rho=0.0, seed=1)
        assert inst.tape.num_switch == 0

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), -1.0])
    def test_rho_must_be_finite_and_nonnegative(self, rho):
        # a NaN rho used to build the rho = 0 tape, and an infinite one a
        # tape that fails at its first evaluation
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            bench.constrained_lasso(5, 8, rho=rho)

    def test_model_matches_displayed_formula(self, rng):
        # model increment = (xbar^T A^T - y^T) A dx + rho(||xbar+dx||_1 - ||xbar||_1)
        n, p, rho, seed = 5, 8, 1.3, 9
        inst = bench.constrained_lasso(n, p, rho=rho, seed=seed)
        A, y = bench.lasso_design(n, p, seed)
        xbar = rng.uniform(-1, 1, size=n)
        form = abs_linearize(inst.tape, xbar)
        fbar = feval(inst, xbar)
        for _ in range(10):
            dx = rng.uniform(-0.5, 0.5, size=n)
            expected = (A @ xbar - y) @ (A @ dx) + rho * (
                np.sum(np.abs(xbar + dx)) - np.sum(np.abs(xbar))
            )
            got = eval_pl(form, dx)[0] - fbar
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_model_is_convex(self, rng):
        inst = bench.constrained_lasso(4, 6, rho=1.0, seed=5)
        for _ in range(20):
            xbar = rng.uniform(inst.C.lo, inst.C.hi)
            form = abs_linearize(inst.tape, xbar)
            assert midpoint_convex(form, -np.ones(4), np.ones(4), rng, samples=40)

    def test_ordered_variant_chain(self):
        inst = bench.constrained_lasso(5, 8, seed=0, variant="ordered")
        assert inst.C.Ain.shape == (4, 5)
        x0 = inst.x0
        np.testing.assert_allclose(x0, np.linspace(-1, 1, 5))
        assert contains(inst.C, x0, 1e-12)
        assert not contains(inst.C, x0[::-1].copy(), 1e-9)  # reversed violates order

    @pytest.mark.parametrize("n, p", [(1, 1), (5, 8), (50, 100), (20, 7)])
    def test_tape_size_linear_in_n_plus_p(self, n, p):
        # one affine node per residual, not a scale and an add per A_kj
        assert len(bench.constrained_lasso(n, p).tape.nodes) <= 3 * n + 4 * p + 3

    def test_feasible_starts(self):
        for variant in ("box", "ordered"):
            inst = bench.constrained_lasso(8, 12, seed=11, variant=variant)
            assert contains(inst.C, inst.x0, 1e-9)


class TestBenchWork:
    """The work of the perfbench workloads, pinned: a change that claims to
    leave the solver's path alone must leave the LP solves, the simplex
    pivots and f_final as they are.  No LP runs phase 1: every first LP
    starts at a point, and every probe at its parent's.  The trace's
    ``lp_pivots`` add up to the pivots.  ``np.linalg.inv`` runs for every
    basis but the signed permutations, which are transposed at every size;
    the crash bases of chained LQ and LASSO are such (their forms have
    M = L = 0), and maxq's carry L."""

    @pytest.mark.parametrize("build, iters, solves, pivots, inverses, f_final", [
        (lambda: bench.chained_lq(100), 5, 5, 354, 4, 388.9187393553687),
        (lambda: bench.maxq(20, "C2"), 200, 56, 77, 61, 3.9165483595072184e-11),
        (lambda: bench.constrained_lasso(50, 100, rho=1.0, seed=0, variant="box"), 20, 20, 107, 1,
         1982.9956613474728),
    ], ids=["chained_lq-n100", "maxq_C2-n20", "lasso_box-n50-p100"])
    def test_lp_work(self, monkeypatch, lp_solves, phase1_calls, build, iters, solves, pivots,
                     inverses, f_final):
        inst = build()
        inv_calls = spy(monkeypatch, np.linalg, "inv")
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=iters)
        iters_per_lp = [c.result.simplex_iters for c in lp_solves]
        assert (len(iters_per_lp), sum(iters_per_lp)) == (solves, pivots)
        assert sum(row.lp_pivots for row in res.trace.rows) == pivots
        assert len(inv_calls) == inverses
        assert res.f_final == pytest.approx(f_final, rel=1e-12, abs=0.0)
        assert phase1_calls == []

    @pytest.mark.parametrize("build, iters, solves", [
        (lambda: bench.maxq(20, "C2"), 200, 41),
        (lambda: bench.maxq(6, "C2"), 500, 41),
        (lambda: bench.chained_lq(100), 5, 5),
        (lambda: bench.constrained_lasso(50, 100, rho=1.0, seed=0, variant="box"), 20, 20),
    ], ids=["maxq_C2-n20", "maxq_C2-n6", "chained_lq-n100", "lasso_box-n50-p100"])
    def test_lps_agree_with_highs(self, lp_solves, build, iters, solves):
        """Every LP of the run must be optimal to both solvers.  Near maxq
        C2's optimum every switching value is below 1e-10.  A kink pinned
        there although its value is not 0 relative to its terms leaves the
        LP feasible only to that value, and HiGHS calls it infeasible.
        Chained LQ's and LASSO's first LPs start two vertices back."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        inst = build()
        asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=iters)
        assert len(lp_solves) >= solves
        for (lp,), _, sol in lp_solves:
            P = lp.P
            assert P.Ain.shape[0] == 0  # C is a box
            ref = linprog(lp.c, A_eq=P.Aeq, b_eq=P.beq, bounds=list(zip(P.lo, P.hi)),
                          method="highs")
            assert (sol.status, ref.status) == (lpmod.LpStatus.OPTIMAL, 0)
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6)

    @pytest.mark.parametrize("build", [
        lambda: bench.maxq(6, "C2"), lambda: bench.maxq(8, "C3"),
        lambda: bench.rosenbrock_nesterov1(20), lambda: bench.rosenbrock_nesterov2(10),
        lambda: bench.chained_crescent2(6),
        lambda: bench.constrained_lasso(8, 12, seed=3, variant="ordered"),
    ], ids=["maxq_C2-n6", "maxq_C3-n8", "rn1-n20", "rn2-n10", "chained_crescent2-n6",
            "lasso_ordered-n8-p12"])
    def test_no_cold_fallback(self, phase1_calls, build):
        """A start that AASM accepts but ``lp.solve`` rejects would cost a
        cold two-phase solve in silence; none happens on these runs.  The
        ordered LASSO's chain rows put C's slacks in every crash basis."""
        inst = build()
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=500)
        assert any(row.warm_started for row in res.trace.rows)
        assert phase1_calls == []


class TestPricingWork:
    """The flips the walks price from their parent LP, pinned: on maxq every
    one is settled without a probe LP."""

    @pytest.mark.parametrize("n, iters, priced, settled", [
        (20, 200, 72, 72),
        (6, 500, 16, 16),
    ], ids=["maxq_C2-n20", "maxq_C2-n6"])
    def test_flips_priced(self, monkeypatch, n, iters, priced, settled):
        pricings = spy(monkeypatch, _Lifted, "flips")
        inst = bench.maxq(n, "C2")
        asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=iters)
        verdicts = [settled for c in pricings for *_, settled in c.result]
        assert (len(verdicts), sum(verdicts)) == (priced, settled)


class TestRng:
    def test_counter_rng_deterministic(self):
        a = CounterRng(123).normals(64)
        b = CounterRng(123).normals(64)
        assert np.array_equal(a, b)

    def test_counter_rng_streams_differ(self):
        assert not np.array_equal(CounterRng(1).normals(64), CounterRng(2).normals(64))

    def test_normals_moments(self):
        z = CounterRng(7).normals(200_000)
        assert abs(float(np.mean(z))) < 0.01
        assert abs(float(np.std(z)) - 1.0) < 0.01

    def test_uniform_open_interval(self):
        u = CounterRng(9).uniform(10_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
