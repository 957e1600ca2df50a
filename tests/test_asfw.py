import numpy as np
import pytest

from absfw import asfw as asfw_mod
from absfw import bench
from absfw.aasm import local_optimality_test
from absfw.asfw import (
    StepRule,
    RunStatus,
    asfw_run,
    generalized_gap,
    running_min,
    loglog_slope,
)
from absfw.plmodel import affine_substitute
from absfw.polyhedron import cube, contains
from absfw.tape import TapeBuilder, abs_linearize, evaluate
from conftest import spy



class TestGeneralizedGap:
    def test_smooth_case(self, square_tape):
        # f = x^2 on [-1,1]: at x=0.5, v=-1: <-grad, v-x> = -1*(-1.5) = 1.5
        form = abs_linearize(square_tape, [0.5])
        fbar = evaluate(square_tape, [0.5]).y
        for alpha in (1.0, 0.5, 0.1):
            assert generalized_gap(form, fbar, [0.5], [-1.0], alpha) == pytest.approx(1.5)

    def test_v_equals_x(self, square_tape):
        form = abs_linearize(square_tape, [0.5])
        assert generalized_gap(form, 0.25, [0.5], [0.5], 0.3) == pytest.approx(0.0)

    def test_alpha_dependence_at_kink(self, abs_tape):
        # f = |x| at x=1, v=-1: alpha=1 crosses to |x|=1 again (gap 0);
        # alpha=0.5 lands on the kink (gap 2)
        form = abs_linearize(abs_tape, [1.0])
        assert generalized_gap(form, 1.0, [1.0], [-1.0], 1.0) == pytest.approx(0.0)
        assert generalized_gap(form, 1.0, [1.0], [-1.0], 0.5) == pytest.approx(2.0)

    def test_rejects_bad_alpha(self, abs_tape):
        form = abs_linearize(abs_tape, [1.0])
        with pytest.raises(ValueError):
            generalized_gap(form, 1.0, [1.0], [0.0], 0.0)


class TestStepRule:
    def test_sqrt_schedule(self):
        rule = StepRule.open_loop_sqrt()
        assert rule.alpha(0) == 1.0
        assert rule.alpha(3) == pytest.approx(0.5)

    def test_harmonic_schedule(self):
        rule = StepRule.open_loop_harmonic()
        assert rule.alpha(0) == 1.0
        assert rule.alpha(2) == pytest.approx(0.5)

    def test_fixed_horizon(self):
        rule = StepRule.fixed_horizon(16)
        assert rule.alpha(0) == pytest.approx(0.25)
        assert rule.alpha(7) == pytest.approx(0.25)

    def test_short_step_needs_gamma(self):
        with pytest.raises(ValueError):
            StepRule(kind="short")

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("inf"), float("nan")])
    def test_short_step_needs_finite_positive_gamma(self, gamma):
        with pytest.raises(ValueError, match="finite gamma > 0"):
            StepRule.short_step(gamma)

    def test_fixed_needs_horizon(self):
        with pytest.raises(ValueError):
            StepRule(kind="fixed")


class TestAsfwRun:
    def test_abs_converges_to_zero(self, abs_tape):
        res = asfw_run(abs_tape, cube(1, 5.0), [3.0], StepRule.open_loop_sqrt(),
                       max_iters=200)
        assert abs(res.x_final[0]) <= 1e-6
        assert res.f_final <= 1e-6

    def test_infeasible_start_rejected(self, abs_tape):
        with pytest.raises(ValueError):
            asfw_run(abs_tape, cube(1, 5.0), [7.0], StepRule.open_loop_sqrt())

    def test_negative_max_iters_rejected(self, abs_tape):
        with pytest.raises(ValueError, match="max_iters"):
            asfw_run(abs_tape, cube(1, 5.0), [3.0], StepRule.open_loop_sqrt(), max_iters=-1)
        res = asfw_run(abs_tape, cube(1, 5.0), [3.0], StepRule.open_loop_sqrt(), max_iters=0)
        assert res.trace.rows == [] and res.f_final == 3.0

    def test_gap_nonnegative_and_feasible(self, mifflin2_tape):
        res = asfw_run(mifflin2_tape, cube(2, 5.0), [-1.0, 1.0],
                       StepRule.open_loop_sqrt(), max_iters=60)
        assert np.all(res.trace.gaps() >= -1e-12)
        assert contains(cube(2, 5.0), res.x_final, 1e-9)

    def test_mifflin_descends_toward_optimum(self, mifflin2_tape):
        res = asfw_run(mifflin2_tape, cube(2, 5.0), [-1.0, 1.0],
                       StepRule.open_loop_sqrt(), max_iters=400)
        assert res.f_final <= -0.75  # optimum is -1; plain FW zigzags in slowly
        assert np.all(np.diff(running_min(res.trace.gaps())) <= 0)

    def test_monotone_variant(self, mifflin2_tape):
        res = asfw_run(mifflin2_tape, cube(2, 5.0), [-1.0, 1.0],
                       StepRule.open_loop_sqrt(monotone=True), max_iters=80)
        f = res.trace.fvals()
        assert np.all(np.diff(f) <= 1e-12)

    def test_short_step_monotone_descent(self, mifflin2_tape):
        res = asfw_run(mifflin2_tape, cube(2, 5.0), [-1.0, 1.0],
                       StepRule.short_step(gamma=4.0), max_iters=60)
        f = res.trace.fvals()
        assert np.all(np.diff(f) <= 1e-10)
        assert res.f_final <= f[0]

    def test_exact_gap_zero_on_flat(self):
        # f = |x| starting exactly at the minimizer
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.abs(x))
        res = asfw_run(tape, cube(1, 5.0), [0.0], StepRule.open_loop_sqrt())
        assert res.status == RunStatus.EXACT_GAP_ZERO
        assert len(res.trace.rows) == 1
        x = res.x_final
        assert local_optimality_test(affine_substitute(abs_linearize(tape, x), 1.0, -x), cube(1, 5.0), x)
        # a subproblem convex in its kinks is solved whole despite the limit
        res = asfw_run(tape, cube(1, 5.0), [0.0], StepRule.open_loop_sqrt(), partial_inner_limit=1)
        assert res.status == RunStatus.EXACT_GAP_ZERO
        assert res.trace.rows[0].inner_status == "local_min"

    def test_short_step_at_the_minimizer_takes_alpha_one(self):
        # the subproblem cannot decrease f = |x| at 0, so the short step is
        # alpha = 1 and the gap is exactly zero
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.abs(x))
        res = asfw_run(tape, cube(1, 5.0), [0.0], StepRule.short_step(gamma=1.0))
        assert res.status == RunStatus.EXACT_GAP_ZERO
        (row,) = res.trace.rows
        assert row.alpha == 1.0 and row.gap == 0.0

    def test_zero_step_is_no_certificate(self):
        # gamma = 1e308 overflows 2 gamma ||v - x||^2, so every step is 0
        # while the gap stays 33: the run must not stop as if at a minimizer
        inst = bench.chained_lq(4)
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.short_step(1e308), max_iters=5)
        assert res.status == RunStatus.MAX_ITERS
        assert {(r.alpha, r.gap) for r in res.trace.rows} == {(0.0, 33.0)}

    @pytest.mark.parametrize("inst", [
        bench.maxq(6, "C1"), bench.maxq(8, "C1"), bench.maxq(6, "C2"), bench.maxq(8, "C2"),
        bench.maxq(6, "C3"), bench.maxq(8, "C3"), bench.rosenbrock_nesterov2(6),
        bench.constrained_lasso(6, 9, variant="ordered"),
    ], ids=lambda inst: f"{inst.name}-n{inst.C.dim}")
    def test_gap_stops_are_first_order_minimal(self, inst):
        """A gap stop certifies that the model at x_final has no descent
        direction in C, which the kink enumeration confirms."""
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt())
        assert res.status in (RunStatus.EXACT_GAP_ZERO, RunStatus.GAP_TOL_REACHED)
        x = res.x_final
        assert local_optimality_test(affine_substitute(abs_linearize(inst.tape, x), 1.0, -x), inst.C, x)

    def test_cut_short_subproblem_gap_does_not_stop(self):
        # RN2 n=6 walking one polyhedron per subproblem: from the second row
        # on the cut-short walks report a zero gap, which certifies nothing
        inst = bench.rosenbrock_nesterov2(6)
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(),
                       max_iters=20, partial_inner_limit=1)
        assert res.status == RunStatus.MAX_ITERS
        assert len(res.trace.rows) == 20
        assert {r.inner_status for r in res.trace.rows} == {"inner_limit"}
        assert res.trace.rows[1].gap <= 0.0

    def test_limit_one_stalls_at_the_start_polyhedron_optimum(self):
        # RN2 n=6: a one-polyhedron walk returns the optimum of the closure
        # of x's own domain, so once x is that optimum every step is null;
        # two polyhedra per walk reach the minimum 0
        inst = bench.rosenbrock_nesterov2(6)
        rule = StepRule.open_loop_sqrt()
        res = asfw_run(inst.tape, inst.C, inst.x0, rule, max_iters=30, partial_inner_limit=1)
        assert res.status == RunStatus.MAX_ITERS
        np.testing.assert_allclose(res.trace.fvals()[1:], 0.484375, rtol=0.0, atol=1e-14)
        assert np.all(np.abs(res.trace.gaps()[1:]) <= 1e-14)
        res = asfw_run(inst.tape, inst.C, inst.x0, rule, partial_inner_limit=2)
        assert res.status == RunStatus.GAP_TOL_REACHED
        assert res.f_final <= 1e-12

    def test_subproblems_get_the_previous_vertex(self, monkeypatch):
        """Each subproblem after the first gets the previous one's vertex as
        its warm point, and its trace row records whether the first LP
        started there."""
        calls = spy(monkeypatch, asfw_mod, "aasm_minimize")
        inst = bench.maxq(8, "C3")
        rows = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt()).trace.rows
        assert len(calls) == len(rows) and calls[0].kwargs["warm_point"] is None
        for call, prev in zip(calls[1:], calls):
            assert call.kwargs["warm_point"] is prev.result.v_star
        flags = [row.warm_started for row in rows]
        assert flags == [c.result.warm_started for c in calls]
        assert not flags[0] and True in flags[1:] and False in flags[1:]

    def test_trace_sink_called(self, abs_tape):
        # alpha_0 = 1 jumps |x| straight to its minimizer, so the run stops
        # at the second row with an exactly zero gap
        seen = []
        res = asfw_run(abs_tape, cube(1, 5.0), [3.0], StepRule.open_loop_sqrt(),
                       max_iters=5, trace_sink=seen.append)
        assert [r.t for r in seen] == [r.t for r in res.trace.rows]
        assert seen[0].t == 0 and seen[0].alpha == 1.0
        assert res.status == RunStatus.EXACT_GAP_ZERO

    def test_smooth_quadratic_matches_classic_fw(self):
        # s = 0 collapses the subproblem to the classical LMO on the gradient
        from absfw.lp import LpProblem, solve

        tb = TapeBuilder(2)
        x1, x2 = tb.inputs()
        tape = tb.build(tb.square(x1) + tb.square(x2))
        C = cube(2, 1.0)
        rule = StepRule.open_loop_sqrt()
        res = asfw_run(tape, C, [1.0, 1.0], rule, max_iters=25, gap_tol=0.0)

        x = np.array([1.0, 1.0])
        for t, row in enumerate(res.trace.rows):
            grad = 2.0 * x
            lmo = solve(LpProblem(c=grad, P=C))
            gap_ref = float(-grad @ (lmo.x - x))
            assert row.gap == pytest.approx(gap_ref, abs=1e-10)
            if gap_ref <= 0.0:
                break
            x = (1 - row.alpha) * x + row.alpha * lmo.x
        np.testing.assert_allclose(res.x_final, x, atol=1e-10)


class TestRateHelpers:
    def test_running_min(self):
        np.testing.assert_array_equal(running_min([3.0, 1.0, 2.0, 0.5]), [3, 1, 1, 0.5])

    def test_loglog_slope_recovers_power(self):
        t = np.arange(1, 400)
        g = 7.0 / np.sqrt(t)
        # step-function resampling biases the fit by O(1/t_min); that is
        # far below the tolerances any rate check here uses
        assert loglog_slope(t, g, t_min=10) == pytest.approx(-0.5, abs=0.02)
        assert loglog_slope(t, 3.0 / t, t_min=10) == pytest.approx(-1.0, abs=0.03)

    def test_zero_values_give_minus_inf(self):
        t = np.arange(1, 50)
        g = np.linspace(1.0, 0.0, 49)
        assert loglog_slope(t, g, t_min=10) == -np.inf
