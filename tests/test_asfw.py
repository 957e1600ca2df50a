import numpy as np
import pytest

from absfw import asfw as asfw_mod
from absfw import bench
from absfw.aasm import local_optimality_test
from absfw.asfw import (
    SHORT_STEP,
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

    @pytest.mark.parametrize("rule", [
        StepRule.open_loop_sqrt(), StepRule.open_loop_harmonic(), StepRule.fixed_horizon(16),
        StepRule.short_step(4.0),
    ], ids=["sqrt", "harmonic", "fixed", "short"])
    @pytest.mark.parametrize("build, iters", [
        (bench.mifflin2, 60), (lambda: bench.chained_lq(20), 200),
    ], ids=["mifflin2", "chained_lq-n20"])
    def test_every_trace_gap_is_the_generalized_gap(self, monkeypatch, rule, build, iters):
        """Each row's gap is ``generalized_gap`` of the model at x_t, f(x_t),
        x_t and the subproblem's vertex, bit for bit, at the rule's step or
        at 1 for the short step."""
        forms = spy(monkeypatch, asfw_mod, "abs_linearize")
        inners = spy(monkeypatch, asfw_mod, "aasm_minimize")
        inst = build()
        rows = asfw_run(inst.tape, inst.C, inst.x0, rule, max_iters=iters).trace.rows
        assert len(rows) == len(forms) == len(inners) > 0
        for row, lin, inner in zip(rows, forms, inners):
            x = lin.args[1]
            scale = 1.0 if rule.kind == SHORT_STEP else rule.alpha(row.t)
            assert row.fval == evaluate(inst.tape, x).y
            assert row.gap == generalized_gap(lin.result, row.fval, x, inner.result.v_star, scale)


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


@pytest.mark.parametrize("call, match", [
    (lambda: StepRule(kind="bogus"), "unknown step rule 'bogus'"),
    (lambda: StepRule.short_step(1.0).alpha(0), "short-step alpha is computed from the subproblem"),
    (lambda: loglog_slope([1, 5, 20], [1.0, 0.5, 0.1], t_min=10), "need at least two trace points past t_min"),
], ids=["unknown-rule", "short-step-alpha", "slope-one-point"])
def test_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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

    def test_nan_gap_tol_rejected(self, abs_tape):
        # no gap passes a NaN tolerance, so the run could only stop at max_iters
        with pytest.raises(ValueError, match="gap_tol"):
            asfw_run(abs_tape, cube(1, 5.0), [3.0], StepRule.open_loop_sqrt(), gap_tol=float("nan"))
        res = asfw_run(abs_tape, cube(1, 5.0), [3.0], StepRule.open_loop_sqrt(), max_iters=3,
                       gap_tol=float("inf"))
        assert res.status.value == "gap_tol_reached" and len(res.trace.rows) == 1

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
        """Each subproblem gets the last two subproblems' vertices, newest
        first and a repeated one once, as its warm points, and its trace row
        records whether the first LP started at one of them."""
        calls = spy(monkeypatch, asfw_mod, "aasm_minimize")
        inst = bench.maxq(8, "C3")
        rows = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt()).trace.rows
        vertices = [call.result.v_star for call in calls]
        assert len(calls) == len(rows)
        repeats = 0
        for t, call in enumerate(calls):
            recent = vertices[max(t - 2, 0):t][::-1]
            if len(recent) == 2 and np.array_equal(*recent):
                recent, repeats = recent[:1], repeats + 1
            given = call.kwargs["warm_points"]
            assert len(given) == len(recent) and all(p is q for p, q in zip(given, recent))
        assert 0 < repeats < len(calls) - 2
        flags = [row.warm_started for row in rows]
        assert flags == [c.result.warm_started for c in calls]
        assert not flags[0] and True in flags[1:] and False in flags[1:]

    def test_lasso_first_lps_start_two_vertices_back(self, monkeypatch, lp_solves):
        """Open-loop steps make box LASSO's vertex alternate: v_t is v_(t-2)
        from iteration 4 on, apart from 10-12, while from iteration 3 on v_t
        and v_(t-1) differ in every coordinate.  Each first LP from iteration
        2 on starts at v_(t-2), and makes no pivot wherever the vertex
        repeats."""
        calls = spy(monkeypatch, asfw_mod, "aasm_minimize")
        inst = bench.constrained_lasso(50, 100, rho=1.0, seed=0, variant="box")
        asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=20)
        assert len(lp_solves) == len(calls) == 20  # one LP per subproblem
        assert all(np.all(calls[t].result.v_star != calls[t - 1].result.v_star) for t in range(3, 20))
        v = [call.result.v_star.tobytes() for call in calls]
        starts = [lp.kwargs["start"][:50].tobytes() for lp in lp_solves]
        assert all(starts[t] == v[t - 2] != v[t - 1] for t in range(2, 20))
        repeats = [t for t in range(2, 20) if v[t] == v[t - 2]]
        assert repeats == [4, 5, 6, 7, 8, 9, 13, 14, 15, 16, 17, 18, 19]
        assert all(lp_solves[t].result.simplex_iters == 0 for t in repeats)
        assert sum(lp.result.simplex_iters for lp in lp_solves) == 107

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
