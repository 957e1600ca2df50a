"""Self-tests of the benchmark's checks: each accepts a correct result and
rejects a corrupted one.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from absfw import bench, lp  # noqa: E402
from absfw.asfw import RunStatus, RunTrace, StepRule, asfw_run  # noqa: E402
from absfw.polyhedron import Polyhedron  # noqa: E402

import checks  # noqa: E402
from instrument import Recorder, self_times  # noqa: E402
from workloads import _chained_lq_ref  # noqa: E402


@pytest.fixture(scope="module")
def maxq_run():
    inst = bench.maxq(4, "C2")
    res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=100)
    return inst, res


def _maxq_problems(inst, res):
    return checks.run_problems(res, inst.x0, inst.C, lambda x: float(np.max(x * x)), 0.0,
                               RunStatus.GAP_TOL_REACHED)


def _with_row(res, t, **changes):
    rows = list(res.trace.rows)
    rows[t] = dataclasses.replace(rows[t], **changes)
    return dataclasses.replace(res, trace=RunTrace(rows=rows))


def test_correct_run_passes(maxq_run):
    inst, res = maxq_run
    assert res.status == RunStatus.GAP_TOL_REACHED
    assert _maxq_problems(inst, res) == []


def test_shifted_f_final_rejected(maxq_run):
    inst, res = maxq_run
    bad = dataclasses.replace(res, f_final=res.f_final + 1e-6)
    assert any("f_final" in p for p in _maxq_problems(inst, bad))


def test_x_final_outside_C_rejected(maxq_run):
    inst, res = maxq_run
    x = res.x_final.copy()
    x[0] = inst.C.lo[0] - 1e-6
    bad = dataclasses.replace(res, x_final=x, f_final=float(np.max(x * x)))
    assert any("outside C" in p for p in _maxq_problems(inst, bad))


def test_negative_gap_rejected(maxq_run):
    inst, res = maxq_run
    bad = _with_row(res, 3, gap=-1e-12)
    assert any("negative gap" in p for p in _maxq_problems(inst, bad))


def test_gap_below_suboptimality_rejected(maxq_run):
    inst, res = maxq_run
    bad = _with_row(res, 0, gap=0.5 * res.trace.rows[0].fval)
    assert any("exceeds gap" in p for p in _maxq_problems(inst, bad))


def test_wrong_status_rejected(maxq_run):
    inst, res = maxq_run
    bad = dataclasses.replace(res, status=RunStatus.MAX_ITERS)
    assert any("expected" in p for p in _maxq_problems(inst, bad))


def test_chained_lq_closed_form_matches_tape():
    inst = bench.chained_lq(6)
    ref = _chained_lq_ref(inst)
    rng = np.random.default_rng(3)
    from absfw.tape import evaluate
    for _ in range(5):
        x = rng.uniform(-5, 5, 6)
        assert abs(ref.f_closed(x) - evaluate(inst.tape, x).y) <= 1e-12 * (1 + abs(ref.f_closed(x)))


@pytest.fixture(scope="module")
def small_lp():
    P = Polyhedron(
        Aeq=np.array([[1.0, 1.0, 1.0]]), beq=np.array([1.0]),
        Ain=np.array([[1.0, -1.0, 0.0]]), bin=np.array([0.25]),
        lo=np.array([0.0, 0.0, -1.0]), hi=np.array([1.0, 2.0, 0.5]),
    )
    problem = lp.LpProblem(c=np.array([-1.0, 0.5, 0.2]), P=P)
    return problem, lp.solve(problem)


def test_optimal_lp_certificate_passes(small_lp):
    problem, sol = small_lp
    assert sol.status == lp.LpStatus.OPTIMAL
    assert checks.lp_certificate_problems(problem, sol, 1e-9) == []


def test_lp_bound_broken_by_1e_5_rejected(small_lp):
    problem, sol = small_lp
    x = sol.x.copy()
    j = int(np.argmin(np.minimum(x - problem.P.lo, problem.P.hi - x)))  # an active bound
    x[j] += 1e-5 if x[j] >= problem.P.hi[j] else -1e-5
    bad = dataclasses.replace(sol, x=x, objective=float(problem.c @ x))
    assert any("column bound" in p for p in checks.lp_primal_problems(problem, bad, 1e-9))
    assert checks.lp_certificate_problems(problem, bad, 1e-9)


def test_lp_wrong_dual_rejected(small_lp):
    problem, sol = small_lp
    bad = dataclasses.replace(sol, dual_eq=sol.dual_eq + 1e-3)
    assert any("stationarity" in p for p in checks.lp_certificate_problems(problem, bad, 1e-9))


def test_lp_negative_bound_dual_rejected(small_lp):
    problem, sol = small_lp
    d_lo = sol.dual_lo.copy()
    d_lo[0] = -1e-3
    bad = dataclasses.replace(sol, dual_lo=d_lo, dual_hi=sol.dual_hi)
    assert any("wrong sign" in p for p in checks.lp_certificate_problems(problem, bad, 1e-9))


def test_oracle_mismatch_rejected():
    assert checks.oracle_problems("optimal", 1.0, ("optimal", 1.0)) == []
    assert checks.oracle_problems("optimal", 1.0, ("infeasible", None))
    assert checks.oracle_problems("optimal", 1.0, ("optimal", 1.001))


def test_fista_reference_is_optimal():
    rng = np.random.default_rng(0)
    A, y = rng.standard_normal((12, 5)), rng.standard_normal(12)
    lo, hi = -0.3 * np.ones(5), 0.3 * np.ones(5)
    fstar = checks.fista_lasso(A, y, 0.7, lo, hi)
    f = checks.lasso_objective(A, y, 0.7)
    samples = rng.uniform(lo, hi, size=(2000, 5))
    assert fstar <= min(f(x) for x in samples) + 1e-12


def test_spans_self_times_add_up_and_failures_counted():
    inst = bench.maxq(4, "C2")
    rec = Recorder(inst.C, 1e-9, trace=True)
    res, _ = rec.run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=5)
    name, start, end, parent = rec.spans[0]
    assert (name, parent) == ("asfw_run", -1)
    assert abs(sum(self_times(rec.spans)) - (end - start)) <= 1e-9
    assert {s[0] for s in rec.spans} >= {"evaluate", "abs_linearize", "affine_substitute",
                                         "delta_eval", "aasm_minimize", "lp.solve"}
    assert len(rec.iter_failed) == len(res.trace.rows) and not any(rec.iter_failed)
    assert len(rec.lps) == sum(r.lp_calls for r in res.trace.rows)


def test_lp_fault_marks_operation_failed(monkeypatch):
    inst = bench.maxq(4, "C2")
    real_solve = lp.solve

    def faulty(problem, *args, **kwargs):
        sol = real_solve(problem, *args, **kwargs)
        if sol.status != lp.LpStatus.OPTIMAL:
            return sol
        x = sol.x.copy()
        j = len(x) - 1  # a switching column, so v_t itself stays in C
        x[j] = problem.P.lo[j] - 1e-5 if np.isfinite(problem.P.lo[j]) else problem.P.hi[j] + 1e-5
        return dataclasses.replace(sol, x=x)

    monkeypatch.setattr(lp, "solve", faulty)
    rec = Recorder(inst.C, 1e-9)
    res, _ = rec.run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=3)
    assert rec.iter_failed == [True] * len(res.trace.rows)
