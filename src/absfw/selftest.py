"""Property suites: linearization accuracy, LP duality, solver-vs-oracle.

Each suite returns a CheckResult; ``run_all`` aggregates them.  The suites
are deterministic for a fixed seed, cheap enough to run routinely, and are
what the command-line ``selftest`` executes.  ``tamper`` hooks let the test
code corrupt intermediate data to prove the checks actually bite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .aasm import AasmStatus, aasm_minimize, brute_force_pl_min, local_optimality_test
from .asfw import StepRule, asfw_run
from .lp import LpProblem, LpStatus
from .plmodel import eval_pl, signature
from .polyhedron import cube
from .randgen import (
    midpoint_convex,
    random_lp,
    random_pl_form,
    random_smooth_quadratic,
    random_tape,
)
from .tape import abs_linearize, evaluate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def linearization_decay_suite(seed: int = 7, cases: int = 100, tamper=None) -> CheckResult:
    """Model error must decay quadratically: e(h/2) <= 0.3 e(h) + 1e-12."""
    rng = np.random.default_rng(seed)
    h = 1e-3
    checked = failed = 0
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        tape = random_tape(rng, n, n_ops=int(rng.integers(8, 18)))
        xbar = rng.uniform(-1, 1, size=n)
        form = abs_linearize(tape, xbar)
        if tamper is not None:
            form = tamper(form)
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)

        def err(step):
            model, _ = eval_pl(form, step * d)
            return abs(evaluate(tape, xbar + step * d).y - model)

        e_h, e_half = err(h), err(h / 2)
        if e_h <= 1e-10:
            continue
        checked += 1
        ratio = (e_half - 1e-12) / e_h
        worst = max(worst, ratio)
        if e_half > 0.3 * e_h + 1e-12:
            failed += 1
    ok = failed == 0 and checked >= cases // 3
    return CheckResult(
        "linearization-quadratic-decay", ok,
        f"{checked} informative cases, {failed} violations, worst ratio {worst:.3f}",
    )


def directional_derivative_suite(seed: int = 11, cases: int = 100) -> CheckResult:
    """Model increment equals the true one-sided difference for small steps
    that do not cross a kink (detected by a signature flip)."""
    rng = np.random.default_rng(seed)
    checked = failed = 0
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        tape = random_tape(rng, n, n_ops=int(rng.integers(8, 18)))
        xbar = rng.uniform(-1, 1, size=n)
        form = abs_linearize(tape, xbar)
        d = rng.normal(size=n)
        d *= 1e-5 / np.linalg.norm(d)
        sig0 = signature(form, np.zeros(n))
        sig1 = signature(form, d)
        crossed = np.any((sig0 != 0) & (sig1 != 0) & (sig0 != sig1))
        if crossed:
            continue
        checked += 1
        fbar = evaluate(tape, xbar).y
        true_inc = evaluate(tape, xbar + d).y - fbar
        model_inc = eval_pl(form, d)[0] - fbar
        err = abs(model_inc - true_inc) / (1.0 + abs(true_inc))
        worst = max(worst, err)
        if err > 1e-6:
            failed += 1
    ok = failed == 0 and checked >= cases // 2
    return CheckResult(
        "directional-derivative-match", ok,
        f"{checked} kink-free cases, {failed} violations, worst {worst:.2e}",
    )


def smooth_collapse_suite(seed: int = 23, cases: int = 20, iters: int = 25) -> CheckResult:
    """On smooth quadratics the loop must reproduce classical Frank-Wolfe
    (analytic-gradient LMO) iterate for iterate."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failed = 0
    rule = StepRule.open_loop_sqrt()
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        tape, Q, q = random_smooth_quadratic(rng, n)
        C = cube(n, 1.0)
        x0 = rng.uniform(-0.9, 0.9, size=n)
        res = asfw_run(tape, C, x0, rule, max_iters=iters, gap_tol=0.0)

        x = x0.copy()
        for row in res.trace.rows:
            grad = Q @ x + q
            lmo = np.where(grad > 0, C.lo, C.hi)  # a box vertex, not the solver's simplex
            gap_ref = float(-grad @ (lmo - x))
            worst = max(worst, abs(row.gap - gap_ref))
            if abs(row.gap - gap_ref) > 1e-10:
                failed += 1
                break
            if gap_ref <= 0.0:
                break
            x = (1 - rule.alpha(row.t)) * x + rule.alpha(row.t) * lmo
        if np.max(np.abs(res.x_final - x)) > 1e-10:
            failed += 1
    return CheckResult(
        "smooth-classical-collapse", failed == 0,
        f"{cases} quadratics, {failed} mismatches, worst gap error {worst:.2e}",
    )


def lp_duality_suite(seed: int = 5, cases: int = 200, tamper=None) -> CheckResult:
    """Strong duality and complementary slackness certificates on random LPs."""
    rng = np.random.default_rng(seed)
    failed = 0
    worst = 0.0
    for k in range(cases):
        c, P, _ = random_lp(rng, n=3 + k % 6, m_eq=k % 3, m_in=1 + k % 5)
        sol = lpmod.solve(LpProblem(c=c, P=P))
        if sol.status != LpStatus.OPTIMAL:
            failed += 1
            continue
        if tamper is not None:
            sol = tamper(sol)
        tol = 1e-7
        station = c + P.Aeq.T @ sol.dual_eq + P.Ain.T @ sol.dual_in - sol.dual_lo + sol.dual_hi
        viol = float(np.max(np.abs(station), initial=0.0))
        if P.Ain.shape[0]:
            viol = max(viol, float(np.max(np.abs(sol.dual_in * (P.bin - P.Ain @ sol.x)))))
            viol = max(viol, float(-np.min(sol.dual_in, initial=0.0)))
        dual_obj = (
            -sol.dual_eq @ P.beq - sol.dual_in @ P.bin
            + sol.dual_lo @ P.lo - sol.dual_hi @ P.hi
        )
        viol = max(viol, abs(dual_obj - sol.objective) / (1 + abs(sol.objective)))
        worst = max(worst, viol)
        if viol > tol * (1 + float(np.max(np.abs(c)))):
            failed += 1
    return CheckResult(
        "lp-strong-duality", failed == 0,
        f"{cases} LPs, {failed} violations, worst {worst:.2e}",
    )


def aasm_oracle_suite(seed: int = 13, convex_cases: int = 50, nonconvex_cases: int = 20) -> CheckResult:
    """Signature descent equals brute-force enumeration on convex instances;
    on nonconvex ones it must stay above the oracle and be first-order
    minimal by ``local_optimality_test``."""
    rng = np.random.default_rng(seed)
    failed = certified = kinks = 0
    worst = 0.0
    for k in range(convex_cases):
        n = int(rng.integers(2, 7))
        s = int(rng.integers(2, 9))
        form = random_pl_form(rng, n=n, s=s, convex=True)
        C = cube(n, float(rng.uniform(2, 5)))
        if not midpoint_convex(form, C.lo, C.hi, rng, samples=60):
            continue
        start = rng.uniform(0.5 * C.lo, 0.5 * C.hi)
        res = aasm_minimize(form, C, start)
        _, psi_o = brute_force_pl_min(form, C)
        err = abs(res.psi_star - psi_o) / (1 + abs(psi_o))
        worst = max(worst, err)
        if err > 1e-8:
            failed += 1
    for k in range(nonconvex_cases):
        n = int(rng.integers(2, 5))
        s = int(rng.integers(2, 7))
        form = random_pl_form(rng, n=n, s=s, convex=False)
        C = cube(n, 3.0)
        start = rng.uniform(-1.5, 1.5, size=n)
        res = aasm_minimize(form, C, start)
        _, psi_o = brute_force_pl_min(form, C)
        if res.psi_star < psi_o - 1e-8 * (1 + abs(psi_o)) or not local_optimality_test(form, C, res.v_star):
            failed += 1
        elif res.status == AasmStatus.LOCAL_MIN:
            certified += 1
            kinks = max(kinks, int(np.count_nonzero(signature(form, res.v_star) == 0)))
    return CheckResult(
        "aasm-vs-brute-force", failed == 0,
        f"{convex_cases} convex + {nonconvex_cases} nonconvex instances, "
        f"{failed} failures, worst convex gap {worst:.2e}, "
        f"{certified} nonconvex LOCAL_MIN certified first-order minimal, up to {kinks} kinks at one",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        linearization_decay_suite(seed + 7),
        directional_derivative_suite(seed + 11),
        smooth_collapse_suite(seed + 23),
        lp_duality_suite(seed + 5),
        aasm_oracle_suite(seed + 13),
    ]
