"""Checks of the solver's outputs, computed apart from the program.

Each ``*_problems`` function returns a list of human-readable findings; an
empty list means the check passed.  Only numpy is used here, never the
solver's own evaluation, containment or LP code, so a fault in a layer
cannot hide itself.  ``highs_compare`` adds scipy's HiGHS as an LP oracle
when scipy imports.
"""
from __future__ import annotations

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def set_violation(P, x) -> float:
    """Largest violation of the rows and bounds of polyhedron ``P`` at ``x``."""
    x = np.asarray(x, dtype=float)
    parts = [0.0, float(np.max(P.lo - x, initial=0.0)), float(np.max(x - P.hi, initial=0.0))]
    if P.Aeq.shape[0]:
        parts.append(float(np.max(np.abs(P.Aeq @ x - P.beq))))
    if P.Ain.shape[0]:
        parts.append(float(np.max(P.Ain @ x - P.bin)))
    return max(parts)


def _row_scale(A, b, x) -> np.ndarray:
    return 1.0 + np.abs(b) + np.abs(A) @ np.abs(x)


def lp_primal_problems(lp, sol, tol: float) -> list[str]:
    """Row and bound residuals of an OPTIMAL solution, against ``tol``.

    Bounds are checked absolutely; rows relative to 1 + |b| + |A||x|.
    """
    P, x = lp.P, np.asarray(sol.x, dtype=float)
    out = []
    if x.shape != (P.dim,) or not np.all(np.isfinite(x)):
        return ["x is not a finite vector of the LP's dimension"]
    lo_ex = float(np.max(P.lo - x, initial=0.0))
    hi_ex = float(np.max(x - P.hi, initial=0.0))
    if max(lo_ex, hi_ex) > tol:
        j = int(np.argmax(np.maximum(P.lo - x, x - P.hi)))
        out.append(f"column bound broken by {max(lo_ex, hi_ex):.3g} at column {j}")
    if P.Aeq.shape[0]:
        r = np.abs(P.Aeq @ x - P.beq) / _row_scale(P.Aeq, P.beq, x)
        if r.max() > tol:
            out.append(f"equality row residual {r.max():.3g} at row {int(np.argmax(r))}")
    if P.Ain.shape[0]:
        r = (P.Ain @ x - P.bin) / _row_scale(P.Ain, P.bin, x)
        if r.max() > tol:
            out.append(f"inequality row broken by {r.max():.3g} at row {int(np.argmax(r))}")
    return out


def lp_certificate_problems(lp, sol, tol: float) -> list[str]:
    """Full optimality certificate of an OPTIMAL ``LpSolution``.

    Primal residuals, dual signs, stationarity
    c + Aeq' dual_eq + Ain' dual_in = dual_lo - dual_hi, complementary
    slackness, and the reported objective against c'x.
    """
    out = lp_primal_problems(lp, sol, tol)
    if out:
        return out
    P, c, x = lp.P, lp.c, np.asarray(sol.x, dtype=float)
    d_eq, d_in = np.asarray(sol.dual_eq), np.asarray(sol.dual_in)
    d_lo, d_hi = np.asarray(sol.dual_lo), np.asarray(sol.dual_hi)
    dual_scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
    for name, d in (("dual_in", d_in), ("dual_lo", d_lo), ("dual_hi", d_hi)):
        if d.size and float(np.min(d)) < -tol * dual_scale:
            out.append(f"{name} has wrong sign: {float(np.min(d)):.3g}")
    terms = [c, P.Aeq.T @ d_eq, P.Ain.T @ d_in, -d_lo, d_hi]
    resid = np.abs(sum(terms)) / (1.0 + sum(np.abs(t) for t in terms))
    if float(np.max(resid, initial=0.0)) > tol:
        out.append(f"stationarity residual {float(np.max(resid)):.3g}")
    slacks = [
        ("inequality", d_in, P.bin - P.Ain @ x, 1.0 + np.abs(P.bin)),
        ("lower bound", d_lo, x - P.lo, 1.0 + np.abs(x)),
        ("upper bound", d_hi, P.hi - x, 1.0 + np.abs(x)),
    ]
    for name, d, slack, size in slacks:
        finite = np.isfinite(slack)
        prod = np.abs(d[finite] * slack[finite]) / ((1.0 + np.abs(d[finite])) * size[finite])
        if np.any(d[~finite] != 0.0):
            out.append(f"{name} dual nonzero on an infinite bound")
        if prod.size and float(prod.max()) > tol:
            out.append(f"complementary slackness on {name}: {float(prod.max()):.3g}")
    obj = float(c @ x)
    if abs(sol.objective - obj) > tol * (1.0 + abs(obj)):
        out.append(f"objective {sol.objective!r} differs from c'x = {obj!r}")
    return out


def highs_compare(lp, sol):
    """Solve ``lp`` with scipy's HiGHS; returns (status, objective) or None
    when scipy does not import."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
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
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, f"scipy status {res.status}")
    return status, (float(res.fun) if res.status == 0 else None)


def oracle_problems(status: str, objective: float, oracle, tol: float = 1e-7) -> list[str]:
    """Compare an LP outcome with the oracle's (status, objective)."""
    o_status, o_obj = oracle
    if status != o_status:
        return [f"status {status} but HiGHS says {o_status}"]
    if status == OPTIMAL and abs(objective - o_obj) > tol * (1.0 + abs(o_obj)):
        return [f"objective {objective!r} but HiGHS finds {o_obj!r}"]
    return []


def run_problems(result, x0, C, f_closed, f_star: float, expect_status=None,
                 feas_tol: float = 1e-9, f_floor: float | None = None) -> list[str]:
    """Checks of one ``asfw_run`` result.

    ``f_closed`` is the objective in closed form (numpy); ``f_star`` the
    optimal value (known, or a reference from a separate solver);
    ``f_floor`` a value every iterate must stay at or above.
    """
    out = []
    rows = result.trace.rows
    if not rows:
        return ["empty trace"]
    f0 = f_closed(x0)
    fT = f_closed(result.x_final)

    def close(a, b):
        return abs(a - b) <= 1e-10 * (1.0 + abs(b))

    if not close(rows[0].fval, f0):
        out.append(f"trace f(x_0) = {rows[0].fval!r}, closed form {f0!r}")
    if not close(result.f_final, fT):
        out.append(f"f_final = {result.f_final!r}, closed form f(x_T) = {fT!r}")
    if result.status.value != "max_iters" and not close(rows[-1].fval, fT):
        out.append(f"last trace value {rows[-1].fval!r} is not f(x_T) = {fT!r}")
    viol = set_violation(C, result.x_final)
    if viol > feas_tol:
        out.append(f"x_T lies outside C by {viol:.3g}")
    if expect_status is not None and result.status != expect_status:
        out.append(f"run ended {result.status.value}, expected {expect_status.value}")
    for r in rows:
        slack = 1e-9 * (1.0 + abs(r.fval))
        if r.gap < 0.0:
            out.append(f"t={r.t}: negative gap {r.gap!r}")
        if r.fval - f_star > r.gap + slack:
            out.append(f"t={r.t}: f - f* = {r.fval - f_star!r} exceeds gap {r.gap!r}")
        if f_floor is not None and r.fval < f_floor - slack:
            out.append(f"t={r.t}: f = {r.fval!r} below reference optimum {f_floor!r}")
    return out


def lasso_objective(A, y, rho):
    def f(x):
        r = A @ x - y
        return float(0.5 * (r @ r) + rho * np.sum(np.abs(x)))
    return f


def fista_lasso(A, y, rho: float, lo, hi, iters: int = 20000, tol: float = 1e-14) -> float:
    """Optimal value of 0.5||Ax - y||^2 + rho||x||_1 over the box [lo, hi].

    Accelerated proximal gradient with adaptive restart; the prox of
    rho|.| plus the box indicator is soft-thresholding followed by clipping,
    exact because each coordinate's problem is convex and the box holds 0.
    """
    L = float(np.linalg.norm(A, 2) ** 2)
    f = lasso_objective(A, y, rho)
    x = np.clip(np.zeros(A.shape[1]), lo, hi)
    u, t = x.copy(), 1.0
    for _ in range(iters):
        g = u - (A.T @ (A @ u - y)) / L
        x_new = np.clip(np.sign(g) * np.maximum(np.abs(g) - rho / L, 0.0), lo, hi)
        if np.max(np.abs(x_new - x)) <= tol * (1.0 + np.max(np.abs(x))):
            x = x_new
            break
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if (u - x_new) @ (x_new - x) > 0:  # restart when momentum points uphill
            t_new, u = 1.0, x_new.copy()
        else:
            u = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    return f(x)
