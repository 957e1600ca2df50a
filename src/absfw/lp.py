"""Dense linear programming: minimize c'x over a Polyhedron.

Two-phase primal simplex on bounded variables: inequality rows get slacks,
equality rows get phase-1 artificials, box bounds are handled natively so
bases stay at row size.  Pricing is Dantzig's rule; after a stall of 50
degenerate pivots it switches to Bland's rule until a nondegenerate pivot is
made, which makes crafted cycling instances terminate.  The basis inverse is
kept explicitly and refactorized periodically.

Optimal solutions carry dual multipliers with the convention

    L(x) = c'x + dual_eq'(Aeq x - beq) + dual_in'(Ain x - bin)
         - pi_lo'(x - lo) + pi_hi'(x - hi),    dual_in, pi_lo, pi_hi >= 0

so stationarity reads c + Aeq' dual_eq + Ain' dual_in = pi_lo - pi_hi.
A previously returned basis can be passed back as a warm start; if it is
unusable the solve silently falls back to a cold start.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polyhedron import Polyhedron

DEFAULT_TOL = 1e-9
PIVOT_TOL = 1e-11
PIVOT_HARD_TOL = 1e-12
BLAND_STALL = 50
REFACTOR_EVERY = 100

_BASIC, _AT_LO, _AT_UP, _FREE = 0, 1, 2, 3


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpError(Exception):
    """Numerical breakdown: no acceptable pivot remained."""


@dataclass(frozen=True)
class LpProblem:
    c: np.ndarray
    P: Polyhedron

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).ravel())
        if self.c.shape[0] != self.P.dim:
            raise ValueError("objective length does not match polyhedron dimension")


@dataclass(frozen=True)
class LpBasis:
    """Warm-start data: basic column per row plus nonbasic-at-upper flags,
    indexed over structural-plus-slack columns."""

    cols: tuple[int, ...]
    at_upper: tuple[int, ...] = ()
    free_zero: tuple[int, ...] = ()


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective: float
    dual_eq: np.ndarray
    dual_in: np.ndarray
    dual_lo: np.ndarray
    dual_hi: np.ndarray
    basis: LpBasis | None
    simplex_iters: int


class _Simplex:
    """Bounded-variable primal simplex over A x = b with column bounds."""

    def __init__(self, A, b, lo, hi, tol):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.m, self.ncols = A.shape
        self.tol = tol
        self.iters = 0
        self.status = np.full(self.ncols, _AT_LO, dtype=np.int8)
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.Binv = np.zeros((self.m, self.m))
        self.xB = np.zeros(self.m)
        self._since_refactor = 0
        self._fresh = False  # Binv and xB are exactly what refactor() gives

    # --- state helpers -------------------------------------------------
    def nonbasic_value(self, j):
        st = self.status[j]
        if st == _AT_LO:
            return self.lo[j]
        if st == _AT_UP:
            return self.hi[j]
        return 0.0

    def default_statuses(self):
        """Starting status per column: at its lower bound if finite, else at
        its upper bound if finite, else free."""
        return np.where(np.isfinite(self.lo), _AT_LO,
                        np.where(np.isfinite(self.hi), _AT_UP, _FREE)).astype(np.int8)

    def nonbasic_values(self):
        """``nonbasic_value`` of every column."""
        return np.where(self.status == _AT_LO, self.lo,
                        np.where(self.status == _AT_UP, self.hi, 0.0))

    def x_full(self):
        x = self.nonbasic_values()
        x[self.basis] = self.xB
        return x

    def _xN_vector(self):
        x = self.nonbasic_values()
        x[self.basis] = 0.0
        return x

    def refactor(self):
        B = self.A[:, self.basis]
        self.Binv = np.linalg.inv(B)
        self.xB = self.Binv @ (self.b - self.A @ self._xN_vector())
        self._since_refactor = 0
        self._fresh = True

    def set_basis(self, cols, statuses):
        self.basis = np.asarray(cols, dtype=np.int64).copy()
        self.status = statuses
        self.status[self.basis] = _BASIC
        self.refactor()

    def primal_infeasibility(self):
        viol_lo = np.maximum(self.lo[self.basis] - self.xB, 0.0)
        viol_hi = np.maximum(self.xB - self.hi[self.basis], 0.0)
        return float(np.max(np.maximum(viol_lo, viol_hi), initial=0.0))

    # --- core loop -------------------------------------------------------
    def run(self, c, max_iters, allow_unbounded=True):
        """Minimize c'x from the current basic feasible point.

        Returns "optimal" or "unbounded"; raises LpError on breakdown.
        """
        m = self.m
        stall = 0
        rc_tol = self.tol * (1.0 + float(np.max(np.abs(c), initial=0.0)))
        for _ in range(max_iters):
            y = self.Binv.T @ c[self.basis]
            rc = c - self.A.T @ y
            eligible = np.zeros(self.ncols, dtype=bool)
            eligible |= (self.status == _AT_LO) & (rc < -rc_tol)
            eligible |= (self.status == _AT_UP) & (rc > rc_tol)
            eligible |= (self.status == _FREE) & (np.abs(rc) > rc_tol)
            eligible &= (self.hi - self.lo) > 0  # pinned columns never enter
            idxs = np.flatnonzero(eligible)
            if idxs.size == 0:
                return "optimal"
            if stall >= BLAND_STALL:
                order = idxs  # Bland: lowest index first
            else:
                order = idxs[np.argsort(-np.abs(rc[idxs]), kind="stable")]

            pivoted = False
            for j in order:
                step = self._pivot_on(j, rc[j])
                if step is None:
                    continue
                pivoted = True
                self.iters += 1
                stall = stall + 1 if step <= self.tol else 0
                break
            if not pivoted:
                raise LpError("no acceptable pivot (below hard tolerance) remained")
            if not allow_unbounded:
                continue
            if self._unbounded_flag:
                return "unbounded"
        raise LpError("simplex iteration limit exceeded")

    def _pivot_on(self, j, rcj):
        """Attempt to move variable j; returns step length or None if every
        candidate pivot element is numerically unusable."""
        self._unbounded_flag = False
        if self.status[j] == _AT_LO:
            direction = 1.0
        elif self.status[j] == _AT_UP:
            direction = -1.0
        else:  # free: move against the reduced cost
            direction = 1.0 if rcj < 0 else -1.0
        w = self.Binv @ self.A[:, j]
        dB = -direction * w

        # bound-to-bound flip of the entering variable
        t_flip = np.inf
        if np.isfinite(self.lo[j]) and np.isfinite(self.hi[j]):
            t_flip = self.hi[j] - self.lo[j]

        grow = dB > PIVOT_HARD_TOL
        shrink = dB < -PIVOT_HARD_TOL
        t_hi = np.where(grow, (self.hi[self.basis] - self.xB) / np.where(grow, dB, 1.0), np.inf)
        t_lo = np.where(shrink, (self.lo[self.basis] - self.xB) / np.where(shrink, dB, 1.0), np.inf)
        t_rows = np.minimum(np.where(np.isnan(t_hi), np.inf, t_hi),
                            np.where(np.isnan(t_lo), np.inf, t_lo))
        t_rows = np.maximum(t_rows, 0.0)
        t_min = min(float(np.min(t_rows, initial=np.inf)), t_flip)

        if not np.isfinite(t_min):
            self._unbounded_flag = True
            return 0.0

        if t_flip <= t_min + 1e-12:
            # no basis change; the entering variable swaps bounds
            self.xB += t_flip * dB
            self._fresh = False
            self.status[j] = _AT_UP if self.status[j] == _AT_LO else _AT_LO
            return t_flip

        ties = np.flatnonzero(t_rows <= t_min + 1e-12 * (1.0 + abs(t_min)))
        # prefer pivots above the soft tolerance; among those, Bland-style
        # lowest variable index for determinism
        for hard_pass in (False, True):
            limit = PIVOT_HARD_TOL if hard_pass else PIVOT_TOL
            usable = [r for r in ties if abs(w[r]) > limit]
            if usable:
                r = min(usable, key=lambda rr: self.basis[rr])
                self._execute_pivot(j, r, direction, float(t_rows[r]), w, dB)
                return float(t_rows[r])
        return None

    def _execute_pivot(self, j, r, direction, t, w, dB):
        leaving = self.basis[r]
        self.xB += t * dB
        leave_val = self.xB[r]
        self.status[leaving] = (
            _AT_UP if (np.isfinite(self.hi[leaving]) and
                       abs(leave_val - self.hi[leaving]) <= abs(leave_val - self.lo[leaving]))
            else _AT_LO
        )
        if not np.isfinite(self.lo[leaving]) and not np.isfinite(self.hi[leaving]):
            self.status[leaving] = _FREE
        self.basis[r] = j
        self.xB[r] = self.nonbasic_value(j) + direction * t
        self.status[j] = _BASIC
        piv = w[r]
        eta = w / piv
        eta[r] = 0.0
        self.Binv -= np.outer(eta, self.Binv[r])
        self.Binv[r] /= piv
        self._since_refactor += 1
        self._fresh = False
        if self._since_refactor >= REFACTOR_EVERY:
            self.refactor()


def _drive_out_artificials(sx: _Simplex, n_real: int):
    """Pivot basic artificials (at value ~0) onto real columns when possible."""
    for r in range(sx.m):
        jb = sx.basis[r]
        if jb < n_real:
            continue
        row = sx.Binv[r] @ sx.A[:, :n_real]
        cands = np.flatnonzero(np.abs(row) > PIVOT_TOL)
        cands = [j for j in cands if sx.status[j] != _BASIC]
        if not cands:
            continue  # redundant row; artificial stays basic at zero
        j = int(cands[0])
        w = sx.Binv @ sx.A[:, j]
        sx._execute_pivot(j, r, 1.0, 0.0, w, np.zeros(sx.m))


def solve(lp: LpProblem, tol: float = DEFAULT_TOL, basis_hint: LpBasis | None = None) -> LpSolution:
    """Solve the LP; deterministic for identical input.

    Infeasible/Unbounded are reported as statuses.  LpError signals numerical
    breakdown (no pivot above 1e-12 available).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    P = lp.P
    n = P.dim
    me, mi = P.Aeq.shape[0], P.Ain.shape[0]
    m = me + mi
    n_real = n + mi

    A = np.zeros((m, n_real))
    A[:me, :n] = P.Aeq
    A[me:, :n] = P.Ain
    A[me:, n:] = np.eye(mi)
    b = np.concatenate([P.beq, P.bin])
    lo = np.concatenate([P.lo, np.zeros(mi)])
    hi = np.concatenate([P.hi, np.full(mi, np.inf)])
    c = np.concatenate([lp.c, np.zeros(mi)])

    # presolve: substitute fixed columns, drop rows that become empty
    fixed = np.isfinite(lo) & np.isfinite(hi) & (hi - lo <= 1e-12)
    fixed_vals = np.where(fixed, lo, 0.0)
    keep_cols = np.flatnonzero(~fixed)
    b_adj = b - A[:, fixed] @ fixed_vals[fixed]
    A_red = A[:, keep_cols]
    row_norm = np.max(np.abs(A_red), axis=1, initial=0.0)
    empty = row_norm <= 1e-13
    rows_dropped = bool(np.any(empty))
    for r in np.flatnonzero(empty):
        resid = b_adj[r]
        if r < me:
            if abs(resid) > tol:
                return _infeasible(n, me, mi)
        elif resid < -tol:
            return _infeasible(n, me, mi)
    keep_rows = np.flatnonzero(~empty)

    if keep_cols.size == 0:
        x = fixed_vals[:n]
        rc = c.copy()
        return _finish_direct(lp, x, rc, n, me, mi, tol)

    sx = _Simplex(A_red[keep_rows], b_adj[keep_rows], lo[keep_cols], hi[keep_cols], tol)
    col_of = {int(full): red for red, full in enumerate(keep_cols)}
    c_red = c[keep_cols]
    max_iters = 2000 + 50 * (sx.m + sx.ncols)

    warm_ok = False
    if basis_hint is not None and not rows_dropped:
        cols = [col_of.get(j) for j in basis_hint.cols]
        if len(cols) == sx.m and all(j is not None for j in cols):
            statuses = sx.default_statuses()
            for j in basis_hint.at_upper:
                jr = col_of.get(j)
                if jr is not None and np.isfinite(sx.hi[jr]):
                    statuses[jr] = _AT_UP
            for j in basis_hint.free_zero:
                jr = col_of.get(j)
                if jr is not None:
                    statuses[jr] = _FREE
            try:
                sx.set_basis(np.array(cols), statuses)
                warm_ok = np.isfinite(sx.Binv).all() and sx.primal_infeasibility() <= 1e-7
            except np.linalg.LinAlgError:
                warm_ok = False

    if not warm_ok:
        status = _phase1(sx, max_iters, tol)
        if status is not None:
            return _infeasible(n, me, mi)

    c_work = np.zeros(sx.ncols)
    c_work[:c_red.shape[0]] = c_red
    run_status = sx.run(c_work, max_iters)
    if run_status == "unbounded":
        return LpSolution(
            status=LpStatus.UNBOUNDED, x=np.full(n, np.nan), objective=-np.inf,
            dual_eq=np.zeros(me), dual_in=np.zeros(mi),
            dual_lo=np.zeros(n), dual_hi=np.zeros(n),
            basis=None, simplex_iters=sx.iters,
        )

    if not sx._fresh:
        sx.refactor()  # fresh inverse for accurate primal/dual extraction
    n_kept = len(keep_cols)
    x = fixed_vals.copy()
    x[keep_cols] = sx.x_full()[:n_kept]
    y_red = sx.Binv.T @ c_work[sx.basis]
    y = np.zeros(m)
    y[keep_rows] = y_red
    rc = c - A.T @ y

    basis_out = None
    if not rows_dropped and np.all(sx.basis < n_kept):
        cols_full = tuple(int(keep_cols[j]) for j in sx.basis)
        at_upper = tuple(int(keep_cols[j]) for j in np.flatnonzero(sx.status[:n_kept] == _AT_UP))
        free_zero = tuple(int(keep_cols[j]) for j in np.flatnonzero(sx.status[:n_kept] == _FREE))
        basis_out = LpBasis(cols=cols_full, at_upper=at_upper, free_zero=free_zero)

    return _build_solution(lp, x, y, rc, n, me, mi, basis_out, sx.iters)


def _phase1(sx: _Simplex, max_iters, tol):
    """Install artificials, minimize their sum, drive them out; returns
    LpStatus.INFEASIBLE sentinel (non-None) when infeasibility remains."""
    m, n_real = sx.m, sx.ncols
    sx.status = sx.default_statuses()
    resid = sx.b - sx.A @ sx.nonbasic_values()
    art_sign = np.where(resid >= 0, 1.0, -1.0)
    A_ext = np.hstack([sx.A, np.diag(art_sign)])
    sx.A = A_ext
    sx.lo = np.concatenate([sx.lo, np.zeros(m)])
    sx.hi = np.concatenate([sx.hi, np.full(m, np.inf)])
    sx.status = np.concatenate([sx.status, np.full(m, _AT_LO, dtype=np.int8)])
    sx.ncols += m
    sx.basis = np.arange(n_real, n_real + m, dtype=np.int64)
    sx.Binv = np.diag(art_sign)  # inverse of the artificial basis
    sx.xB = np.abs(resid)
    sx._fresh = False

    c1 = np.concatenate([np.zeros(n_real), np.ones(m)])
    sx.run(c1, max_iters, allow_unbounded=False)
    if float(c1[sx.basis] @ sx.xB) > tol * (1.0 + float(np.max(np.abs(sx.b), initial=0.0))):
        return LpStatus.INFEASIBLE
    _drive_out_artificials(sx, n_real)
    # pin artificials so phase 2 cannot reuse them
    sx.lo[n_real:] = 0.0
    sx.hi[n_real:] = 0.0
    for j in range(n_real, sx.ncols):
        if sx.status[j] != _BASIC:
            sx.status[j] = _AT_LO
    return None


def _infeasible(n, me, mi):
    return LpSolution(
        status=LpStatus.INFEASIBLE, x=np.full(n, np.nan), objective=np.inf,
        dual_eq=np.zeros(me), dual_in=np.zeros(mi),
        dual_lo=np.zeros(n), dual_hi=np.zeros(n),
        basis=None, simplex_iters=0,
    )


def _finish_direct(lp, x, rc, n, me, mi, tol):
    """All columns fixed by presolve: the point itself is the solution."""
    P = lp.P
    if not np.all(np.isfinite(x)):
        return _infeasible(n, me, mi)
    return _build_solution(lp, np.concatenate([x, P.bin - P.Ain @ x]) if mi else x.copy(),
                           np.zeros(me + mi), rc, n, me, mi, None, 0)


def _build_solution(lp, x_full, y, rc, n, me, mi, basis_out, iters):
    x = np.asarray(x_full)[:n].copy()
    dual_eq = -y[:me]
    dual_in = -y[me:me + mi]
    rc_x = rc[:n]
    dual_lo = np.where(rc_x > 0, rc_x, 0.0)
    dual_hi = np.where(rc_x < 0, -rc_x, 0.0)
    # bound duals only make sense where the bound is active
    P = lp.P
    tol_act = 1e-7 * (1.0 + np.abs(x))
    dual_lo = np.where(np.isfinite(P.lo) & (np.abs(x - P.lo) <= tol_act), dual_lo, 0.0)
    dual_hi = np.where(np.isfinite(P.hi) & (np.abs(x - P.hi) <= tol_act), dual_hi, 0.0)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),
        dual_eq=dual_eq,
        dual_in=dual_in,
        dual_lo=dual_lo,
        dual_hi=dual_hi,
        basis=basis_out,
        simplex_iters=iters,
    )


def dump_lp(lp: LpProblem) -> str:
    """Debug text dump: objective row, then equality and inequality rows."""
    lines = ["min " + " ".join(repr(float(v)) for v in lp.c)]
    for row, rhs in zip(lp.P.Aeq, lp.P.beq):
        lines.append(" ".join(repr(float(v)) for v in row) + f" = {float(rhs)!r}")
    for row, rhs in zip(lp.P.Ain, lp.P.bin):
        lines.append(" ".join(repr(float(v)) for v in row) + f" <= {float(rhs)!r}")
    lines.append("lo " + " ".join(repr(float(v)) for v in lp.P.lo))
    lines.append("hi " + " ".join(repr(float(v)) for v in lp.P.hi))
    return "\n".join(lines) + "\n"
