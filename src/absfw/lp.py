"""Dense linear programming: minimize c'x over a Polyhedron.

Two-phase primal simplex on bounded variables: inequality rows get slacks,
equality rows get phase-1 artificials, box bounds are handled natively so
bases stay at row size.  Every nonbasic column carries an explicit value,
which may also lie strictly inside its bounds (see ``_Simplex``).  Fixed
columns (bounds within ``FIXED_TOL``) stay in the system at their lower bound
and never enter the basis (a crash basis may hold some), and no row is
dropped, so every row keeps its dual and basis indices are the caller's
column indices.  A column may enter when its reduced cost passes zero by
``entering_tol(c)``, which reads the cost alone.  Pricing is Dantzig's rule;
after a stall of 50 degenerate pivots it switches to Bland's rule until a
nondegenerate pivot is made, which makes crafted cycling instances
terminate.  The basis inverse is kept explicitly in a ``_Factor``, updated
per pivot, refactorized periodically and at the end of a solve unless its
warm start made no step.  On large bases an update rewrites only the rows
where its eta vector is nonzero; every basis whose columns are +-e_i for
distinct i (phase 1's, or a crash basis of M = L = 0) is transposed.

Split variables z = z+ - z-, given as ``LpProblem.twins`` (two columns that
are exact negatives, both with lower bound 0), get a piecewise-linear ratio
test (Fourer, Math. Prog. 1985): when the row that blocks a step holds one
half at 0 and the other half sits nonbasic at 0, the other half takes the
row and the same step goes on, as long as the objective still falls.  A
kink is then crossed in one step, not in one pivot out and one back in.
With no twins the simplex is the plain bounded-variable one.

Optimal solutions carry dual multipliers with the convention

    L(x) = c'x + dual_eq'(Aeq x - beq) + dual_in'(Ain x - bin)
         - pi_lo'(x - lo) + pi_hi'(x - hi),    dual_in, pi_lo, pi_hi >= 0

so stationarity reads c + Aeq' dual_eq + Ain' dual_in = pi_lo - pi_hi.
A warm start is a basis together with its point, which places the nonbasic
columns: from a nonsingular basis feasible to ``WARM_TOL`` there, only
phase 2 runs; any other hint silently falls back to the cold start.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polyhedron import Polyhedron

DEFAULT_TOL = 1e-9
FIXED_TOL = 1e-12
PIVOT_TOL = 1e-11
PIVOT_HARD_TOL = 1e-12
WARM_TOL = 1e-7  # primal infeasibility a warm or crash start may carry
TIE_TOL = 1e-12  # ratio-test steps this close count as ties (bound flip first)
ACTIVE_TOL = 1e-7  # relative distance at which a bound is active for its dual
BLAND_STALL = 50
REFACTOR_EVERY = 100

class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpError(Exception):
    """Numerical breakdown: the iteration limit was hit, phase 1 found a ray,
    or an optimal point is not finite or left a column bound by more than
    DEFAULT_TOL."""


@dataclass(frozen=True)
class LpProblem:
    """Minimize c'x over P.  ``twins`` lists disjoint pairs (k, k') of
    columns that are exact negatives of each other in every row, both with
    lower bound 0: the two halves of a split variable x_k - x_k'.  The
    simplex may then let one step cross from one half to the other."""

    c: np.ndarray
    P: Polyhedron
    twins: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).ravel())
        if self.c.shape[0] != self.P.dim:
            raise ValueError("objective length does not match polyhedron dimension")
        if not np.isfinite(self.c).all():
            raise ValueError("objective must be finite")
        pairs = np.asarray(self.twins, dtype=np.int64)
        if pairs.size and pairs.shape[1:] != (2,):
            raise ValueError("twins must be pairs of column indices")
        pairs = pairs.reshape(-1, 2)
        object.__setattr__(self, "twins", tuple(map(tuple, pairs.tolist())))
        if not pairs.size:
            return
        if pairs.min() < 0 or pairs.max() >= self.P.dim or np.bincount(pairs.ravel()).max() > 1:
            raise ValueError("twins must be disjoint pairs of distinct column indices")
        if np.any(self.P.lo[pairs] != 0.0):
            raise ValueError("twin columns must have lower bound 0")
        k, k2 = pairs.T
        if not (np.array_equal(self.P.Aeq[:, k], -self.P.Aeq[:, k2])
                and np.array_equal(self.P.Ain[:, k], -self.P.Ain[:, k2])):
            raise ValueError("twin columns must be exact negatives of each other")


@dataclass(frozen=True)
class LpSolution:
    """``basis`` is the basic column per row over the structural and slack
    columns; a row made redundant by fixed columns may hold the phase-1
    artificial, an index past them, or after a crash start a fixed column."""

    status: LpStatus
    x: np.ndarray
    objective: float
    dual_eq: np.ndarray
    dual_in: np.ndarray
    dual_lo: np.ndarray
    dual_hi: np.ndarray
    basis: tuple[int, ...] | None
    simplex_iters: int  # the simplex steps and the pivots of _swap_out, phase 1 included


def entering_tol(c) -> float:
    """The margin by which a reduced cost must pass zero before its column
    may enter: DEFAULT_TOL scaled by the largest |c_j|.  It reads the cost
    alone, so LPs that differ only in their bounds share it."""
    return DEFAULT_TOL * (1.0 + float(np.max(np.abs(c), initial=0.0)))


def _bound_point(lo, hi):
    """Each column at its finite lower bound, else its finite upper bound, else 0."""
    return np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))


class _Factor:
    """The explicit inverse of the basis matrix B.  Each method gives the
    numbers of the dense formula it stands for.  Every signed permutation is
    transposed; the touched-row update starts at the size below, where it
    was measured to pay.  The dense update also turns some -0.0 of the rows
    ``replace`` skips into +0.0; a zero's sign changes a sum only when all
    its terms are zero, and BLAS gives +0.0 there, so no product changes."""

    SPARSE_ROWS = 60  # the touched-row update beats the dense one from here

    def __init__(self, m):
        self.inv = None  # until the first refactor
        self.sparse = m >= self.SPARSE_ROWS
        self.changes = 0  # basis changes so far

    def solve(self, a):
        return self.inv @ a

    def solve_T(self, c_B):
        return self.inv.T @ c_B

    def row(self, r):
        return self.inv[r]

    def negate(self, r):
        """Column r of B changes sign: a twin takes its row."""
        self.inv[r] = -self.inv[r]
        self.changes += 1

    def replace(self, r, w):
        """Column r of B becomes a, where w = B^-1 a."""
        piv = w[r]
        eta = w / piv
        eta[r] = 0.0
        if self.sparse:
            rows = np.flatnonzero(eta)
            self.inv[rows] -= eta[rows, None] * self.inv[r]
        else:
            self.inv -= eta[:, None] * self.inv[r]
        self.inv[r] /= piv
        self.changes += 1

    def refactor(self, B):
        """Invert B afresh; a signed permutation's B^-1 is B^T, with row i's
        zeros signed as column i's entry, as LAPACK's inverse signs them."""
        m = B.shape[0]
        if (np.count_nonzero(B) == m and (np.abs(B).sum(axis=0) == 1.0).all()
                and (np.abs(B).sum(axis=1) == 1.0).all()):
            self.inv = np.ascontiguousarray(B.sum(axis=0)[:, None] * np.abs(B.T))
        else:
            self.inv = np.linalg.inv(B)


class _Simplex:
    """Bounded-variable primal simplex over A x = b with column bounds.

    ``xN`` holds the value of every nonbasic column and 0 at basic ones.  A
    nonbasic value need not sit at a bound: a column may move up while
    ``xN < hi`` and down while ``xN > lo``, so one strictly inside its
    bounds (superbasic) is priced in both directions.  ``twin[k]`` is the
    column that is the exact negative of column k (see ``LpProblem.twins``),
    or -1; by default every entry is -1.  The basis inverse is ``factor``,
    read and changed only through its methods; after a bound flip that
    crossed no kink, B is unchanged and the next step reuses y and rc.
    """

    def __init__(self, A, b, lo, hi, twin=None):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.m = A.shape[0]
        self.twin = np.full(A.shape[1], -1, dtype=np.int64) if twin is None else twin
        self.iters = 0
        self.xN = _bound_point(lo, hi)
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.factor = _Factor(self.m)
        self.xB = np.zeros(self.m)
        self._since_refactor = 0

    # --- state helpers -------------------------------------------------
    def x_full(self):
        x = self.xN.copy()
        x[self.basis] = self.xB
        return x

    def refactor(self):
        self.factor.refactor(self.A[:, self.basis])
        self.xB = self.factor.solve(self.b - self.A @ self.xN)
        self._since_refactor = 0

    def set_basis(self, cols, xN):
        self.basis = np.asarray(cols, dtype=np.int64).copy()
        self.xN = xN
        self.xN[self.basis] = 0.0
        self.refactor()

    def primal_infeasibility(self):
        viol_lo = np.maximum(self.lo[self.basis] - self.xB, 0.0)
        viol_hi = np.maximum(self.xB - self.hi[self.basis], 0.0)
        return float(np.max(np.maximum(viol_lo, viol_hi), initial=0.0))

    def movable(self):
        """Columns that may enter the basis: all but the fixed ones."""
        return (self.hi - self.lo) > FIXED_TOL

    # --- core loop -------------------------------------------------------
    def run(self, c, max_iters):
        """Minimize c'x from the current basic feasible point.

        Returns "optimal" or "unbounded"; raises LpError on breakdown.
        ``iters`` counts the steps made: finding an unbounded ray is none.
        """
        stall = 0
        movable = self.movable()
        rc_tol = entering_tol(c)
        priced = None  # factor.changes when y and rc were computed
        for _ in range(max_iters):
            if priced != self.factor.changes:  # not after a flip that crossed no kink
                priced = self.factor.changes
                y = self.factor.solve_T(c[self.basis])
                rc = c - self.A.T @ y
            eligible = ((self.xN < self.hi) & (rc < -rc_tol)) | ((self.xN > self.lo) & (rc > rc_tol))
            eligible &= movable
            eligible[self.basis] = False
            # Bland: lowest index first; Dantzig: largest |rc_j| first
            j = eligible.argmax() if stall >= BLAND_STALL else np.where(eligible, np.abs(rc), 0.0).argmax()
            if not eligible[j]:
                return "optimal"
            step = self._pivot_on(j, rc[j], c, rc_tol)
            if step == np.inf:
                return "unbounded"
            self.iters += 1
            stall = stall + 1 if step <= DEFAULT_TOL else 0
        raise LpError("simplex iteration limit exceeded")

    def _pivot_on(self, j, rcj, c, rc_tol):
        """Move column j against its reduced cost; returns the step length,
        or inf along an unbounded ray.

        A row whose basic column k blocks at its lower bound 0 while its twin
        sits nonbasic at 0 need not end the step (Fourer's piecewise-linear
        ratio test): past the kink the twin takes the row at the negated
        value, and each such crossing adds (c_k + c_twin) |w_r| to the
        objective's slope -|rc_j| along the step.  The step goes on while
        that slope stays below -rc_tol.  A twin cannot be basic with k, as
        their columns would make the basis singular.
        """
        direction = 1.0 if rcj < 0 else -1.0
        w = self.factor.solve(self.A[:, j])
        dB = -direction * w
        basis = self.basis

        # distance to the entering column's other bound
        t_flip = self.hi[j] - self.xN[j] if direction > 0 else self.xN[j] - self.lo[j]

        bound = np.where(dB > 0, self.hi[basis], self.lo[basis])
        t_rows = np.divide(bound - self.xB, dB, out=np.full(self.m, np.inf), where=np.abs(dB) > PIVOT_HARD_TOL)
        np.maximum(t_rows, 0.0, out=t_rows)

        slope = -abs(rcj)
        crossed = []
        while True:
            t_min = min(float(t_rows.min(initial=np.inf)), t_flip)
            if not np.isfinite(t_min):
                return np.inf
            if t_flip <= t_min + TIE_TOL:
                # no basis change; the entering variable moves to its other bound
                self._cross(crossed)
                self.xB += t_flip * dB
                self.xN[j] = self.hi[j] if direction > 0 else self.lo[j]
                return t_flip

            # t_min is a row's ratio, and every row with a finite ratio has
            # |w_r| > PIVOT_HARD_TOL.  Among the ties prefer pivots above
            # PIVOT_TOL, then the lowest column index for determinism.
            ties = (t_rows <= t_min + TIE_TOL * (1.0 + abs(t_min))).nonzero()[0]
            if ties.size > 1:
                usable = ties[np.abs(w[ties]) > PIVOT_TOL]
                ties = usable if usable.size else ties
            r = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]

            k = basis[r]
            tw = self.twin[k]
            if tw >= 0 and dB[r] < 0 and self.xN[tw] == 0.0:
                crossed_slope = slope + (c[k] + c[tw]) * abs(w[r])
                if crossed_slope < -rc_tol:
                    slope = crossed_slope
                    crossed.append(r)
                    w[r] = -w[r]
                    dB[r] = -dB[r]
                    t_rows[r] = max((self.hi[tw] + self.xB[r]) / dB[r], 0.0)
                    continue
            self._cross(crossed)
            self._execute_pivot(j, r, direction, float(t_rows[r]), w)
            return float(t_rows[r])

    def _cross(self, rows):
        """The twin of each of ``rows``' basic columns takes the row, at the
        negated value; w and dB were negated there already."""
        for r in rows:
            self.basis[r] = self.twin[self.basis[r]]
            self.factor.negate(r)
            self.xB[r] = -self.xB[r]

    def _execute_pivot(self, j, r, direction, t, w):
        """Column j enters at row r after a step t, which moves xB by
        -direction t w; the leaving column takes its nearer bound."""
        leaving = self.basis[r]
        self.xB -= (direction * t) * w
        lo, hi = self.lo[leaving], self.hi[leaving]
        self.xN[leaving] = hi if abs(self.xB[r] - hi) <= abs(self.xB[r] - lo) else lo
        self.basis[r] = j
        self.xB[r] = self.xN[j] + direction * t
        self.xN[j] = 0.0
        self.factor.replace(r, w)
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_EVERY:
            self.refactor()


def _swap_out(sx: _Simplex, rows, n_real: int):
    """Swap the basic column of each of ``rows``, at zero step, for the
    movable nonbasic real column of largest |alpha_rj| above PIVOT_TOL, but
    only if the leaving column's distance to its nearer bound, the residual
    the swap drops, is at most FIXED_TOL |alpha_rj|.  Other rows keep their
    column.  Each swap counts in ``iters``, as a simplex pivot does."""
    free = sx.movable()[:n_real]
    free[sx.basis[sx.basis < n_real]] = False  # movable and nonbasic
    for r in rows:
        row = sx.factor.row(r) @ sx.A[:, :n_real]
        score = np.where(free, np.abs(row), 0.0)
        j = int(score.argmax())
        if score[j] <= PIVOT_TOL:
            continue  # redundant row
        out = sx.basis[r]
        if min(abs(sx.xB[r] - sx.lo[out]), abs(sx.xB[r] - sx.hi[out])) > FIXED_TOL * abs(row[j]):
            continue
        w = sx.factor.solve(sx.A[:, j])
        sx._execute_pivot(j, r, 1.0, 0.0, w)
        sx.iters += 1
        free[j] = False


def solve(lp: LpProblem, *, basis_hint: tuple[int, ...] | None = None, start=None) -> LpSolution:
    """Solve the LP; deterministic for identical input.

    Infeasible/Unbounded are reported as statuses.  LpError signals numerical
    breakdown (see ``LpError``); an OPTIMAL point lies within DEFAULT_TOL of
    every column bound, slacks included.  A warm start is ``basis_hint``, a
    basic column per row like ``LpSolution.basis``, and ``start``, a point
    over the LP's columns within WARM_TOL of their bounds, given together:
    nonbasic columns take start's values clipped onto their bounds, fixed
    basic columns are swapped out where ``_swap_out`` allows, and only phase
    2 runs.  An unusable hint falls back to the cold two-phase solve.  Only
    one of the two, or a start of the wrong length, raises ValueError.  A
    solve refactors its final basis unless a warm start made no step.
    """
    if (basis_hint is None) != (start is None):
        raise ValueError("basis_hint and start must be given together")
    if start is not None and np.shape(start) != (lp.P.dim,):
        raise ValueError("start must have one value per column")
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
    twin = np.full(n_real, -1, dtype=np.int64)
    pairs = np.array(lp.twins, dtype=np.int64).reshape(-1, 2)
    twin[pairs[:, 0]], twin[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]

    sx = _Simplex(A, b, lo, hi, twin)
    max_iters = 2000 + 50 * (m + n_real)

    warm_ok = False
    if basis_hint is not None:
        cols = np.asarray(basis_hint, dtype=np.int64)
        if cols.shape == (m,) and np.all((cols >= 0) & (cols < n_real)):
            xN = _bound_point(lo, hi)
            xN[:n] = np.clip(start, P.lo, P.hi)
            # before set_basis, which keeps xN and zeroes its basic entries
            near = np.max(np.abs(xN[:n] - start), initial=0.0) <= WARM_TOL
            try:
                sx.set_basis(cols, xN)
                # a B^-1 that is not finite makes xB, and so this test, fail too
                warm_ok = near and sx.primal_infeasibility() <= WARM_TOL
            except np.linalg.LinAlgError:
                warm_ok = False
            if warm_ok:
                _swap_out(sx, np.flatnonzero(~sx.movable()[sx.basis]), n_real)

    if not warm_ok and not _phase1(sx, max_iters):
        return _no_solution(LpStatus.INFEASIBLE, n, me, mi, sx.iters)

    c_work = np.zeros(sx.A.shape[1])
    c_work[:n_real] = c
    if sx.run(c_work, max_iters) == "unbounded":
        return _no_solution(LpStatus.UNBOUNDED, n, me, mi, sx.iters)

    if not (warm_ok and sx.iters == 0):
        sx.refactor()  # fresh inverse for accurate primal/dual extraction
    x_full = sx.x_full()
    x_real = x_full[:n_real]
    if not (np.isfinite(x_real).all() and (x_real >= lo - DEFAULT_TOL).all()
            and (x_real <= hi + DEFAULT_TOL).all()):
        raise LpError("optimal point is not finite or leaves a column bound by more than DEFAULT_TOL")
    y = sx.factor.solve_T(c_work[sx.basis])
    rc = c - A.T @ y

    return _build_solution(lp, x_full, y, rc, n, me, mi, tuple(sx.basis.tolist()), sx.iters)


def _phase1(sx: _Simplex, max_iters) -> bool:
    """Install artificials, minimize their sum, drive out those whose
    residual ``_swap_out`` may drop, and remove the artificial columns when
    none stays basic; returns False when infeasibility remains."""
    m, n_real = sx.A.shape
    xN = _bound_point(sx.lo, sx.hi)
    resid = sx.b - sx.A @ xN
    art_sign = np.where(resid >= 0, 1.0, -1.0)
    real = sx.A, sx.lo, sx.hi, sx.twin
    sx.A = np.hstack([sx.A, np.diag(art_sign)])
    sx.lo = np.concatenate([sx.lo, np.zeros(m)])
    sx.hi = np.concatenate([sx.hi, np.full(m, np.inf)])
    sx.twin = np.concatenate([sx.twin, np.full(m, -1, dtype=np.int64)])
    sx.xN = np.concatenate([xN, np.zeros(m)])
    sx.basis = np.arange(n_real, n_real + m, dtype=np.int64)
    sx.factor.refactor(np.diag(art_sign))  # the artificial basis
    sx.xB = np.abs(resid)

    c1 = np.concatenate([np.zeros(n_real), np.ones(m)])
    if sx.run(c1, max_iters) == "unbounded":
        raise LpError("unbounded ray in phase 1, whose objective is bounded below by 0")
    if float(c1[sx.basis] @ sx.xB) > DEFAULT_TOL * (1.0 + float(np.max(np.abs(sx.b), initial=0.0))):
        return False
    _swap_out(sx, np.flatnonzero(sx.basis >= n_real), n_real)
    if np.all(sx.basis < n_real):
        # back to the real columns: zero-valued artificials still change the
        # summation order of b - A x_N, which a warm re-solve's system lacks
        sx.A, sx.lo, sx.hi, sx.twin = real
        sx.xN = sx.xN[:n_real]
    else:
        # a redundant row keeps its artificial: pin them all so phase 2
        # cannot reuse them
        sx.lo[n_real:] = 0.0
        sx.hi[n_real:] = 0.0
    return True


def _no_solution(status, n, me, mi, iters):
    """An INFEASIBLE or UNBOUNDED result after ``iters`` pivots."""
    return LpSolution(
        status=status, x=np.full(n, np.nan),
        objective=np.inf if status == LpStatus.INFEASIBLE else -np.inf,
        dual_eq=np.zeros(me), dual_in=np.zeros(mi),
        dual_lo=np.zeros(n), dual_hi=np.zeros(n),
        basis=None, simplex_iters=iters,
    )


def _build_solution(lp, x_full, y, rc, n, me, mi, basis_out, iters):
    x = np.asarray(x_full)[:n].copy()
    dual_eq = -y[:me]
    dual_in = -y[me:me + mi]
    rc_x = rc[:n]
    dual_lo = np.where(rc_x > 0, rc_x, 0.0)
    dual_hi = np.where(rc_x < 0, -rc_x, 0.0)
    # bound duals only make sense where the bound is active
    P = lp.P
    tol_act = ACTIVE_TOL * (1.0 + np.abs(x))
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
