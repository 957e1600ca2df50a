"""Minimize a piecewise-linear form over a compact polyhedron by successive
LP solves on signature-domain closures.

All LPs of one call share their rows and cost, in the lifted variables
(v, z+, z-) with z = z+ - z- and |z| = z+ + z-: the switching recursion
becomes s equality rows and the objective is affine.  A kink whose |z_i|
feeds no later row (zero L column) and whose babs_i >= 0 is convex in z_i,
and no LP pins it.  Its (z+_i, z-_i) pair goes to the simplex as twins, so
Fourer's piecewise-linear ratio test (Math. Prog. 1985) crosses the kink in
one step where a plain simplex pivots z+_i out and z-_i in.  A signature
pins z+_i or z-_i of the other, nonconvex kinks at 0, so a form with L = 0
and babs >= 0 is solved by one LP.  The first LP of a call is over the
start point's signature and starts from a crash basis of z columns and C's
slacks (``_Lifted.crash``), so it runs no phase 1.  The crash is made at
the warm point of least model value, such as one of the last two
subproblems' vertices, among those that lie in C and keep the signs the
start pins, and at the start point if there is none.  As iterates
converge, consecutive subproblems keep their vertex, or with open-loop
steps alternate between two, and a first LP started there makes few or no
pivots (Braun, Pokutta & Zink, "Lazifying conditional gradient
algorithms", ICML 2017, keep earlier oracle answers the same way).

At the per-polyhedron optimum every single flip of an active nonconvex kink
is probed (both signs for pinned kinks); if no probe LP strictly decreases
the objective, no single flip of a nonconvex kink descends.  That is weaker
than first-order minimality where C's rows, or M's shared switching values,
tie kinks together: descent may then need several flips at once.
A flip moves only bounds, so ``_Lifted.flips`` reads the parent LP's
reduced costs at the z columns once and gives all flips of a polyhedron in
probe order, each with its verdict: unless the column a flip unpins passes
the simplex's entering test, the parent basis stays optimal and the flip is
settled without an LP.  The entering tolerance reads the cost alone
(``lp.entering_tol``), and every LP of a call has the same cost, so the test
is the probe LP's own.  Other probes start from the parent's basis and point.
Probes double as the step to the next polyhedron, which makes descent of the
accepted chain unconditional.  A visited-signature set guards against
tolerance-induced cycling; monotone decrease makes genuine revisits
impossible in exact arithmetic.

The test oracles ``brute_force_pl_min`` and ``local_optimality_test``
enumerate closed signature domains (all of them, or those around a point) by
the affine-restriction route, which shares no code with the lifted solver.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lp as lpmod
from .lp import LpProblem, LpStatus
from .plmodel import (
    AbsLinearForm,
    eval_pl,
    restrict,
    signature_constraints,
    switch_signs,
)
from .polyhedron import Polyhedron, contains, intersect

_ORACLE_TIE_TOL = 1e-12  # relative: a later domain must beat the best by more, so equal minima keep the first


class AasmError(Exception):
    """Violated precondition or impossible LP outcome inside the solver."""


class AasmStatus(Enum):
    LOCAL_MIN = "local_min"
    INNER_LIMIT = "inner_limit"
    POLYHEDRA_EXHAUSTED = "polyhedra_exhausted"


@dataclass(frozen=True)
class AasmResult:
    v_star: np.ndarray
    psi_star: float
    status: AasmStatus
    polyhedra_visited: int
    lp_calls: int
    visited_signatures: list = field(default_factory=list)
    warm_started: bool = False  # the first LP started at one of ``warm_points``
    lp_pivots: int = 0  # simplex_iters summed over the call's LPs


class _Lifted:
    """The LPs of one AASM call over the columns (v, z+, z-): the switching
    recursion's rows, then C's rows on v; cost (a, b + babs, babs - b).  For
    a convex kink z+_i + z-_i enters no row and costs 2 babs_i >= 0, so some
    optimum has min(z+_i, z-_i) = 0, where z_i costs b_i z_i + babs_i |z_i|."""

    def __init__(self, form: AbsLinearForm, C: Polyhedron):
        self.form = form
        self.C = C
        T = np.eye(form.s) - form.M
        k = 2 * form.s
        self.Aeq = np.vstack([np.hstack([-form.Z, T - form.L, -T - form.L]),
                              np.hstack([C.Aeq, np.zeros((C.Aeq.shape[0], k))])])
        self.beq = np.concatenate([form.c, C.beq])
        self.Ain = np.hstack([C.Ain, np.zeros((C.Ain.shape[0], k))])
        self.cost = np.concatenate([form.a, form.b + form.babs, form.babs - form.b])
        self.lo = np.concatenate([C.lo, np.zeros(k)])
        self.convex = ~form.L.any(axis=0) & (form.babs >= 0)
        # column indices of z+, z- and the slacks lp.solve appends for C's Ain rows
        self.plus = form.n + np.arange(form.s)
        self.minus = self.plus + form.s
        self.slacks = form.n + k + np.arange(C.Ain.shape[0])
        # a convex kink's z+_i and z-_i have negated columns and are both free
        self.twins = tuple(zip(self.plus[self.convex].tolist(), self.minus[self.convex].tolist()))
        self.enter_tol = lpmod.entering_tol(self.cost)  # slacks cost 0: every LP of the call
        self.calls = self.pivots = 0

    def upper(self, sigma: np.ndarray) -> np.ndarray:
        """Column upper bounds: z+_i is pinned at 0 unless sigma_i > 0, and
        z-_i unless sigma_i < 0; a convex kink's columns are never pinned."""
        free = np.concatenate([(sigma > 0) | self.convex, (sigma < 0) | self.convex])
        return np.concatenate([self.C.hi, np.where(free, np.inf, 0.0)])

    def crash(self, z: np.ndarray, v: np.ndarray):
        """The crash basis at v, a point of C with switching values z, and
        the start (v, 0, 0): z+_i if z_i >= 0, else z-_i, and C's slacks.
        The z block, I - M - L with signed columns, is lower triangular with
        diagonal +-1, so the basis is nonsingular, and its point splits z."""
        cols = np.concatenate([np.where(z >= 0, self.plus, self.minus), self.slacks])
        return tuple(cols.tolist()), np.concatenate([v, np.zeros(2 * self.form.s)])

    def solve(self, sigma: np.ndarray, hint: tuple[int, ...] | None = None, x0=None):
        """The LP over the closure of sigma's domain, with the convex kinks
        free and passed as twins; returns the solution and psi = objective +
        d (inf if INFEASIBLE).  ``hint`` and ``x0``, a point over the LP's
        columns, are a warm start, given together (see ``lp.solve``).  An
        UNBOUNDED LP raises: v is boxed, and a twin pair costs 2 babs >= 0."""
        P = Polyhedron(Aeq=self.Aeq, beq=self.beq, Ain=self.Ain, bin=self.C.bin,
                       lo=self.lo, hi=self.upper(sigma))
        sol = lpmod.solve(LpProblem(c=self.cost, P=P, twins=self.twins), basis_hint=hint, start=x0)
        self.calls += 1
        self.pivots += sol.simplex_iters
        if sol.status == LpStatus.UNBOUNDED:
            raise AasmError("LP unbounded on a boxed feasible set")
        psi = sol.objective + self.form.d if sol.status == LpStatus.OPTIMAL else np.inf
        return sol, psi

    def z(self, sol) -> np.ndarray:
        return sol.x[self.plus] - sol.x[self.minus]

    def flips(self, sigma, signs, sol) -> list[tuple[int, int, bool]]:
        """Single flips (i, new sign, settled) of the active nonconvex kinks at
        sol, in sigma's domain with switching signs ``signs``: pinned kinks
        (sigma_i = 0) both ways, kinks with signs_i = 0 to the other sign.
        Largest |z-bound multiplier| first (rc(z+_i), -rc(z-_i) or, where
        sigma_i = 0, their half-difference), then lower index, then + before
        -.  A flip moves only bounds: it pins z_i's column at 0 and unpins j,
        z+_i or z-_i, so sol's basis stays optimal and the flipped LP's value
        is sol's (settled) unless j passes the probe LP's own entering test."""
        rc = sol.dual_lo - sol.dual_hi  # both bounds of a fixed column are active
        up, down = rc[self.plus], rc[self.minus]
        mult = np.where(sigma > 0, up, np.where(sigma < 0, -down, (up - down) / 2))
        active = ~self.convex & ((sigma == 0) | (signs == 0))
        cands = [
            (i, f, bool((up if f > 0 else down)[i] >= -self.enter_tol))
            for i in np.flatnonzero(active).tolist()
            for f in ((1, -1) if sigma[i] == 0 else (-int(sigma[i]),))
        ]
        return sorted(cands, key=lambda c: (-abs(mult[c[0]]), c[0], -c[1]))


def _sig_key(sigma: np.ndarray) -> bytes:
    return sigma.astype(np.int8).tobytes()


def _descends(psi_child: float, psi: float) -> bool:
    """Strict descent by more than the LP tolerance, relative to |psi|."""
    return psi_child < psi - lpmod.DEFAULT_TOL * (1.0 + abs(psi))


def aasm_minimize(
    form: AbsLinearForm,
    C: Polyhedron,
    start,
    partial_inner_limit: int | None = None,
    *,
    warm_points=(),
) -> AasmResult:
    """Minimize ``form`` over C from ``start`` by adapted active signature
    descent over the nonconvex kinks.

    The first LP is over the closure of start's signature domain.  It starts
    from a crash basis and runs phase 2 only (cold, with phase 1, if C has
    equality rows; ``warm_points`` are then unused).  Of the
    ``warm_points``, newest first, those that lie in C to ``lp.WARM_TOL``
    and where each nonconvex kink's sign is 0 or the start's are admissible;
    the crash is made at the one of least model value, the newest among
    ties, and at ``start`` if none is admissible.  ``warm_started`` in the
    result tells whether a warm point was used.  The signature,
    and so the first polyhedron, does not depend on the choice; where that
    LP's optimum is tied, the vertex it returns, and the walk from it, may.
    Requires start feasible to ``lp.WARM_TOL``, C bounded and
    ``partial_inner_limit``, if set, at least 1.  The accepted chain of
    per-polyhedron optima strictly decreases.  LOCAL_MIN means no single
    flip of an active nonconvex kink descends and the convex kinks are
    LP-optimal, which is weaker than first-order minimality where C's rows
    or M tie kinks.  The descent stops with INNER_LIMIT when, after
    ``partial_inner_limit`` polyhedra, a flip still needs an LP (the paper's
    partial solution), and with POLYHEDRA_EXHAUSTED when only visited
    polyhedra descend or 2^min(k, 20) have been visited, for k nonconvex
    kinks.  ``visited_signatures`` gives each convex kink its sign at that
    polyhedron's optimum.
    """
    if partial_inner_limit is not None and partial_inner_limit < 1:
        raise ValueError("partial_inner_limit must be at least 1")
    if form.n != C.dim:
        raise ValueError(f"form has {form.n} variables but C has dimension {C.dim}")
    start = np.asarray(start, dtype=float)
    if not contains(C, start, lpmod.WARM_TOL):
        raise AasmError("start point is not feasible")
    if not C.is_boxed():
        raise AasmError("feasible set must be bounded (boxed)")

    ws = _Lifted(form, C)
    z0 = eval_pl(form, start)[1]
    sigma = switch_signs(form, start, z0)
    hint = x0 = None
    point, z, best = start, z0, np.inf
    if not C.Aeq.shape[0]:  # no slack to crash an Aeq row with
        for p in warm_points:
            # the model value at p is the first LP's objective + d there; a
            # tie keeps the newer point, and the crash must start sigma's LP
            value, z_p = eval_pl(form, p)
            if value < best and contains(C, p, lpmod.WARM_TOL):
                signs = switch_signs(form, p, z_p)
                if np.all(ws.convex | (signs == 0) | (signs == sigma)):
                    point, z, best = p, z_p, value
        hint, x0 = ws.crash(z, point)
    sol, psi = ws.solve(sigma, hint, x0)
    if sol.status == LpStatus.INFEASIBLE:  # the start lies in this LP's polyhedron
        raise AasmError("first LP infeasible despite a feasible start")

    max_poly = 2 ** min(int(np.count_nonzero(~ws.convex)), 20)
    visited = {}  # _sig_key -> signature, in visiting order; no flip moves sigma's convex entries
    while True:
        signs = switch_signs(form, sol.x[:form.n], ws.z(sol))
        visited[_sig_key(sigma)] = np.where(ws.convex, signs, sigma)
        flips = ws.flips(sigma, signs, sol)
        # a settled flip keeps the parent's value, certified without an LP
        if all(settled for *_, settled in flips):
            status = AasmStatus.LOCAL_MIN
            break
        if partial_inner_limit is not None and len(visited) >= partial_inner_limit:
            status = AasmStatus.INNER_LIMIT
            break

        accepted = None
        improving_but_visited = False
        for i, f, settled in flips:
            if settled:
                continue
            sig2 = sigma.copy()
            sig2[i] = f
            sol2, psi2 = ws.solve(sig2, sol.basis, sol.x)
            if _descends(psi2, psi):
                if _sig_key(sig2) in visited:
                    improving_but_visited = True
                    continue
                accepted = (sig2, sol2, psi2)
                break
        if accepted is None:
            status = AasmStatus.POLYHEDRA_EXHAUSTED if improving_but_visited else AasmStatus.LOCAL_MIN
            break
        if len(visited) >= max_poly:
            status = AasmStatus.POLYHEDRA_EXHAUSTED
            break
        sigma, sol, psi = accepted

    return AasmResult(
        v_star=sol.x[:form.n].copy(),
        psi_star=float(psi),
        status=status,
        polyhedra_visited=len(visited),
        lp_calls=ws.calls,
        visited_signatures=list(visited.values()),
        warm_started=best < np.inf,
        lp_pivots=ws.pivots,
    )


def local_optimality_test(form: AbsLinearForm, C: Polyhedron, v) -> bool:
    """True iff the model is first-order minimal at ``v`` in C (at most 16
    kinks at ``v``).  The closed domains that keep v's nonzero signs and give
    each kink at v both signs hold v, the model is linear on each, and they
    cover a neighbourhood of v in C: their minimum is below the model at v
    exactly when some direction from v descends."""
    psi_v, z = eval_pl(form, v)
    return not _descends(_enumerated_min(form, C, switch_signs(form, v, z))[1], psi_v)


def brute_force_pl_min(form: AbsLinearForm, C: Polyhedron):
    """Global minimum over all 2^s closed signature domains (s <= 16)."""
    return _enumerated_min(form, C, np.zeros(form.s, dtype=int))


def _enumerated_min(form: AbsLinearForm, C: Polyhedron, fixed: np.ndarray):
    """(v, psi) of the least LP over the closed signature domains that keep
    the nonzero signs of ``fixed`` and give each 0 entry both signs; each LP
    is cold and built by the affine-restriction route, not the lifted one."""
    free = np.flatnonzero(fixed == 0)
    if free.size > 16:
        raise ValueError("enumeration limited to 16 kinks")
    if not C.is_boxed():
        raise ValueError("feasible set must be bounded (boxed)")
    best_v, best_psi = None, np.inf
    for signs in itertools.product((-1, 1), repeat=free.size):
        sigma = fixed.copy()
        sigma[free] = signs
        res = restrict(form, sigma)
        sol = lpmod.solve(LpProblem(c=res.g, P=intersect(C, *signature_constraints(res, sigma))))
        if sol.status != LpStatus.OPTIMAL:
            continue
        val = res.h + res.g @ sol.x
        if val < best_psi - _ORACLE_TIE_TOL * (1.0 + abs(val)):
            best_psi, best_v = float(val), sol.x.copy()
    if best_v is None:
        raise AasmError("no signature domain intersected the feasible set")
    return best_v, best_psi
