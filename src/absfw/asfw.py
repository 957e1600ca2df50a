"""Outer conditional-gradient loop for abs-smooth objectives.

Per iteration: abs-linearize the tape at the iterate, pose the piecewise
linear subproblem min over v in C of the model increment at alpha*(v - x),
solve it with the active-signature method, record the generalized gap
-increment/alpha, and take the convex-combination step.  A vanishing gap
certifies first-order minimality, so the loop stops early when the gap of a
fully solved subproblem hits zero (or the configured tolerance).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .aasm import AasmStatus, aasm_minimize
from .plmodel import AbsLinearForm, affine_substitute, delta_eval
from .polyhedron import Polyhedron, contains
from .tape import Tape, abs_linearize, evaluate

OPEN_LOOP_SQRT = "sqrt"
OPEN_LOOP_HARMONIC = "harmonic"
FIXED_HORIZON = "fixed"
SHORT_STEP = "short"


@dataclass(frozen=True)
class StepRule:
    """Step-size schedule; ``monotone`` adds the keep-iterate acceptance test."""

    kind: str
    T: int | None = None
    gamma: float | None = None
    monotone: bool = False

    def __post_init__(self):
        if self.kind == FIXED_HORIZON and (self.T is None or self.T < 1):
            raise ValueError("fixed-horizon rule needs T >= 1")
        if self.kind == SHORT_STEP and not (self.gamma is not None and 0 < self.gamma < math.inf):
            raise ValueError("short-step rule needs a finite gamma > 0")
        if self.kind not in (OPEN_LOOP_SQRT, OPEN_LOOP_HARMONIC, FIXED_HORIZON, SHORT_STEP):
            raise ValueError(f"unknown step rule {self.kind!r}")
        if self.T is not None and self.kind != FIXED_HORIZON:
            raise ValueError(f"{self.kind!r} rule takes no T (horizon)")
        if self.gamma is not None and self.kind != SHORT_STEP:
            raise ValueError(f"{self.kind!r} rule takes no gamma")

    @classmethod
    def open_loop_sqrt(cls, monotone: bool = False):
        return cls(kind=OPEN_LOOP_SQRT, monotone=monotone)

    @classmethod
    def open_loop_harmonic(cls, monotone: bool = False):
        return cls(kind=OPEN_LOOP_HARMONIC, monotone=monotone)

    @classmethod
    def fixed_horizon(cls, T: int, monotone: bool = False):
        return cls(kind=FIXED_HORIZON, T=T, monotone=monotone)

    @classmethod
    def short_step(cls, gamma: float, monotone: bool = False):
        return cls(kind=SHORT_STEP, gamma=gamma, monotone=monotone)

    def alpha(self, t: int) -> float:
        if self.kind == OPEN_LOOP_SQRT:
            return 1.0 / math.sqrt(1.0 + t)
        if self.kind == OPEN_LOOP_HARMONIC:
            return 2.0 / (t + 2.0)
        if self.kind == FIXED_HORIZON:
            return 1.0 / math.sqrt(self.T)
        raise ValueError("short-step alpha is computed from the subproblem")


class RunStatus(Enum):
    GAP_TOL_REACHED = "gap_tol_reached"
    MAX_ITERS = "max_iters"
    EXACT_GAP_ZERO = "exact_gap_zero"


@dataclass(frozen=True)
class TraceRow:
    t: int
    alpha: float
    gap: float
    fval: float
    inner_polyhedra: int
    lp_calls: int
    elapsed_ms: int
    inner_status: str  # the subproblem's AasmStatus value
    warm_started: bool  # its first LP started at one of the last two subproblems' vertices
    lp_pivots: int  # simplex_iters summed over its LPs


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow):
        self.rows.append(row)

    def gaps(self) -> np.ndarray:
        return np.array([r.gap for r in self.rows])

    def fvals(self) -> np.ndarray:
        return np.array([r.fval for r in self.rows])

    def ts(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])


@dataclass(frozen=True)
class RunResult:
    x_final: np.ndarray
    f_final: float
    status: RunStatus
    trace: RunTrace


def generalized_gap(form: AbsLinearForm, fbar: float, x, v, alpha: float) -> float:
    """-model increment at alpha*(v - x), divided by alpha; for smooth tapes
    this collapses to the classical inner product <-grad f(x), v - x>."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = np.asarray(x, dtype=float)
    return _gap(affine_substitute(form, alpha, -alpha * x), fbar, v, alpha)


def _gap(sub: AbsLinearForm, fbar: float, v, scale: float) -> float:
    """The gap at v of ``sub``, the model in v at x + scale*(v - x)."""
    return -delta_eval(sub, fbar, v) / scale


def asfw_run(
    tape: Tape,
    C: Polyhedron,
    x0,
    rule: StepRule,
    max_iters: int = 500,
    gap_tol: float = 1e-10,
    partial_inner_limit: int | None = None,
    trace_sink=None,
) -> RunResult:
    """Run the conditional-gradient loop from a feasible x0.

    Stops with EXACT_GAP_ZERO when the subproblem cannot improve at all,
    GAP_TOL_REACHED when the gap falls to gap_tol, otherwise MAX_ITERS.
    Each row's gap is ``generalized_gap`` at the subproblem's vertex v, at
    alpha 1 for the short step, whose step is then min(1, gap / (2 gamma
    |v - x|^2)) where gap and |v - x| are positive, and 1 elsewhere.
    Each subproblem gets the last two subproblems' vertices, newest first
    and a repeated one once, as its warm points (see ``aasm_minimize``);
    ``TraceRow.warm_started`` tells whether its first LP started at one.
    ``partial_inner_limit`` (at least 1) caps the polyhedra each subproblem
    walk visits; the walk stops there only while a flip still needs an LP
    (see ``aasm_minimize``).  Neither gap test applies to a
    subproblem the cap cut short (INNER_LIMIT): its gap is at most the full
    walk's, so a small one certifies nothing.  A limit of 1 returns the
    optimum of the closure of x's own signature domain, so the run stalls
    once x is that optimum: each later step is null and each gap 0 (RN2
    n=6 stays at f = 0.484375, where a limit of 2 reaches 0).
    ``trace_sink`` receives each TraceRow as it is produced.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not contains(C, x):
        raise ValueError("x0 must be feasible")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if not gap_tol >= 0:  # NaN fails too
        raise ValueError("gap_tol must be nonnegative")
    if partial_inner_limit is not None and partial_inner_limit < 1:
        raise ValueError("partial_inner_limit must be at least 1")
    trace = RunTrace()
    status = RunStatus.MAX_ITERS
    t_start = time.perf_counter()
    rec = evaluate(tape, x)
    recent = ()  # the last two subproblems' vertices, newest first

    for t in range(max_iters):
        fbar = rec.y
        form = abs_linearize(tape, x, rec)

        scale = 1.0 if rule.kind == SHORT_STEP else rule.alpha(t)
        sub = affine_substitute(form, scale, -scale * x)
        inner = aasm_minimize(sub, C, x, partial_inner_limit, warm_points=recent)
        v = inner.v_star
        # a repeated vertex could only tie with v, which wins ties: keep it once
        recent = (v, *(u for u in recent[:1] if not np.array_equal(u, v)))
        gap = _gap(sub, fbar, v, scale)
        alpha = scale
        if rule.kind == SHORT_STEP and gap > 0.0:
            nrm2 = float(np.dot(v - x, v - x))
            alpha = min(1.0, gap / (2.0 * rule.gamma * nrm2)) if nrm2 > 0.0 else 1.0

        row = TraceRow(
            t=t,
            alpha=float(alpha),
            gap=float(gap),
            fval=float(fbar),
            inner_polyhedra=inner.polyhedra_visited,
            lp_calls=inner.lp_calls,
            elapsed_ms=int(1000 * (time.perf_counter() - t_start)),
            inner_status=inner.status.value,
            warm_started=inner.warm_started,
            lp_pivots=inner.lp_pivots,
        )
        trace.append(row)
        if trace_sink is not None:
            trace_sink(row)

        # a cut-short walk's gap is at most the full walk's: it proves nothing
        if inner.status != AasmStatus.INNER_LIMIT and gap <= gap_tol:
            status = RunStatus.EXACT_GAP_ZERO if gap <= 0.0 else RunStatus.GAP_TOL_REACHED
            break

        x_next = (1.0 - alpha) * x + alpha * v
        rec_next = evaluate(tape, x_next)
        if rule.monotone and rec_next.y >= fbar:
            continue  # keep the current iterate
        x, rec = x_next, rec_next

    return RunResult(
        x_final=x,
        f_final=rec.y,
        status=status,
        trace=trace,
    )


def running_min(values) -> np.ndarray:
    return np.minimum.accumulate(np.asarray(values, dtype=float))


def loglog_slope(ts, values, t_min: int = 10, samples: int = 200) -> float:
    """Least-squares slope of log(values) against log(t) over [t_min, t_end].

    The curve is resampled uniformly in log(t) before fitting, which is the
    slope a log-log plot shows; fitting per-iteration instead would weight
    the final decade roughly t_end/t_min times more than the first.
    Returns -inf when the windowed values reach zero (faster than any rate).
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = ts >= t_min
    ts, values = ts[mask], values[mask]
    if ts.size < 2:
        raise ValueError("need at least two trace points past t_min")
    if np.any(values <= 0.0):
        return -np.inf
    grid = np.geomspace(ts[0], ts[-1], samples)
    idx = np.searchsorted(ts, grid, side="right") - 1
    gv = values[np.clip(idx, 0, len(values) - 1)]
    A = np.vstack([np.log(grid), np.ones_like(grid)]).T
    slope, _ = np.linalg.lstsq(A, np.log(gv), rcond=None)[0]
    return float(slope)
