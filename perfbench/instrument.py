"""Per-round instrumentation of the solver, from outside the program.

A ``Recorder`` replaces, for the length of one ``asfw_run`` call, the layer
entry points the way their callers look them up: the names ``absfw.asfw``
imports (``evaluate``, ``abs_linearize``, ``affine_substitute``,
``delta_eval``, ``aasm_minimize``) and ``absfw.lp.solve``, which AASM calls
as ``lpmod.solve``.  It always counts operations (outer iterations) and
marks the failed ones; with ``trace`` it also records spans, and with
``certify`` it checks every OPTIMAL LP's full certificate and compares a
fixed sample of LPs with HiGHS.

Spans are tuples (name, start, end, parent) kept in memory; ``parent`` is
the index of the enclosing span or -1.  The program is single-threaded, so
spans nest strictly and a span's self time is its duration minus the
durations of its children.
"""
from __future__ import annotations

import bisect
import time
from collections import Counter
from contextlib import contextmanager

import absfw.asfw as asfw_mod
import absfw.lp as lp_mod

import checks

_ASFW_NAMES = ("evaluate", "abs_linearize", "affine_substitute", "delta_eval")
ORACLE_EVERY = 10  # compare every 10th LP of a certified round with HiGHS


class Recorder:
    def __init__(self, C, feas_tol: float, trace: bool = False, certify: bool = False):
        self.C = C
        self.feas_tol = feas_tol
        self.trace = trace
        self.certify = certify
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.iter_failed: list[bool] = []
        self.lps: list[tuple] = []    # (status, pivots, hinted, rows, cols)
        self.aasm: list[tuple] = []   # (status, polyhedra, lp_calls)
        self.certificate_failures = 0
        self.oracle_checked = 0
        self.oracle_skipped = False
        self.problems: list[str] = []  # findings inside operations that did not fail
        self._iter_bad = False
        self._iter_problems: list[str] = []

    # --- spans -----------------------------------------------------------
    def _call(self, name, fn, *args, **kwargs):
        if not self.trace:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            return self._call(name, fn, *args, **kwargs)
        return wrapped

    # --- layer wrappers --------------------------------------------------
    def _lp_solve(self, fn):
        def wrapped(lp, *args, **kwargs):
            sol = self._call("lp.solve", fn, lp, *args, **kwargs)
            hinted = kwargs.get("basis_hint", args[1] if len(args) > 1 else None) is not None
            tol = kwargs.get("tol", args[0] if args else lp_mod.DEFAULT_TOL)
            P = lp.P
            self.lps.append((sol.status.value, sol.simplex_iters, hinted,
                             P.Aeq.shape[0] + P.Ain.shape[0], P.dim))
            self._call("check", self._check_lp, lp, sol, tol)
            return sol
        return wrapped

    def _check_lp(self, lp, sol, tol):
        if self.certify and len(self.lps) % ORACLE_EVERY == 1:
            oracle = checks.highs_compare(lp, sol)
            if oracle is None:
                self.oracle_skipped = True
            else:
                self.oracle_checked += 1
                self._iter_problems += checks.oracle_problems(sol.status.value, sol.objective, oracle)
        if sol.status.value != checks.OPTIMAL:
            return
        if checks.lp_primal_problems(lp, sol, tol):
            self._iter_bad = True
        if self.certify:
            found = checks.lp_certificate_problems(lp, sol, tol)
            if found:
                self.certificate_failures += 1
                self._iter_problems += [f"LP {len(self.lps) - 1}: {p}" for p in found]

    def _aasm(self, fn):
        def wrapped(*args, **kwargs):
            self._iter_bad = False
            self._iter_problems = []
            res = self._call("aasm_minimize", fn, *args, **kwargs)
            self.aasm.append((res.status.value, res.polyhedra_visited, res.lp_calls))
            self._call("check", self._check_v, res.v_star)
            return res
        return wrapped

    def _check_v(self, v):
        bad = self._iter_bad or checks.set_violation(self.C, v) > self.feas_tol
        self.iter_failed.append(bad)
        if not bad:
            t = len(self.iter_failed) - 1
            self.problems += [f"iteration {t}: {p}" for p in self._iter_problems]

    @contextmanager
    def installed(self):
        saved = {name: getattr(asfw_mod, name) for name in _ASFW_NAMES + ("aasm_minimize",)}
        saved_solve = lp_mod.solve
        try:
            if self.trace:
                for name in _ASFW_NAMES:
                    setattr(asfw_mod, name, self._wrap(name, saved[name]))
            asfw_mod.aasm_minimize = self._aasm(saved["aasm_minimize"])
            lp_mod.solve = self._lp_solve(saved_solve)
            yield self
        finally:
            for name, fn in saved.items():
                setattr(asfw_mod, name, fn)
            lp_mod.solve = saved_solve

    def run(self, *args, **kwargs):
        """One ``asfw_run`` call with the wrappers installed.

        Returns (result, stamps): the clock at the start of the call, at
        each outer iteration's trace row, and at its return, so that
        ``numpy.diff(stamps)`` splits the call's wall time by iteration.
        """
        stamps = []
        with self.installed():
            stamps.append(time.perf_counter())
            res = self._call("asfw_run", asfw_mod.asfw_run, *args,
                             trace_sink=lambda row: stamps.append(time.perf_counter()), **kwargs)
            stamps.append(time.perf_counter())
        if self.trace:  # segment on the root span's own clock readings
            stamps[0], stamps[-1] = self.spans[0][1], self.spans[0][2]
        return res, stamps


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def segment_self_times(spans, stamps) -> list[Counter]:
    """Self time per span name within each iteration segment of ``stamps``.

    Spans other than the root never straddle a stamp (the trace row is
    emitted between calls), so each is charged to the segment it starts in;
    the root's share of a segment is what its children leave of it.  The
    names of each segment therefore add up to the segment's duration.
    """
    own = self_times(spans)
    out = [Counter() for _ in range(len(stamps) - 1)]
    for k in range(len(out)):
        out[k]["asfw_run"] = stamps[k + 1] - stamps[k]
    for (name, start, end, parent), s in zip(spans[1:], own[1:]):
        k = bisect.bisect_right(stamps, start) - 1
        out[k][name] += s
        if parent == 0:
            out[k]["asfw_run"] -= end - start
    return out


def fastest_segments(segments):
    """Per iteration segment, the index of the repeat that ran it fastest.

    ``segments`` holds one list of segment durations per repeat of the same
    deterministic run.
    """
    return [min(range(len(segments)), key=lambda r: segments[r][k]) for k in range(len(segments[0]))]
