#!/usr/bin/env python3
"""Benchmark of the absfw solver, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` one workload runs in this process: it builds the
instance from the seed (``setup_s``, median of several builds), then repeats
whole ``asfw_run`` calls until ``--seconds`` have passed (``solve_s`` is
their median), checks every result against references computed apart from
the program, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Without ``--workload`` every workload runs, each in a fresh process, and a
table is printed.  See README.md in this directory.
"""
from __future__ import annotations

import os

# one thread, fixed before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SLICE = 0.1  # seconds of set-ups timed before each run


def _import_program():
    if not (SRC / "absfw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no absfw sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fastest_total(stamp_lists) -> float:
    """Wall time of one run, summed over its outer iterations from the
    fastest of the identical repeats of each iteration."""
    from instrument import fastest_segments

    segs = [list(np.diff(st)) for st in stamp_lists]
    return float(sum(segs[r][k] for k, r in enumerate(fastest_segments(segs))))


def _layer_metrics(traced, inst) -> tuple[dict, float, float]:
    """Per-layer figures of the traced repeats.

    Times take each iteration from the repeat that ran it fastest, as
    ``solve_s`` does, so they add up to the traced ``solve_s``.  Returns
    (figures, traced solve_s, sum of the layers' self times).
    """
    from instrument import fastest_segments, segment_self_times

    per_round = [segment_self_times(rec.spans, st) for rec, _, st in traced]
    segs = [list(np.diff(st)) for _, _, st in traced]
    busy = Counter()
    solve_traced = 0.0
    for k, r in enumerate(fastest_segments(segs)):
        solve_traced += segs[r][k]
        for name, sec in per_round[r][k].items():
            busy[name] += sec
    rec, res, _ = traced[0]
    calls = Counter(name for name, *_ in rec.spans)
    lps, aasm = rec.lps, rec.aasm
    n_lp = len(lps)
    polyhedra = sum(a[1] for a in aasm)
    ends = Counter(a[0] for a in aasm)
    figures = {
        "tape.evaluate_calls": (calls["evaluate"], "count"),
        "tape.evaluate_s": (busy["evaluate"], "s"),
        "tape.linearize_calls": (calls["abs_linearize"], "count"),
        "tape.linearize_s": (busy["abs_linearize"], "s"),
        "tape.nodes": (len(inst.tape.nodes), "count"),
        "tape.switches": (inst.tape.num_switch, "count"),
        "plmodel.substitute_calls": (calls["affine_substitute"] + calls["delta_eval"], "count"),
        "plmodel.substitute_s": (busy["affine_substitute"] + busy["delta_eval"], "s"),
        "aasm.calls": (len(aasm), "count"),
        "aasm.self_s": (busy["aasm_minimize"], "s"),
        "aasm.polyhedra": (polyhedra, "count"),
        "aasm.useful_lp_ratio": (polyhedra / n_lp, "ratio"),
        "aasm.local_min": (ends["local_min"], "count"),
        "aasm.exhausted": (ends["polyhedra_exhausted"], "count"),
        "aasm.inner_limit": (ends["inner_limit"], "count"),
        "lp.solves": (n_lp, "count"),
        "lp.s": (busy["lp.solve"], "s"),
        "lp.ms_per_solve": (1000.0 * busy["lp.solve"] / n_lp, "ms"),
        "lp.pivots": (sum(p[1] for p in lps), "count"),
        "lp.zero_pivot_solves": (sum(p[0] == "optimal" and p[1] == 0 for p in lps), "count"),
        "lp.unhinted_solves": (sum(not p[2] for p in lps), "count"),
        "lp.rows_mean": (sum(p[3] for p in lps) / n_lp, "count"),
        "lp.cols_mean": (sum(p[4] for p in lps) / n_lp, "count"),
        "lp.infeasible": (sum(p[0] == "infeasible" for p in lps), "count"),
        "asfw.outer_iters": (len(res.trace.rows), "count"),
        "asfw.self_s": (busy["asfw_run"], "s"),
        "bench.check_s": (busy["check"], "s"),
    }
    return figures, solve_traced, sum(busy.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    from absfw.asfw import StepRule
    from absfw.polyhedron import DEFAULT_FEAS_TOL

    import checks
    from instrument import Recorder, self_times
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup = []

    def build():
        t0 = time.perf_counter()
        built = wl.build(seed)
        setup.append(time.perf_counter() - t0)
        return built

    inst = build()
    ref = wl.reference(inst)
    rule = StepRule.open_loop_sqrt()

    problems: list[str] = []
    tally = {"attempted": 0, "failed": 0}
    first = []

    def one_round(trace=False, certify=False):
        rec = Recorder(inst.C, DEFAULT_FEAS_TOL, trace=trace, certify=certify)
        res, stamps = rec.run(inst.tape, inst.C, inst.x0, rule, max_iters=wl.max_iters)
        tally["attempted"] += len(rec.iter_failed)
        tally["failed"] += sum(rec.iter_failed)
        if len(rec.iter_failed) != len(res.trace.rows):
            problems.append("outer iterations and subproblem calls differ in number")
        problems.extend(rec.problems)
        problems.extend(checks.run_problems(
            res, inst.x0, inst.C, ref.f_closed, ref.f_star, wl.expect_status,
            feas_tol=DEFAULT_FEAS_TOL, f_floor=ref.f_floor))
        key = (res.f_final, res.status, [(r.gap, r.fval) for r in res.trace.rows], rec.lps, rec.aasm)
        if not first:
            first.append(key)
        elif key != first[0]:
            problems.append("repeated run of the same instance did different work")
        return rec, res, stamps

    def rounds(budget, builds=False, **kw):
        """Whole runs until ``budget`` seconds have passed; with ``builds``,
        set-ups are timed between them so they sample the same stretch."""
        out, end = [], time.perf_counter() + budget
        while not out or time.perf_counter() < end:
            if builds:
                slice_end = time.perf_counter() + SETUP_SLICE
                while time.perf_counter() < slice_end:
                    build()
            out.append(one_round(**kw))
        return out

    if not trace:
        runs = rounds(seconds, builds=True)
        metrics = {
            "setup_s": _metric(min(setup), "s"),
            "solve_s": _metric(_fastest_total([st for _, _, st in runs]), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        walls = " ".join(f"{st[-1] - st[0]:.3f}" for _, _, st in runs)
        print(f"{name}: {len(runs)} runs of wall {walls} s; {len(setup)} set-ups", file=sys.stderr)
    else:
        plain = rounds(seconds / 2)
        traced = rounds(seconds / 2, trace=True)
        cert_rec, _, _ = one_round(certify=True)
        for rec, _, _ in traced:
            root = rec.spans[0]
            if abs(sum(self_times(rec.spans)) - (root[2] - root[1])) > 1e-9 * len(rec.spans):
                problems.append("span self times do not add up to the run's duration")
        figures, solve_t, layers_sum = _layer_metrics(traced, inst)
        if abs(layers_sum - solve_t) > 1e-9 * len(traced[0][0].spans):
            problems.append(f"layer self times add to {layers_sum!r}, traced solve_s is {solve_t!r}")
        solve_p = _fastest_total([st for _, _, st in plain])
        metrics = {key: _metric(v, unit) for key, (v, unit) in figures.items()}
        metrics["lp.certificate_failures"] = _metric(cert_rec.certificate_failures, "count")
        metrics["trace.solve_s"] = _metric(solve_t, "s")
        metrics["trace.overhead_s"] = _metric(solve_t - solve_p, "s")
        if cert_rec.oracle_skipped:
            print("note: scipy does not import; LPs were not compared with HiGHS", file=sys.stderr)
        else:
            print(f"{name}: {cert_rec.oracle_checked} LPs compared with HiGHS", file=sys.stderr)
        print(f"{name}: tracing overhead {solve_t - solve_p:+.4f} s "
              f"(traced solve {solve_t:.4f} s, untraced {solve_p:.4f} s)", file=sys.stderr)
        _write_spans(name, seed, [rec for rec, _, _ in traced])

    for p in problems[:20]:
        print(f"CHECK FAILED ({name}): {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def _write_spans(name, seed, recs):
    """One JSON object per span; times in seconds from the start of its run."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for r, rec in enumerate(recs):
            t0 = rec.spans[0][1]
            for i, (sname, start, end, parent) in enumerate(rec.spans):
                fh.write(json.dumps({"run": r, "id": i, "name": sname, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process, then a table of the results."""
    _import_program()
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for key, m in r["metrics"].items():
            print(f"    {key:26s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
