"""Command-line front end: run experiments, reproduce the signature-method
iteration table, and execute the property suites.

Exit codes: 0 success, 2 configuration error, 3 solver error (an LP, the
subproblem solver, or a tape value or record that is not finite).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from . import bench
from .aasm import AasmError, aasm_minimize
from .asfw import StepRule, asfw_run
from .lp import LpError
from .plmodel import affine_substitute
from .selftest import run_all
from .tape import EvaluationError, abs_linearize

CSV_HEADER = "t,alpha,gap,fval,inner_polyhedra,lp_calls,elapsed_ms"


class ConfigError(Exception):
    pass


def _build_instance(args) -> bench.BenchmarkInstance:
    if args.problem not in bench.PROBLEMS:
        raise ConfigError(f"unknown problem {args.problem!r}")
    ctor = bench.PROBLEMS[args.problem]
    if args.problem == "maxq":
        return ctor(args.n, feasible_set=args.set)
    if args.problem == "lasso":
        return ctor(args.n, args.p, rho=args.rho, seed=args.seed, variant=args.variant)
    if args.problem == "mifflin2":
        return ctor()
    return ctor(args.n)


def _run_single(args, n: int, out_path: str | None) -> None:
    ns = argparse.Namespace(**vars(args))
    ns.n = n
    inst = _build_instance(ns)
    rule = StepRule(kind=ns.step, T=ns.horizon, gamma=ns.gamma, monotone=ns.monotone)
    lines: list[str] = []
    meta = dict(inst.metadata)
    meta.update({"step": ns.step, "max_iters": ns.max_iters, "gap_tol": ns.gap_tol})
    lines.append("# " + json.dumps(meta, sort_keys=True))
    lines.append(CSV_HEADER)

    def sink(row):
        lines.append(
            f"{row.t},{row.alpha!r},{row.gap!r},{row.fval!r},"
            f"{row.inner_polyhedra},{row.lp_calls},{row.elapsed_ms}"
        )

    res = asfw_run(
        inst.tape, inst.C, inst.x0, rule,
        max_iters=ns.max_iters, gap_tol=ns.gap_tol,
        partial_inner_limit=ns.partial_inner_limit, trace_sink=sink,
    )
    inner = Counter(row.inner_status for row in res.trace.rows)
    counts = ",".join(f"{k}:{inner[k]}" for k in sorted(inner))
    warm = sum(row.warm_started for row in res.trace.rows)
    pivots = sum(row.lp_pivots for row in res.trace.rows)
    lines.append(f"# status={res.status.value} f_final={res.f_final!r} inner={counts} "
                 f"pivots={pivots} warm={warm}/{len(res.trace.rows)}")
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    if args.partial_inner_limit is not None and args.partial_inner_limit < 1:
        raise ConfigError("--partial-inner-limit must be at least 1")
    ns = [int(v) for v in str(args.n).split(",")]
    for n in ns:
        out = args.out
        if out and len(ns) > 1:
            root, ext = os.path.splitext(out)
            out = f"{root}_n{n}{ext}"
        _run_single(args, n, out)
    return 0


def cmd_aasm_table(args) -> int:
    if not 1 <= args.n_max <= 20:
        raise ConfigError("--n-max must be between 1 and 20")
    print("n  visited  target(2^(n-1))  bound(2^n)  pass  at_ones  psi          seconds")
    t_total = time.perf_counter()
    for n in range(1, args.n_max + 1):
        inst = bench.rosenbrock_nesterov2(n)
        form = affine_substitute(abs_linearize(inst.tape, inst.x0), 1.0, -inst.x0)
        t0 = time.perf_counter()
        res = aasm_minimize(form, inst.C, inst.x0)
        dt = time.perf_counter() - t0
        at_ones = bool(np.max(np.abs(res.v_star - 1.0)) <= 1e-8)
        ok = res.polyhedra_visited <= 2 ** n
        print(
            f"{n:<2d} {res.polyhedra_visited:<8d} {2**(n-1):<16d} {2**n:<11d} "
            f"{'yes' if ok else 'NO':<5s} {'yes' if at_ones else 'NO':<8s} "
            f"{res.psi_star:<12.3e} {dt:.2f}"
        )
    print(f"total {time.perf_counter() - t_total:.1f}s")
    return 0


def cmd_selftest(args) -> int:
    results = run_all(seed=args.seed)
    failed = 0
    for r in results:
        print(("PASS" if r.passed else "FAIL"), r.name, "-", r.detail)
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def _load_config_args(argv: list[str]) -> list[str]:
    """A --config file holds key=value lines; explicit flags override it.
    ``monotone``, the one switch, takes true or false."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise ConfigError("--config requires a file path") from None
    injected = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, value = (part.strip() for part in ln.partition("="))
            flag = f"--{key.replace('_', '-')}"
            if flag != "--monotone":
                injected += [flag, value]
            elif value in ("true", "false"):
                injected += [flag] if value == "true" else []
            else:
                raise ConfigError(f"bad config line {ln!r}: monotone takes true or false")
    rest = argv[:idx] + argv[idx + 2:]
    return [rest[0]] + injected + rest[1:] if rest else injected


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="absfw")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimization and write a CSV trace")
    run_p.add_argument("--problem", required=True)
    run_p.add_argument("--n", default="10")
    run_p.add_argument("--p", type=int, default=250)
    run_p.add_argument("--rho", type=float, default=1.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--set", default="C1", choices=("C1", "C2", "C3"))
    run_p.add_argument("--variant", default="box", choices=("box", "ordered"))
    run_p.add_argument("--step", default="sqrt", choices=("sqrt", "harmonic", "fixed", "short"))
    run_p.add_argument("--horizon", type=int, default=None)
    run_p.add_argument("--gamma", type=float, default=None)
    run_p.add_argument("--monotone", action="store_true")
    run_p.add_argument("--max-iters", type=int, default=500)
    run_p.add_argument("--gap-tol", type=float, default=1e-10)
    run_p.add_argument(
        "--partial-inner-limit", type=int, default=None,
        help="at most this many polyhedra (>= 1) per subproblem walk; the walk stops "
             "there only while a flip still needs an LP")
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(func=cmd_run)

    tab_p = sub.add_parser("aasm-table", help="per-dimension signature-method iteration counts")
    tab_p.add_argument("--n-max", type=int, default=10)
    tab_p.set_defaults(func=cmd_aasm_table)

    st_p = sub.add_parser("selftest", help="run the property suites")
    st_p.add_argument("--seed", type=int, default=0)
    st_p.set_defaults(func=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _load_config_args(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (LpError, AasmError, EvaluationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
