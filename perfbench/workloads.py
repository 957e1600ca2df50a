"""The benchmark's workloads: instance builders and the references their
results are checked against.

All three run the open-loop 1/sqrt(t+1) rule from the standard start points
of ``absfw.bench``.  Only the LASSO data depends on the seed; chained LQ and
max-of-squares are fixed problems, so their work is the same for every seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from absfw import bench
from absfw.asfw import RunStatus

import checks


@dataclass(frozen=True)
class Reference:
    f_closed: Callable[[np.ndarray], float]  # objective in closed form
    f_star: float                            # optimal value
    f_floor: float | None = None             # every iterate stays at or above


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], bench.BenchmarkInstance]
    reference: Callable[[bench.BenchmarkInstance], Reference]
    max_iters: int
    expect_status: RunStatus | None = None


CHAINED_LQ_N = 100
MAXQ_N = 20
LASSO_N, LASSO_P, LASSO_RHO = 50, 100, 1.0


def _chained_lq_ref(inst) -> Reference:
    def f(x):
        u = -x[:-1] - x[1:]
        return float(np.sum(np.maximum(u, u + x[:-1] ** 2 + x[1:] ** 2 - 1.0)))
    return Reference(f_closed=f, f_star=-(CHAINED_LQ_N - 1) * math.sqrt(2.0))


def _maxq_ref(inst) -> Reference:
    return Reference(f_closed=lambda x: float(np.max(x * x)), f_star=0.0)


def _lasso_ref(inst) -> Reference:
    A, y = bench.lasso_design(LASSO_N, LASSO_P, inst.metadata["seed"])
    fstar = checks.fista_lasso(A, y, LASSO_RHO, inst.C.lo, inst.C.hi)
    return Reference(f_closed=checks.lasso_objective(A, y, LASSO_RHO), f_star=fstar, f_floor=fstar)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chained_lq-n100",
            build=lambda seed: bench.chained_lq(CHAINED_LQ_N),
            reference=_chained_lq_ref,
            max_iters=5,
        ),
        Workload(
            name="maxq_C2-n20",
            build=lambda seed: bench.maxq(MAXQ_N, "C2"),
            reference=_maxq_ref,
            max_iters=200,
            expect_status=RunStatus.GAP_TOL_REACHED,
        ),
        Workload(
            name="lasso_box-n50-p100",
            build=lambda seed: bench.constrained_lasso(LASSO_N, LASSO_P, rho=LASSO_RHO, seed=seed, variant="box"),
            reference=_lasso_ref,
            max_iters=20,
        ),
    )
}
