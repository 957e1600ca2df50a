"""Golden trajectories: refactors of the solver must not change what it does.

``golden_trajectories.json`` holds, for each case, ``f_final``, the run
status and every trace row's (gap, fval, inner_polyhedra, lp_calls) as
recorded before the AASM probe loop was folded into ``aasm_minimize``.  The
chained LQ and box LASSO subproblems are convex in their kinks: the walk
pins none of them and its first LP leaves no flip, so those two cases hold 1
polyhedron and 1 LP per row; their floats are those of the older walk that
pinned every kink, which the one LP reproduces to a relative 1e-14.  On
maxq only the root kink is convex, and leaving it free keeps every integer.
The maxq rows were re-recorded when each subproblem's first LP began to
start at the previous subproblem's vertex: the integers stayed, and from
row 25 on the gaps and values, below 1e-6, moved by up to 3.5e-16 absolute
(1.4e-9 relative), as the LPs pick other vertices of tied optima.
The cases run the open-loop 1/sqrt(t+1) rule, apart from the short step on
mifflin2, recorded when its gap became the one re-evaluated at the vertex.
Integers must match exactly and floats to a relative 1e-12.  After a change
that is meant to alter trajectories, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from absfw import bench
from absfw.asfw import StepRule, asfw_run

GOLDEN = Path(__file__).with_name("golden_trajectories.json")

SQRT = StepRule.open_loop_sqrt()
CASES = {
    "maxq_C2-n6": (lambda: bench.maxq(6, "C2"), SQRT, dict(max_iters=500, gap_tol=1e-10)),
    "chained_lq-n5": (lambda: bench.chained_lq(5), SQRT, dict(max_iters=30)),
    "lasso_box-n8-p12-seed3": (
        lambda: bench.constrained_lasso(8, 12, seed=3, variant="box"), SQRT, dict(max_iters=10)),
    "mifflin2-short-g4": (bench.mifflin2, StepRule.short_step(4.0), dict(max_iters=60)),
}


def trajectory(name):
    build, rule, kwargs = CASES[name]
    inst = build()
    res = asfw_run(inst.tape, inst.C, inst.x0, rule, **kwargs)
    return {
        "f_final": res.f_final,
        "status": res.status.value,
        "rows": [[r.gap, r.fval, r.inner_polyhedra, r.lp_calls] for r in res.trace.rows],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = trajectory(name)
    assert got["status"] == want["status"]
    assert len(got["rows"]) == len(want["rows"])
    assert [r[2:] for r in got["rows"]] == [r[2:] for r in want["rows"]]
    np.testing.assert_allclose(
        [r[:2] for r in got["rows"]], [r[:2] for r in want["rows"]], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got["f_final"], want["f_final"], rtol=1e-12, atol=0.0)


if __name__ == "__main__":
    text = json.dumps({name: trajectory(name) for name in sorted(CASES)}, indent=1)
    # one trace row per line
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    GOLDEN.write_text(text + "\n")
