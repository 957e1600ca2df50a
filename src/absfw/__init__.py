"""Frank-Wolfe for abs-smooth functions over compact polyhedra.

Layers, bottom up: :mod:`absfw.tape` records abs-smooth functions and
abs-linearizes them with the compiled programs of :mod:`absfw.tape_program`,
:mod:`absfw.plmodel` handles the resulting piecewise
linear models, :mod:`absfw.lp` is a dense bounded-variable simplex,
:mod:`absfw.aasm` minimizes piecewise linear models over polyhedra by
successive signature-domain LPs, :mod:`absfw.asfw` is the outer conditional
gradient loop, and :mod:`absfw.bench` builds the standard test problems.
"""

from .tape import (
    Tape,
    TapeBuilder,
    EvalRecord,
    EvaluationError,
    evaluate,
    abs_linearize,
    directional_fd,
    tape_to_text,
    tape_from_text,
)
from .plmodel import (
    AbsLinearForm,
    AffineRestriction,
    eval_pl,
    delta_eval,
    signature,
    restrict,
    signature_constraints,
    affine_substitute,
    form_to_text,
    form_from_text,
)
from .polyhedron import Polyhedron, box, cube, contains, intersect
from .lp import LpProblem, LpSolution, LpStatus, LpError, solve, dump_lp
from .aasm import (
    AasmResult,
    AasmStatus,
    AasmError,
    aasm_minimize,
    local_optimality_test,
    brute_force_pl_min,
)
from .asfw import (
    StepRule,
    RunStatus,
    RunTrace,
    RunResult,
    TraceRow,
    generalized_gap,
    asfw_run,
    running_min,
    loglog_slope,
)
from .bench import BenchmarkInstance
from .rng import CounterRng
from . import bench

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
