"""The dense LP core and its optimality certificates.

A solution is proven optimal by three checks that need no trust in the
solver: primal feasibility, dual feasibility with complementary slackness,
and matching primal/dual objective values.  The stationarity identity is

    c + Aeq' dual_eq + Ain' dual_in = pi_lo - pi_hi.
"""
import numpy as np

from absfw import LpProblem, Polyhedron, solve
from absfw.lp import dump_lp

P = Polyhedron(
    Aeq=np.array([[1.0, 1.0, 1.0]]), beq=np.array([3.0]),
    Ain=np.array([[1.0, -1.0, 0.0]]), bin=np.array([0.5]),
    lo=np.zeros(3), hi=np.array([2.0, 2.0, 2.0]),
)
lp = LpProblem(c=np.array([1.0, 2.0, -1.0]), P=P)
print(dump_lp(lp))

sol = solve(lp)
print("status   :", sol.status.value)
print("x        :", sol.x)
print("objective:", sol.objective)
print("row duals: eq", sol.dual_eq, " in", sol.dual_in)
print("bound duals: lo", sol.dual_lo, " hi", sol.dual_hi)

station = lp.c + P.Aeq.T @ sol.dual_eq + P.Ain.T @ sol.dual_in - sol.dual_lo + sol.dual_hi
print("stationarity residual:", np.max(np.abs(station)))
dual_obj = (-sol.dual_eq @ P.beq - sol.dual_in @ P.bin
            + sol.dual_lo @ P.lo - sol.dual_hi @ P.hi)
print("dual objective       :", dual_obj, " (matches primal)")

# warm starts: a basis is passed back with its point, which places the
# nonbasic columns; re-solving from the returned basis and x takes zero pivots
again = solve(lp, basis_hint=sol.basis, start=sol.x)
print("\nwarm re-solve pivots :", again.simplex_iters)

# a degenerate instance that cycles under naive pricing terminates here
beale = LpProblem(
    c=np.array([-0.75, 150.0, -0.02, 6.0]),
    P=Polyhedron(
        Aeq=np.zeros((0, 4)), beq=np.zeros(0),
        Ain=np.array([[0.25, -60.0, -0.04, 9.0],
                      [0.5, -90.0, -0.02, 3.0],
                      [0.0, 0.0, 1.0, 0.0]]),
        bin=np.array([0.0, 0.0, 1.0]),
        lo=np.zeros(4), hi=np.full(4, np.inf),
    ),
)
bs = solve(beale)
print("degenerate instance  :", bs.status.value, "objective", bs.objective,
      f"({bs.simplex_iters} pivots)")
