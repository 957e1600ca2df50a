import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from absfw import bench
from absfw.asfw import StepRule, asfw_run
from absfw.aasm import (
    _Lifted,
    AasmStatus,
    AasmError,
    aasm_minimize,
    local_optimality_test,
    brute_force_pl_min,
)
from absfw import aasm as aasm_mod
from absfw import lp as lpmod
from absfw.lp import DEFAULT_TOL, LpProblem, LpStatus
from absfw.plmodel import (
    AbsLinearForm, eval_pl, affine_substitute, restrict, signature, signature_constraints,
    switch_signs)
from absfw.polyhedron import Polyhedron, contains, cube, box, intersect
from absfw.randgen import random_pl_form, midpoint_convex
from absfw.rng import CounterRng
from absfw.tape import TapeBuilder, abs_linearize
from conftest import spy


def form_of(build, n, xbar):
    tb = TapeBuilder(n)
    expr = build(tb, tb.inputs())
    return abs_linearize(tb.build(expr), xbar)


@pytest.fixture
def abs_v_form():
    # psi(v) = |v| as a form in v itself (development point 0)
    return form_of(lambda tb, xs: tb.abs(xs[0]), 1, [0.0])


@pytest.fixture
def neg_abs_v_form():
    return form_of(lambda tb, xs: tb.scale(-1.0, tb.abs(xs[0])), 1, [0.0])


def rn2_form(n, x0):
    """Nonconvex piecewise-linear chain with 2^(n-1) stationary points; the
    tape is piecewise linear so its model at x0 reproduces it exactly.  The
    returned form is substituted to take v directly (not the offset v - x0)."""
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.scale(0.25, tb.abs(xs[0] - 1.0))
    for i in range(n - 1):
        expr = expr + tb.abs(xs[i + 1] - 2.0 * tb.abs(xs[i]) + 1.0)
    form = abs_linearize(tb.build(expr), x0)
    return affine_substitute(form, 1.0, -np.asarray(x0, dtype=float))


class TestAasmMinimize:
    def test_abs_on_interval(self, abs_v_form):
        res = aasm_minimize(abs_v_form, cube(1, 5.0), [3.0])
        assert res.status == AasmStatus.LOCAL_MIN
        np.testing.assert_allclose(res.v_star, [0.0], atol=1e-9)
        assert res.psi_star == pytest.approx(0.0, abs=1e-9)
        assert res.polyhedra_visited == 1

    def test_matches_brute_force_on_abs(self, abs_v_form):
        v, psi = brute_force_pl_min(abs_v_form, cube(1, 5.0))
        assert psi == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(v, [0.0], atol=1e-9)

    def test_affine_single_lp(self):
        form = form_of(lambda tb, xs: 2.0 * xs[0] - xs[1], 2, [0.0, 0.0])
        assert form.s == 0
        res = aasm_minimize(form, cube(2, 5.0), [1.0, 1.0])
        assert res.status == AasmStatus.LOCAL_MIN
        assert res.lp_calls == 1
        np.testing.assert_allclose(res.v_star, [-5.0, 5.0], atol=1e-9)

    def test_rn2_n2_table_row(self):
        x0 = np.array([-1.0, 1.0])
        form = rn2_form(2, x0)
        res = aasm_minimize(form, cube(2, 20.0), x0)
        assert res.status == AasmStatus.LOCAL_MIN
        np.testing.assert_allclose(res.v_star, [1.0, 1.0], atol=1e-8)
        assert res.psi_star == pytest.approx(0.0, abs=1e-8)
        assert res.polyhedra_visited == 2

    def test_rn2_n3_reaches_global(self):
        x0 = np.array([-1.0, 1.0, 1.0])
        form = rn2_form(3, x0)
        res = aasm_minimize(form, cube(3, 20.0), x0)
        np.testing.assert_allclose(res.v_star, np.ones(3), atol=1e-8)
        assert res.polyhedra_visited <= 2 ** 3
        v_oracle, psi_oracle = brute_force_pl_min(form, cube(3, 20.0))
        assert psi_oracle == pytest.approx(0.0, abs=1e-9)

    def test_monotone_descent_chain(self):
        # psi of each visited polyhedron by the oracle route: its affine
        # restriction minimized by a cold LP over C and its closure
        x0 = np.array([-1.0, 1.0, 1.0, 1.0])
        form, C = rn2_form(4, x0), cube(4, 20.0)
        res = aasm_minimize(form, C, x0)
        psis = [restricted_lp(form, C, sigma)[1] for sigma in res.visited_signatures]
        assert len(psis) == res.polyhedra_visited == 8
        assert all(b < a for a, b in zip(psis, psis[1:]))
        assert psis[-1] == pytest.approx(res.psi_star, abs=1e-9)

    def test_infeasible_start_rejected(self, abs_v_form):
        with pytest.raises(AasmError):
            aasm_minimize(abs_v_form, cube(1, 5.0), [11.0])

    def test_unboxed_set_rejected(self, abs_v_form):
        P = box([-5.0], [np.inf])
        with pytest.raises(AasmError):
            aasm_minimize(abs_v_form, P, [0.0])

    def test_dimension_mismatch_rejected(self, abs_v_form):
        with pytest.raises(ValueError, match="form has 1 variables but C has dimension 2"):
            aasm_minimize(abs_v_form, cube(2, 5.0), [0.0, 0.0])

    def test_warm_point_shape_rejected(self, abs_v_form):
        with pytest.raises(ValueError, match=r"warm point 1 has shape \(3,\), not \(1,\)"):
            aasm_minimize(abs_v_form, cube(1, 5.0), [0.0], warm_points=([0.0], np.zeros(3)))

    @pytest.mark.parametrize("nth, status, match", [
        (1, LpStatus.INFEASIBLE, "first LP infeasible"),
        (1, LpStatus.UNBOUNDED, "unbounded"),
        # RN2 n=3's first subproblem makes 4 LPs; an UNBOUNDED probe read as
        # psi = inf would end the walk LOCAL_MIN after 2
        (2, LpStatus.UNBOUNDED, "unbounded"),
    ], ids=["first-infeasible", "first-unbounded", "probe-unbounded"])
    def test_impossible_lp_outcome_raises(self, monkeypatch, nth, status, match):
        inst = bench.rosenbrock_nesterov2(3)
        form = affine_substitute(abs_linearize(inst.tape, inst.x0), 1.0, -inst.x0)
        assert aasm_minimize(form, inst.C, inst.x0).lp_calls == 4
        real, calls = lpmod.solve, []

        def failing(*args, **kwargs):
            sol = real(*args, **kwargs)
            calls.append(sol)
            return dataclasses.replace(sol, status=status) if len(calls) == nth else sol

        monkeypatch.setattr(lpmod, "solve", failing)
        with pytest.raises(AasmError, match=match):
            aasm_minimize(form, inst.C, inst.x0)
        assert len(calls) == nth

    def test_partial_inner_limit_descent(self, neg_abs_v_form):
        # the first LP reaches v = 5, where no kink is active: no flip is
        # left to solve, so the limit does not cut the walk short
        res = aasm_minimize(neg_abs_v_form, cube(1, 5.0), [0.5], partial_inner_limit=1)
        assert res.status == AasmStatus.LOCAL_MIN
        assert res.polyhedra_visited == 1
        psi_start, _ = eval_pl(neg_abs_v_form, [0.5])
        assert res.psi_star <= psi_start + 1e-12
        assert res.psi_star == pytest.approx(-5.0, abs=1e-12)

    def test_partial_inner_limit_stops_a_needed_lp(self, neg_abs_v_form):
        # from the pinned kink v = 0 both flips descend, and the limit stops
        # the walk before their LPs
        res = aasm_minimize(neg_abs_v_form, cube(1, 5.0), [0.0], partial_inner_limit=1)
        assert res.status == AasmStatus.INNER_LIMIT
        assert res.polyhedra_visited == res.lp_calls == 1
        assert res.psi_star == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_partial_inner_limit_below_one_rejected(self, neg_abs_v_form, limit):
        with pytest.raises(ValueError):
            aasm_minimize(neg_abs_v_form, cube(1, 5.0), [0.5], partial_inner_limit=limit)
        inst = bench.rosenbrock_nesterov2(4)
        with pytest.raises(ValueError):
            asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=3,
                     partial_inner_limit=limit)

    def test_pinned_start_takes_descent_flip(self, neg_abs_v_form):
        # the start polyhedron is the pinned kink v = 0; flipping it to +
        # descends to the box corner, where no kink is active
        res = aasm_minimize(neg_abs_v_form, cube(1, 5.0), [0.0])
        assert res.status == AasmStatus.LOCAL_MIN
        assert res.polyhedra_visited == 2
        np.testing.assert_array_equal(res.visited_signatures, [[0], [1]])
        assert res.psi_star == pytest.approx(-5.0, abs=1e-9)

    def test_visited_signature_count_bound(self):
        x0 = np.array([-1.0, 1.0, 1.0])
        form = rn2_form(3, x0)
        res = aasm_minimize(form, cube(3, 20.0), x0)
        assert res.polyhedra_visited <= 2 ** min(form.s, 20)
        assert len(res.visited_signatures) == res.polyhedra_visited


def convex_form(rng, n, s):
    """Random form with L = 0 and babs >= 0 (babs_0 = 0, so kink 0 enters
    the value only through b) and a dense strictly lower triangular M."""
    babs = rng.uniform(0.2, 1.5, size=s)
    babs[0] = 0.0
    return AbsLinearForm(
        n=n, s=s, Z=rng.normal(size=(s, n)), M=np.tril(rng.normal(scale=0.5, size=(s, s)), -1),
        L=np.zeros((s, s)), a=rng.normal(size=n), b=rng.normal(size=s), babs=babs,
        c=rng.normal(size=s), d=float(rng.normal()))


def ordered_chain(n, radius):
    """-radius <= v_1 <= ... <= v_n <= radius as n - 1 inequality rows."""
    Ain = np.eye(n - 1, n) - np.eye(n - 1, n, 1)
    return Polyhedron(Aeq=np.zeros((0, n)), beq=np.zeros(0), Ain=Ain, bin=np.zeros(n - 1),
                      lo=-radius * np.ones(n), hi=radius * np.ones(n))


def convex_pairs(form, convex):
    """The (z+_i, z-_i) column pairs of the kinks in the mask ``convex``."""
    return tuple((form.n + i, form.n + form.s + i) for i in np.flatnonzero(convex).tolist())


@pytest.fixture
def lifted_lps(monkeypatch):
    """Every ``_Lifted.solve`` call, as a ``Call``."""
    return spy(monkeypatch, _Lifted, "solve")


def posed(lifted_lps):
    """(twins, number of pinned z columns) of each LP in ``lifted_lps``."""
    return [(ws.twins, int(np.count_nonzero(ws.upper(sigma)[ws.form.n:] == 0)))
            for (ws, sigma, *_), _, _ in lifted_lps]


def crashed(lp_solves):
    """(problem, solution) of each LP in ``lp_solves`` solved from a start point."""
    return [(c.args[0], c.result) for c in lp_solves if c.kwargs.get("start") is not None]


def pivots(lp_solves) -> int:
    """Simplex pivots of the LPs in ``lp_solves``."""
    return sum(c.result.simplex_iters for c in lp_solves)


class TestConvexRoute:
    """Kinks with a zero L column and babs >= 0 are never pinned, and every
    LP passes their pairs as twins; a form of only such kinks is one LP."""

    @pytest.mark.parametrize("chain", [False, True])
    def test_random_forms_match_oracle(self, rng, lifted_lps, chain):
        for _ in range(8):
            form = convex_form(rng, n=3, s=6)
            assert form.M.any()
            C = ordered_chain(3, 2.0) if chain else cube(3, 2.0)
            start = np.sort(rng.uniform(-1.5, 1.5, size=3))
            res = aasm_minimize(form, C, start)
            _, psi_o = brute_force_pl_min(form, C)
            assert res.psi_star == pytest.approx(psi_o, rel=1e-9, abs=1e-9)
            assert contains(C, res.v_star)
            assert res.psi_star == pytest.approx(eval_pl(form, res.v_star)[0], rel=1e-9, abs=1e-9)
            assert res.status == AasmStatus.LOCAL_MIN
            assert (res.polyhedra_visited, res.lp_calls) == (1, 1)
            assert posed(lifted_lps)[-1] == (convex_pairs(form, np.ones(form.s, bool)), 0)
        assert len(lifted_lps) == 8

    @pytest.mark.parametrize("seed", range(10))
    def test_ordered_lasso_first_subproblem_is_global(self, seed, lifted_lps):
        # the single-flip walk stops above the minimum on most of these
        inst = bench.constrained_lasso(8, 12, seed=seed, variant="ordered")
        x = inst.x0
        form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
        res = aasm_minimize(form, inst.C, x)
        _, psi_o = brute_force_pl_min(form, inst.C)
        assert res.psi_star == pytest.approx(psi_o, rel=1e-9, abs=1e-9)
        assert contains(inst.C, res.v_star)
        assert posed(lifted_lps) == [(convex_pairs(form, np.ones(form.s, bool)), 0)]

    def test_partial_inner_limit_does_not_apply(self, abs_v_form, lifted_lps):
        res = aasm_minimize(abs_v_form, cube(1, 5.0), [3.0], partial_inner_limit=1)
        assert res.status == AasmStatus.LOCAL_MIN
        assert res.psi_star == pytest.approx(0.0, abs=1e-9)
        assert posed(lifted_lps) == [(((1, 2),), 0)]

    def test_negative_babs_walks(self, neg_abs_v_form, lifted_lps):
        res = aasm_minimize(neg_abs_v_form, cube(1, 5.0), [0.0])
        assert res.polyhedra_visited == 2
        assert lifted_lps and all(twins == () and pinned >= 1 for twins, pinned in posed(lifted_lps))

    def test_one_negative_babs_walks(self, rng, lifted_lps):
        # only kink 3 is pinned; the other five stay free in every LP
        form = convex_form(rng, n=3, s=6)
        babs = form.babs.copy()
        babs[3] = -0.5
        res = aasm_minimize(dataclasses.replace(form, babs=babs), cube(3, 2.0), np.zeros(3))
        assert res.lp_calls >= 1
        pairs = convex_pairs(form, np.arange(6) != 3)
        assert lifted_lps and all(twins == pairs and pinned >= 1 for twins, pinned in posed(lifted_lps))

    def test_nested_kinks_walk(self, lifted_lps):
        # |x_0| feeds the last kink (L != 0); |x_0 - 1| and the last are convex
        x0 = np.array([-1.0, 1.0])
        form = rn2_form(2, x0)
        assert form.L.any() and np.all(form.babs >= 0)
        res = aasm_minimize(form, cube(2, 20.0), x0)
        assert res.polyhedra_visited == 2
        convex = ~form.L.any(axis=0)
        assert np.count_nonzero(convex) == 2
        pairs = convex_pairs(form, convex)
        assert lifted_lps and all(twins == pairs and pinned >= 1 for twins, pinned in posed(lifted_lps))

    def test_infeasible_start_rejected(self, rng, lifted_lps):
        form = convex_form(rng, n=3, s=4)
        with pytest.raises(AasmError):
            aasm_minimize(form, ordered_chain(3, 2.0), np.array([1.0, 0.0, 0.0]))
        assert lifted_lps == []

    def test_unboxed_set_rejected(self, rng, lifted_lps):
        form = convex_form(rng, n=3, s=4)
        with pytest.raises(AasmError):
            aasm_minimize(form, box([-1.0] * 3, [1.0, 1.0, np.inf]), np.zeros(3))
        assert lifted_lps == []

    @pytest.mark.parametrize("chain", [False, True])
    def test_twins_keep_the_split_lp_value(self, rng, chain):
        for _ in range(8):
            form = convex_form(rng, n=3, s=6)
            C = ordered_chain(3, 2.0) if chain else cube(3, 2.0)
            start = np.sort(rng.uniform(-1.5, 1.5, size=3))
            ws = _Lifted(form, C)
            assert ws.twins == tuple((3 + i, 9 + i) for i in range(6))
            sigma = rng.integers(-1, 2, size=6)  # convex kinks ignore it
            assert np.all(ws.upper(sigma)[3:] == np.inf)
            crash = ws.crash(eval_pl(form, start)[1], start)
            _, psi = ws.solve(sigma, *crash)
            ws.twins = ()
            _, psi_plain = ws.solve(sigma, *crash)
            assert psi == pytest.approx(psi_plain, rel=1e-9, abs=1e-9)
            assert psi == pytest.approx(brute_force_pl_min(form, C)[1], rel=1e-9, abs=1e-9)

    def test_walk_lps_twin_only_the_convex_kinks(self, rng, lp_solves):
        form = convex_form(rng, n=3, s=6)
        babs = form.babs.copy()
        babs[3] = -0.5
        form = dataclasses.replace(form, babs=babs)
        convex = np.arange(6) != 3
        np.testing.assert_array_equal(_Lifted(form, cube(3, 2.0)).convex, convex)
        res = aasm_minimize(form, cube(3, 2.0), np.zeros(3))
        assert len(lp_solves) == res.lp_calls
        assert lp_solves and all(c.args[0].twins == convex_pairs(form, convex) for c in lp_solves)

    def test_lasso_bench_pivots(self, lp_solves):
        """Twins cross the LASSO kinks in one step each: 1,987 pivots over
        20 iterations without them, 996 with them."""
        inst = bench.constrained_lasso(50, 100, seed=0)
        asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=20)
        assert len(lp_solves) == 20
        assert pivots(lp_solves) <= 1192  # 0.6 x 1,987


class TestLocalOptimality:
    def test_abs_at_zero_is_local_min(self, abs_v_form):
        assert local_optimality_test(abs_v_form, cube(1, 5.0), [0.0])

    def test_neg_abs_at_zero_is_not(self, neg_abs_v_form):
        assert not local_optimality_test(neg_abs_v_form, cube(1, 5.0), [0.0])

    def test_no_active_kinks(self, abs_v_form):
        # v = 2 is not optimal over C, but the contract presumes LP-optimality;
        # use the positive-branch interior minimum of |v| over [1, 5] instead
        P = box([1.0], [5.0])
        assert local_optimality_test(abs_v_form, P, [1.0])

    def test_tied_kinks_are_not_minimal(self):
        # -|x| - |x| records two abs nodes on x, so z_2 = z_1 through M:
        # every single flip at 0 keeps the other kink pinned, and LOCAL_MIN
        # stops there, but both kinks flipped together descend to -10
        form = form_of(lambda tb, xs: tb.scale(-1.0, tb.abs(xs[0])) - tb.abs(xs[0]), 1, [0.0])
        assert form.M[1, 0] == 1.0
        C = cube(1, 5.0)
        res = aasm_minimize(form, C, [0.0])
        assert res.status == AasmStatus.LOCAL_MIN and res.psi_star == 0.0
        assert not local_optimality_test(form, C, res.v_star)
        assert brute_force_pl_min(form, C)[1] == -10.0

    @pytest.mark.parametrize("oracle, dim, v, match", [
        ("brute", 2, None, "form has 1 variables but C has dimension 2"),
        ("local", 2, np.zeros(2), "form has 1 variables but C has dimension 2"),
        ("local", 1, np.zeros(2), r"v has shape \(2,\) but C has dimension 1"),
    ], ids=["brute-force-set", "local-set", "local-point"])
    def test_dimension_mismatch_rejected(self, abs_v_form, oracle, dim, v, match):
        with pytest.raises(ValueError, match=match):
            if oracle == "brute":
                brute_force_pl_min(abs_v_form, cube(dim, 1.0))
            else:
                local_optimality_test(abs_v_form, cube(dim, 1.0), v)

    def test_point_outside_c_rejected(self, abs_v_form):
        # v = 0's domains meet [1, 2] only at 1, where |v| is higher, so the
        # test returned True for a point that is not in C
        with pytest.raises(ValueError, match="v is not in C"):
            local_optimality_test(abs_v_form, box([1.0], [2.0]), [0.0])
        assert local_optimality_test(abs_v_form, box([1.0], [2.0]), [1.0 - 0.5 * lpmod.WARM_TOL])

    @pytest.mark.parametrize("C, error, match", [
        (box([-1.0], [np.inf]), ValueError, r"feasible set must be bounded \(boxed\)"),
        (intersect(cube(1, 1.0), Aeq=[[1.0]], beq=[10.0]), AasmError,
         "no signature domain intersected the feasible set"),
    ], ids=["unboxed", "empty"])
    def test_brute_force_set_errors(self, abs_v_form, C, error, match):
        with pytest.raises(error, match=match):
            brute_force_pl_min(abs_v_form, C)

    def test_more_than_16_kinks_rejected(self):
        # maxq C2 n=20's optimum 0 lies on all 19 kinks
        inst = bench.maxq(20, "C2")
        x = np.zeros(20)
        form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
        assert np.count_nonzero(signature(form, x) == 0) == 19
        with pytest.raises(ValueError, match="16 kinks"):
            local_optimality_test(form, inst.C, x)


def sol_with_rc(ws, up, down):
    """A stand-in LP solution whose z+ and z- columns have reduced costs
    ``up`` and ``down``, every other column 0."""
    rc = np.zeros(ws.cost.size)
    rc[ws.plus], rc[ws.minus] = up, down
    return SimpleNamespace(dual_lo=np.maximum(rc, 0.0), dual_hi=np.maximum(-rc, 0.0))


class TestCandidateFlips:
    def test_largest_multiplier_first(self):
        # two pinned kinks: each is probed both ways, + before -, and the
        # kink with the larger |multiplier|, the half-difference of its z
        # columns' reduced costs, comes first
        def build(b1):
            return form_of(
                lambda tb, xs: tb.scale(-2.0, tb.abs(xs[0])) + tb.scale(b1, tb.abs(xs[1])),
                2, [0.0, 0.0],
            )
        ws = _Lifted(build(-2.0), cube(2, 1.0))
        sigma = signature(ws.form, [0.0, 0.0])
        np.testing.assert_array_equal(sigma, [0, 0])
        sol = sol_with_rc(ws, [-0.1, -5.0], [0.1, 5.0])
        assert ws.flips(sigma, sigma, sol) == [(1, 1, False), (1, -1, True), (0, 1, False), (0, -1, True)]
        # a convex kink is never a candidate
        ws = _Lifted(build(2.0), cube(2, 1.0))
        np.testing.assert_array_equal(ws.convex, [False, True])
        assert ws.flips(sigma, sigma, sol) == [(0, 1, False), (0, -1, True)]


class TestOracleSoundness:
    def test_convex_instances_match_oracle(self, rng):
        matched = 0
        for _ in range(12):
            form = random_pl_form(rng, n=3, s=5, convex=True)
            C = cube(3, float(rng.uniform(2, 5)))
            assert midpoint_convex(form, C.lo, C.hi, rng)
            start = rng.uniform(0.5 * C.lo, 0.5 * C.hi)
            res = aasm_minimize(form, C, start)
            v_o, psi_o = brute_force_pl_min(form, C)
            assert res.psi_star == pytest.approx(psi_o, abs=1e-8 * (1 + abs(psi_o)))
            matched += 1
        assert matched == 12

    def test_nonconvex_instances_sound(self, rng):
        for _ in range(8):
            form = random_pl_form(rng, n=3, s=5, convex=False)
            C = cube(3, 3.0)
            start = rng.uniform(-1.5, 1.5, size=3)
            res = aasm_minimize(form, C, start)
            _, psi_o = brute_force_pl_min(form, C)
            assert res.psi_star >= psi_o - 1e-8 * (1 + abs(psi_o))
            if res.status == AasmStatus.LOCAL_MIN:
                assert local_optimality_test(form, C, res.v_star)

    def test_dropped_flip_is_caught(self, rng, monkeypatch):
        """The oracle does not call ``_Lifted.flips``: with its first
        candidate dropped, the solver stops early at points the oracle
        rejects, where the same forms' true LOCAL_MIN results all pass."""
        real_flips = _Lifted.flips
        cases = []
        for _ in range(10):
            form, C = random_pl_form(rng, n=3, s=5, convex=False), cube(3, 3.0)
            start = rng.uniform(-1.5, 1.5, size=3)
            res = aasm_minimize(form, C, start)
            assert res.status != AasmStatus.LOCAL_MIN or local_optimality_test(form, C, res.v_star)
            cases.append((form, C, start))
        monkeypatch.setattr(_Lifted, "flips", lambda *args: real_flips(*args)[1:])
        rejected = 0
        for form, C, start in cases:
            res = aasm_minimize(form, C, start)
            if res.status == AasmStatus.LOCAL_MIN:
                rejected += not local_optimality_test(form, C, res.v_star)
        assert rejected > 0

    def test_brute_force_rejects_large_s(self, rng):
        form = random_pl_form(rng, n=2, s=17, convex=True)
        with pytest.raises(ValueError):
            brute_force_pl_min(form, cube(2, 1.0))


def pinned_form(rng, n, s, pins):
    """Random nonconvex form and a start point in [-1.5, 1.5]^n that lies on
    ``pins`` of its kinks: each chosen z_i is shifted to vanish there."""
    form = random_pl_form(rng, n=n, s=s, convex=False)
    start = rng.uniform(-1.5, 1.5, size=n)
    c = form.c.copy()
    for i in sorted(rng.choice(s, size=pins, replace=False)):
        c[i] -= eval_pl(dataclasses.replace(form, c=c), start)[1][i]
    return dataclasses.replace(form, c=c), start


class TestExhaustedExits:
    """Both POLYHEDRA_EXHAUSTED exits.  Every probe is solved (none priced
    out) and counts as a descent, so the walk accepts each new flip."""

    @pytest.fixture(autouse=True)
    def every_probe_descends(self, monkeypatch):
        monkeypatch.setattr(aasm_mod, "_descends", lambda psi_child, psi: True)
        real_flips = _Lifted.flips
        monkeypatch.setattr(_Lifted, "flips",
                            lambda *args: [(i, f, False) for i, f, _ in real_flips(*args)])

    def test_only_visited_polyhedra_descend(self):
        # z_1 = v, z_2 = |z_1| - 1, psi = |z_1| - |z_2| / 2, both kinks
        # nonconvex: from v = 0 the walk goes (0, -1) -> (+1, -1) -> (-1, -1),
        # whose one flip leads back
        form = AbsLinearForm(n=1, s=2, Z=[[1.0], [0.0]], M=np.zeros((2, 2)), L=[[0.0, 0.0], [1.0, 0.0]],
                             a=[0.0], b=[0.0, 0.0], babs=[1.0, -0.5], c=[0.0, -1.0], d=0.0)
        res = aasm_minimize(form, cube(1, 5.0), [0.0])
        assert res.status == AasmStatus.POLYHEDRA_EXHAUSTED
        assert [sig.tolist() for sig in res.visited_signatures] == [[0, -1], [1, -1], [-1, -1]]
        assert res.polyhedra_visited < 2 ** form.s
        assert res.lp_calls == 4  # the last probe solved the revisited polyhedron

    def test_cap_of_two_to_the_s_polyhedra(self):
        # psi = 3v - |v|: sigma = +1 has its optimum v = 0 at the kink, and
        # the new flip to -1 would be the third polyhedron, past 2^s = 2
        form = AbsLinearForm(n=1, s=1, Z=[[1.0]], M=[[0.0]], L=[[0.0]],
                             a=[3.0], b=[0.0], babs=[-1.0], c=[0.0], d=0.0)
        res = aasm_minimize(form, cube(1, 5.0), [0.0])
        assert res.status == AasmStatus.POLYHEDRA_EXHAUSTED
        assert [sig.tolist() for sig in res.visited_signatures] == [[0], [1]]
        assert res.lp_calls == 3


def restricted_lp(form, C, sigma):
    """(status, value) of the LP over the closure of sigma's domain, built
    from the affine restriction."""
    res = restrict(form, sigma)
    ref = lpmod.solve(LpProblem(c=res.g, P=intersect(C, *signature_constraints(res, sigma))))
    return ref.status, (res.h + res.g @ ref.x if ref.status == LpStatus.OPTIMAL else np.inf)


def best_over_convex_signs(form, C, sigma, convex):
    """The least restricted-LP value over the closures that keep sigma on
    the nonconvex kinks and give the convex kinks every sign (inf if none is
    feasible)."""
    best = np.inf
    idx = np.flatnonzero(convex)
    for signs in itertools.product((-1, 1), repeat=idx.size):
        sig2 = sigma.copy()
        sig2[idx] = signs
        best = min(best, restricted_lp(form, C, sig2)[1])
    return best


class TestLiftedLp:
    def test_matches_restricted_lp(self, rng):
        """The lifted LP of a signature has the status and value of the best
        LP over the closures that keep sigma on the nonconvex kinks and give
        the convex kinks every sign, built from the affine restriction."""
        C = cube(3, 3.0)
        statuses = set()
        free = 0
        for k in range(40):
            form, start = pinned_form(rng, n=3, s=5, pins=k % 3)
            sigma = signature(form, start)
            if k % 2:  # a neighbor, whose domain may miss C
                sigma[rng.integers(5)] = rng.integers(-1, 2)
            ws = _Lifted(form, C)
            sol, psi = ws.solve(sigma)
            free += np.count_nonzero(ws.convex)
            best = best_over_convex_signs(form, C, sigma, ws.convex)
            assert sol.status == (LpStatus.OPTIMAL if best < np.inf else LpStatus.INFEASIBLE)
            statuses.add(sol.status)
            if best < np.inf:
                assert psi == pytest.approx(best, rel=1e-9, abs=1e-9)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        assert free > 0


def resolve_public(lp_solves) -> int:
    """Rebuild each LP in ``lp_solves`` with the public ``Polyhedron`` and
    ``LpProblem``, whose checks must pass, and solve it again with the same
    warm start: the same bytes.  Returns the number of LPs."""
    recorded = list(lp_solves)  # the solves below are recorded too
    for (lp,), kwargs, sol in recorded:
        P = lp.P
        public = LpProblem(c=lp.c, twins=lp.twins, P=Polyhedron(
            Aeq=P.Aeq, beq=P.beq, Ain=P.Ain, bin=P.bin, lo=P.lo, hi=P.hi))
        again = lpmod.solve(public, **kwargs)
        assert (again.status, again.basis, again.simplex_iters) == (sol.status, sol.basis, sol.simplex_iters)
        assert np.float64(again.objective).tobytes() == np.float64(sol.objective).tobytes()
        for name in ("x", "dual_eq", "dual_in", "dual_lo", "dual_hi"):
            assert getattr(again, name).tobytes() == getattr(sol, name).tobytes()
    return len(recorded)


class TestCheckedOnce:
    """AASM poses its forms and LPs from checked data through the internal
    constructors, which check only the blocks AASM computes; these tests
    hold what it poses to the public checks."""

    @pytest.mark.parametrize("build, iters", [
        (lambda: bench.chained_lq(100), 2),
        (lambda: bench.maxq(20, "C2"), 200),
        (lambda: bench.constrained_lasso(50, 100, rho=1.0, seed=0, variant="box"), 3),
    ], ids=["chained_lq-n100", "maxq_C2-n20", "lasso_box-n50-p100"])
    def test_bench_lps_pass_the_public_checks(self, lp_solves, build, iters):
        inst = build()
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=iters)
        assert resolve_public(lp_solves) == sum(row.lp_calls for row in res.trace.rows) > 0

    def test_chain_forms_with_inequality_rows(self, rng, lp_solves):
        """Forms with chain rows (M or L entries) and a C with Ain rows, whose
        slacks enter the crash basis."""
        for _ in range(8):
            form = random_pl_form(rng, 3, 6, convex=False)
            assert form.chain
            C = intersect(cube(3, 2.0), Ain=rng.normal(size=(2, 3)), bin=np.ones(2))
            aasm_minimize(form, C, np.zeros(3))
        assert resolve_public(lp_solves) >= 8

    @pytest.mark.parametrize("block, match", [
        ("rows", "constraint rows must be finite"), ("cost", "objective must be finite")])
    def test_overflow_of_a_computed_block_rejected(self, block, match):
        """Every entry is finite, but M[1, 0] = L[1, 0] = 1e308 makes the
        lifted row's I - M - L entry -inf, and b = babs = 1e308 the cost
        b + babs.  ``_Lifted`` builds its blocks with overflow warnings off
        and reports an overflow by this ValueError alone, so no
        RuntimeWarning comes first (the suite turns warnings into errors)."""
        M, L = np.zeros((2, 2)), np.zeros((2, 2))
        b = np.array([1.0, 1.0])
        if block == "rows":
            M[1, 0] = L[1, 0] = 1e308
        else:
            b[0] = 1e308
        form = AbsLinearForm(n=1, s=2, Z=[[1.0], [1.0]], M=M, L=L, a=[0.0], b=b,
                             babs=b, c=[0.0, 0.0], d=0.0)
        with pytest.raises(ValueError, match=match):
            aasm_minimize(form, cube(1, 1.0), [0.5])


class TestProbePricing:
    def test_priced_out_flips_never_descend(self, rng, monkeypatch):
        """Every flip the parent's duals price out is re-solved by a cold LP,
        which must find no descent; each LOCAL_MIN is still first-order
        minimal by ``local_optimality_test``, which enumerates the kinks at
        the point on the restriction route.  On maxq C2 n=20 at iteration 3
        some priced flips pin a column that is basic at 0."""
        pricings = spy(monkeypatch, _Lifted, "flips")

        def margins(start):
            """(sigma_i of the parent, z_i's column basic, psi_child - psi +
            tol_dec) of each flip priced out from pricing ``start`` on."""
            out = []
            for (ws, sigma, _, sol), _, flips in pricings[start:]:
                for i, f, settled in flips:
                    if settled:
                        sig2 = sigma.copy()
                        sig2[i] = f
                        basic = sigma[i] != 0 and (ws.plus if sigma[i] > 0 else ws.minus)[i] in sol.basis
                        psi = sol.objective + ws.form.d
                        _, psi2 = ws.solve(sig2)
                        out.append((sigma[i], basic, psi2 - psi + DEFAULT_TOL * (1.0 + abs(psi))))
            return out

        C = cube(3, 3.0)
        local_mins = 0
        for _ in range(10):
            form, start = pinned_form(rng, n=3, s=5, pins=2)
            assert np.count_nonzero(signature(form, start) == 0) >= 2
            res = aasm_minimize(form, C, start)
            if res.status == AasmStatus.LOCAL_MIN:
                local_mins += 1
                assert local_optimality_test(form, C, res.v_star)
        assert local_mins > 0
        random = margins(0)
        assert any(sig_i == 0 for sig_i, _, _ in random)  # pinned kinks get priced
        assert any(sig_i != 0 for sig_i, _, _ in random)
        start = len(pricings)
        inst, rule = bench.maxq(20, "C2"), StepRule.open_loop_sqrt()
        x = asfw_run(inst.tape, inst.C, inst.x0, rule, max_iters=3).x_final
        form = affine_substitute(abs_linearize(inst.tape, x), rule.alpha(3), -rule.alpha(3) * x)
        aasm_minimize(form, inst.C, x)  # the subproblem of outer iteration 3
        priced = [settled for c in pricings[start:] for *_, settled in c.result]
        assert priced and all(priced)
        maxq = margins(start)
        assert any(basic for _, basic, _ in random + maxq)
        assert min(m for _, _, m in random + maxq) >= 0.0

    def test_pricing_saves_lps_on_maxq(self, monkeypatch):
        pricings = spy(monkeypatch, _Lifted, "flips")
        inst = bench.maxq(6, "C2")
        x = np.array([0.0, 1.0, 1.0, -1.0, -1.0, -1.0])  # four of five kinks at 0
        form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
        assert np.count_nonzero(signature(form, x) == 0) == 4
        res = aasm_minimize(form, inst.C, x)
        assert res.status == AasmStatus.LOCAL_MIN
        assert local_optimality_test(form, inst.C, res.v_star)
        # both signs of the three pinned nonconvex kinks and one flip of
        # kink 0; the fourth kink at 0, the root, is convex and never pinned
        probed = [flip for c in pricings for flip in c.result]
        assert len(probed) == 7
        assert res.lp_calls < len(probed)

    def test_redundant_row_basis_prices_probes(self):
        # at x = 0 every kink is pinned, and the crash basis keeps fixed z
        # columns basic in rows with no movable entry; that basis still
        # prices all ten single flips, so one LP suffices
        inst = bench.maxq(6, "C2")
        x = np.zeros(6)
        form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
        assert np.all(signature(form, x) == 0)
        res = aasm_minimize(form, inst.C, x)
        assert res.status == AasmStatus.LOCAL_MIN
        assert res.psi_star == 0.0
        assert res.lp_calls == 1
        assert local_optimality_test(form, inst.C, res.v_star)


def per_flip_verdict(ws, sol, i, f) -> bool:
    """The entering test of the one column a flip unpins, against the
    entering tolerance of the call's cost."""
    j = ws.form.n + i + (0 if f > 0 else ws.form.s)
    rc = sol.dual_lo[j] - sol.dual_hi[j]
    return bool(rc >= -lpmod.entering_tol(ws.cost))


class TestBatchedPricing:
    """``_Lifted.flips`` gives, for all flips of a polyhedron at once, the
    verdicts of the per-flip entering test bit for bit, with the one
    tolerance every LP of the call enters with."""

    @staticmethod
    def boundary_verdicts(ws, sigma):
        """The flips of sigma at a point where every kink is at 0, priced
        with every z column's reduced cost at the threshold and one ulp past
        it: (batched, per-flip) verdicts."""
        got, want = [], []
        for beyond in (False, True):
            rc = np.full(ws.form.s, -lpmod.entering_tol(ws.cost))
            if beyond:
                rc = np.nextafter(rc, -np.inf)
            sol = sol_with_rc(ws, rc, rc)
            flips = ws.flips(sigma, np.zeros(ws.form.s, int), sol)
            got += [settled for *_, settled in flips]
            want += [per_flip_verdict(ws, sol, i, f) for i, f, _ in flips]
        return got, want

    @pytest.mark.parametrize("b3", [0.5, 4.0], ids=["unique-largest", "tie"])
    def test_flipping_the_costliest_kink(self, b3):
        # four nonconvex kinks; free z columns of sigma = (0, +, -, +) cost
        # -5, 0 and -(b3 + 1); the flip of kink 1 unpins z-_1 (cost 3) and
        # pins the costliest column, yet the tolerance reads the cost alone:
        # 5 with or without a tie
        form = AbsLinearForm(n=2, s=4, Z=np.ones((4, 2)), M=np.zeros((4, 4)), L=np.zeros((4, 4)),
                             a=np.array([0.5, -0.25]), b=-np.array([0.0, 4.0, 1.0, b3]),
                             babs=-np.ones(4), c=np.zeros(4), d=0.0)
        ws = _Lifted(form, cube(2, 1.0))
        sigma = np.array([0, 1, -1, 1])
        got, want = self.boundary_verdicts(ws, sigma)
        assert got == want
        assert want.count(True) == want.count(False) == 5
        assert lpmod.entering_tol(ws.cost) == ws.enter_tol == DEFAULT_TOL * (1.0 + 5.0)

    def test_random_pinned_forms_at_the_boundary(self, rng):
        for k in range(20):
            form, start = pinned_form(rng, n=3, s=5, pins=k % 3)
            ws = _Lifted(form, cube(3, 3.0))
            got, want = self.boundary_verdicts(ws, rng.integers(-1, 2, size=5))
            assert got == want

    def test_walks_match_per_flip(self, rng, monkeypatch):
        pricings = spy(monkeypatch, _Lifted, "flips")
        for _ in range(10):
            form, start = pinned_form(rng, n=3, s=5, pins=2)
            aasm_minimize(form, cube(3, 3.0), start)
        for inst, iters in ((bench.maxq(6, "C2"), 500), (bench.maxq(20, "C2"), 200),
                            (bench.maxq(8, "C3"), 500)):
            asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=iters)
        compared = []
        for (ws, _, _, sol), _, flips in pricings:
            verdicts = [settled for *_, settled in flips]
            assert verdicts == [per_flip_verdict(ws, sol, i, f) for i, f, _ in flips]
            compared.extend(verdicts)
        assert len(compared) > 1000
        assert True in compared and False in compared

    def test_every_lp_of_a_call_enters_with_enter_tol(self, rng, monkeypatch, phase1_calls):
        """The simplex of each LP a walk solves, probes included, enters
        columns against the threshold ``flips`` prices with."""
        used = spy(monkeypatch, lpmod, "entering_tol")
        probes = 0
        for _ in range(10):
            form, start = pinned_form(rng, n=3, s=5, pins=2)
            ws = _Lifted(form, cube(3, 3.0))
            del used[:]
            res = aasm_minimize(form, cube(3, 3.0), start)
            assert len(used) == 1 + res.lp_calls  # the call's _Lifted, then one phase 2 per LP
            assert {c.result for c in used} == {ws.enter_tol}
            probes += res.lp_calls - 1
        assert probes > 0
        assert phase1_calls == []


class TestCrashStart:
    """The first LP of every call starts from the crash basis, at the start
    point or at a warm point (``TestWarmPoint``), and runs phase 2 only; C
    with equality rows falls back to a cold first LP."""

    def test_random_forms_skip_phase1(self, rng, phase1_calls, lp_solves):
        firsts = []  # the first LP of each call; probes start at their parent's point
        for k in range(30):
            if k % 3 == 0:
                form, C = convex_form(rng, n=3, s=6), cube(3, 2.0)
                start = rng.uniform(-1.5, 1.5, size=3)
            else:
                form, start = pinned_form(rng, n=3, s=5, pins=k % 3)
                C = cube(3, 3.0)
            before = len(lp_solves)
            aasm_minimize(form, C, start)
            firsts.append(crashed(lp_solves[before:])[0])
        assert phase1_calls == []
        assert len(firsts) == 30
        for problem, sol in firsts:  # the same LP solved cold
            cold = lpmod.solve(problem)
            assert sol.status == cold.status == LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        assert len(phase1_calls) == 30

    @pytest.mark.parametrize("build", [
        lambda: bench.chained_lq(100),
        lambda: bench.maxq(20, "C2"),
        lambda: bench.constrained_lasso(50, 100, rho=1.0, seed=0, variant="box"),
    ], ids=["chained_lq-n100", "maxq_C2-n20", "lasso_box-n50-p100"])
    def test_bench_subproblems_skip_phase1(self, build, phase1_calls, lp_solves):
        inst = build()
        asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=10)
        assert phase1_calls == []
        assert len(crashed(lp_solves)) >= 10

    def test_probes_start_at_the_parent_point(self, monkeypatch, phase1_calls, lp_solves):
        # a bias-free ReLU regression: kinks sit at 0 with their z column
        # basic, and a probe pins that column; hinted with the parent's basis
        # alone, most probes fell back to a cold phase 1
        d, h, p = 2, 2, 6
        g = CounterRng(11)
        X = g.normals(p * d).reshape(p, d)
        teacher = g.normals(h * d).reshape(h, d)
        y = np.maximum(X @ teacher.T, 0.0) @ [1.0, -1.0]
        tb = TapeBuilder(h * d)
        xs = tb.inputs()
        loss = []
        for k in range(p):
            units = [tb.affine(list(X[k]), xs[j * d:(j + 1) * d]) for j in range(h)]
            out = tb.scale(0.5, units[0] + tb.abs(units[0])) + tb.scale(-0.5, units[1] + tb.abs(units[1]))
            loss.append(tb.square(out - float(y[k])))
        tape = tb.build(tb.scale(1.0 / (2 * p), sum(loss[1:], loss[0])))
        x0 = g.normals(h * d).clip(-3, 3) / 6
        steps = spy(monkeypatch, lpmod._Simplex, "_pivot_on")
        res = asfw_run(tape, cube(h * d, 2.0), x0, StepRule.open_loop_sqrt(), max_iters=10)
        assert len(res.trace.rows) == 4
        assert phase1_calls == []
        assert len(crashed(lp_solves)) == 29  # 4 first LPs and 25 probes, all started at a point
        # 30 simplex steps and 24 swap-outs of pinned z columns from the starts
        assert (len(steps), sum(sol.simplex_iters for _, sol in crashed(lp_solves))) == (30, 54)
        assert res.f_final == pytest.approx(0.04475761357385325, rel=1e-12)

    def test_equality_row_solves_cold(self, rng, phase1_calls, lp_solves):
        # v_1 + v_2 + v_3 = 0 on the cube: no slack to crash that row with
        cube3 = cube(3, 2.0)
        C = Polyhedron(Aeq=np.ones((1, 3)), beq=np.zeros(1), Ain=np.zeros((0, 3)), bin=np.zeros(0),
                       lo=cube3.lo, hi=cube3.hi)
        for _ in range(5):
            form = convex_form(rng, n=3, s=6)
            start = rng.uniform(-0.5, 0.5, size=3)
            start -= start.mean()
            res = aasm_minimize(form, C, start)
            assert len(phase1_calls) == 1
            _, psi_o = brute_force_pl_min(form, C)
            assert res.psi_star == pytest.approx(psi_o, rel=1e-9, abs=1e-9)
            assert contains(C, res.v_star)
            # no crash, so a warm point goes unused
            again = aasm_minimize(form, C, start, warm_points=[res.v_star])
            assert same_result(again, res) and not again.warm_started
            del phase1_calls[:]
        assert crashed(lp_solves) == []


def same_result(a, b) -> bool:
    """Bit-identical AASM results."""
    return (a.v_star.tobytes() == b.v_star.tobytes() and a.psi_star == b.psi_star
            and a.status == b.status and a.warm_started == b.warm_started
            and (a.polyhedra_visited, a.lp_calls) == (b.polyhedra_visited, b.lp_calls)
            and [sig.tolist() for sig in a.visited_signatures]
            == [sig.tolist() for sig in b.visited_signatures])


class TestWarmPoint:
    """``warm_points`` move the first LP's crash basis and start to the one
    of least model value among those that lie in C and keep the signs the
    start's signature pins; with none of them, the call is the one without
    them.  The signature still comes from the start, so only where the
    first LP pivots from changes."""

    @pytest.mark.parametrize("t", [10, 30])
    def test_second_call_at_the_first_vertex_makes_no_pivot(self, t, monkeypatch, lp_solves):
        """The subproblem of maxq C2 n=20 at iteration t, solved again from
        its own vertex, makes no simplex step: its pivots only swap the
        pinned z columns of kinks at 0 there out of the crash basis.  At
        other iterations that vertex may still cost one step of length 0:
        the crash basis holds no v column, and a v column strictly inside
        its box is priced both ways."""
        inst, rule = bench.maxq(20, "C2"), StepRule.open_loop_sqrt()
        x = asfw_run(inst.tape, inst.C, inst.x0, rule, max_iters=t).x_final
        form = affine_substitute(abs_linearize(inst.tape, x), rule.alpha(t), -rule.alpha(t) * x)
        first = aasm_minimize(form, inst.C, x)
        assert pivots(lp_solves) > 0
        del lp_solves[:]
        steps = spy(monkeypatch, lpmod._Simplex, "_pivot_on")
        second = aasm_minimize(form, inst.C, x, warm_points=[first.v_star])
        assert second.warm_started and not first.warm_started
        assert steps == [] and second.lp_pivots == pivots(lp_solves) > 0
        assert (second.psi_star, second.status) == (first.psi_star, first.status)

    def test_point_outside_C_is_ignored(self, rng, monkeypatch):
        # every kink of these forms is convex, so only C decides
        crashes = spy(monkeypatch, _Lifted, "crash")
        C = cube(3, 2.0)
        lower = 0
        for k in range(10):
            form = convex_form(rng, n=3, s=6)
            start = rng.uniform(-1.5, 1.5, size=3)
            point = rng.uniform(-2.0, 2.0, size=3)
            point[k % 3] = 2.0 + 2 * lpmod.WARM_TOL
            res = aasm_minimize(form, C, start, warm_points=[point])
            assert same_result(res, aasm_minimize(form, C, start))
            assert not res.warm_started
            # passed over for the next point, even where its model value is lower
            inside = rng.uniform(-2.0, 2.0, size=3)
            assert aasm_minimize(form, C, start, warm_points=[point, inside]).warm_started
            assert crashes[-1].args[2] is inside
            lower += eval_pl(form, point)[0] < eval_pl(form, inside)[0]
            point[k % 3] = 2.0 + lpmod.WARM_TOL / 2
            assert aasm_minimize(form, C, start, warm_points=[point]).warm_started
        assert lower > 0

    def test_point_off_a_pinned_kink_is_ignored(self, rng, monkeypatch):
        crashes = spy(monkeypatch, _Lifted, "crash")
        checked = lower = 0
        for _ in range(20):
            form, start = pinned_form(rng, n=3, s=5, pins=2)
            C = cube(3, 3.0)
            pinned = ~_Lifted(form, C).convex & (signature(form, start) == 0)
            if not pinned.any():
                continue  # both kinks at the start are convex: none is pinned
            point = rng.uniform(-3.0, 3.0, size=3)
            assert np.all(signature(form, point)[pinned] != 0)
            res = aasm_minimize(form, C, start, warm_points=[point])
            assert same_result(res, aasm_minimize(form, C, start))
            assert not res.warm_started
            # with no admissible point the call is the one without warm points
            outside = start + [0.0, 0.0, 3.0 + 2 * lpmod.WARM_TOL - start[2]]
            assert same_result(aasm_minimize(form, C, start, warm_points=[point, outside]), res)
            # an admissible point after it is taken, even where its model value is higher
            vertex = _Lifted(form, C).solve(signature(form, start))[0].x[:3]
            assert aasm_minimize(form, C, start, warm_points=[point, vertex]).warm_started
            assert crashes[-1].args[2] is vertex
            lower += eval_pl(form, point)[0] < eval_pl(form, vertex)[0]
            checked += 1
        assert checked >= 10 and lower > 0

    def test_least_model_value_wins_and_a_tie_keeps_the_newer(self, rng, monkeypatch):
        """Of two admissible warm points, in either order, the crash is at the
        one of lower model value; of two equal ones, at the first (newer)."""
        crashes = spy(monkeypatch, _Lifted, "crash")
        C = cube(3, 2.0)
        for _ in range(10):
            form = convex_form(rng, n=3, s=6)  # every kink convex: all of C is admissible
            start = rng.uniform(-1.5, 1.5, size=3)
            low, high = sorted(rng.uniform(-2.0, 2.0, size=(2, 3)), key=lambda p: eval_pl(form, p)[0])
            assert eval_pl(form, low)[0] < eval_pl(form, high)[0]
            for points in ([low, high], [high, low]):
                assert aasm_minimize(form, C, start, warm_points=points).warm_started
                assert crashes[-1].args[2] is low
            twin = low.copy()
            aasm_minimize(form, C, start, warm_points=[twin, low])
            assert crashes[-1].args[2] is twin

    def test_first_lp_value_is_kept(self, rng, lifted_lps):
        """From a vertex of the start's closed domain, found by an LP with
        another cost, the first LP reaches the value it reaches from the
        start."""
        C = cube(3, 3.0)
        for k in range(30):
            form, start = pinned_form(rng, n=3, s=5, pins=k % 3)
            other = dataclasses.replace(form, a=rng.normal(size=3), b=rng.normal(size=5))
            vertex = _Lifted(other, C).solve(signature(form, start))[0].x[:3]
            before = len(lifted_lps)
            res = aasm_minimize(form, C, start, warm_points=[vertex])
            assert res.warm_started
            cold = aasm_minimize(form, C, start)
            psi_warm = lifted_lps[before].result[1]
            psi_cold = lifted_lps[before + res.lp_calls].result[1]
            assert psi_warm == pytest.approx(psi_cold, rel=1e-9, abs=0.0)
            assert eval_pl(form, res.v_star)[0] == pytest.approx(res.psi_star, rel=1e-9, abs=1e-12)
            assert contains(C, res.v_star)
            assert not cold.warm_started


class TestMixedForms:
    """Forms with convex and nonconvex kinks, checked through the
    affine-restriction route, which shares no code with ``_Lifted``."""

    @pytest.mark.parametrize("seed", range(10))
    def test_ordered_lasso_with_one_nonconvex_kink(self, seed):
        # babs_0 < 0 makes kink 0 the only one the walk pins; a walk that
        # pinned all eight kinks stopped above the minimum on 9 of 10 seeds
        inst = bench.constrained_lasso(8, 12, seed=seed, variant="ordered")
        x = inst.x0
        form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
        babs = form.babs.copy()
        babs[0] = -0.05
        form = dataclasses.replace(form, babs=babs)
        res = aasm_minimize(form, inst.C, x)
        _, psi_o = brute_force_pl_min(form, inst.C)
        assert res.psi_star == pytest.approx(psi_o, rel=1e-9, abs=1e-9)
        assert contains(inst.C, res.v_star)
        assert res.status == AasmStatus.LOCAL_MIN

    def test_local_min_against_restricted_enumeration(self, rng):
        """At each LOCAL_MIN the convex kinks' signs in the final signature
        give psi, no other signs of them do better, and no single flip of an
        active nonconvex kink descends."""
        local_mins = flips = mixed = 0
        for k in range(24):
            n = int(rng.integers(2, 4))
            form = random_pl_form(rng, n=n, s=int(rng.integers(4, 11)), convex=False)
            C = ordered_chain(n, 3.0) if k % 2 else cube(n, 3.0)
            res = aasm_minimize(form, C, np.sort(rng.uniform(-1.5, 1.5, size=n)))
            if res.status != AasmStatus.LOCAL_MIN:
                continue
            local_mins += 1
            convex = ~form.L.any(axis=0) & (form.babs >= 0)
            mixed += bool(convex.any() and not convex.all())
            sigma, psi = res.visited_signatures[-1], res.psi_star
            tol = 1e-8 * (1.0 + abs(psi))
            status, value = restricted_lp(form, C, sigma)
            assert status == LpStatus.OPTIMAL
            assert value == pytest.approx(psi, rel=1e-8, abs=1e-8)
            assert best_over_convex_signs(form, C, sigma, convex) >= psi - tol
            at_zero = switch_signs(form, res.v_star, eval_pl(form, res.v_star)[1]) == 0
            for i in np.flatnonzero(~convex & ((sigma == 0) | at_zero)):
                for f in {-1, 1} - {sigma[i]}:
                    sig2 = sigma.copy()
                    sig2[i] = f
                    assert best_over_convex_signs(form, C, sig2, convex) >= psi - tol
                    flips += 1
        assert local_mins >= 12 and flips > 0 and mixed > 0
