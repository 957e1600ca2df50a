import dataclasses

import numpy as np
import pytest

from absfw import bench
from absfw.aasm import (
    _Lifted,
    AasmOptions,
    AasmStatus,
    AasmError,
    aasm_minimize,
    local_optimality_test,
    choose_next_polyhedron,
    brute_force_pl_min,
    FLIP_LOWEST_INDEX,
)
from absfw.plmodel import eval_pl, affine_substitute, signature
from absfw.polyhedron import cube, box
from absfw.randgen import random_pl_form, midpoint_convex
from absfw.tape import TapeBuilder, abs_linearize


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
        x0 = np.array([-1.0, 1.0, 1.0, 1.0])
        form = rn2_form(4, x0)
        lines = []
        res = aasm_minimize(form, cube(4, 20.0), x0, trace_sink=lines.append)
        psis = [float(ln.split()[1]) for ln in lines]
        assert len(psis) == res.polyhedra_visited
        assert all(b < a for a, b in zip(psis, psis[1:]))

    def test_infeasible_start_rejected(self, abs_v_form):
        with pytest.raises(AasmError):
            aasm_minimize(abs_v_form, cube(1, 5.0), [11.0])

    def test_unboxed_set_rejected(self, abs_v_form):
        P = box([-5.0], [np.inf])
        with pytest.raises(AasmError):
            aasm_minimize(abs_v_form, P, [0.0])

    def test_partial_inner_limit_descent(self, neg_abs_v_form):
        res = aasm_minimize(
            neg_abs_v_form, cube(1, 5.0), [0.5],
            AasmOptions(partial_inner_limit=1),
        )
        assert res.status == AasmStatus.INNER_LIMIT
        assert res.polyhedra_visited == 1
        psi_start, _ = eval_pl(neg_abs_v_form, [0.5])
        assert res.psi_star <= psi_start + 1e-12

    def test_max_polyhedra_budget(self):
        x0 = np.array([-1.0, 1.0, 1.0, 1.0])
        form = rn2_form(4, x0)
        res = aasm_minimize(form, cube(4, 20.0), x0, AasmOptions(max_polyhedra=2))
        assert res.status == AasmStatus.POLYHEDRA_EXHAUSTED
        assert res.polyhedra_visited == 2

    def test_visited_signature_count_bound(self):
        x0 = np.array([-1.0, 1.0, 1.0])
        form = rn2_form(3, x0)
        res = aasm_minimize(form, cube(3, 20.0), x0)
        assert res.polyhedra_visited <= 2 ** min(form.s, 20)
        assert len(res.visited_signatures) == res.polyhedra_visited


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


class TestChooseNext:
    def test_returns_unvisited_descent_flip(self, neg_abs_v_form):
        nxt = choose_next_polyhedron(
            neg_abs_v_form, cube(1, 5.0), [0.0], visited=[np.array([1])]
        )
        np.testing.assert_array_equal(nxt, [-1])

    def test_exhaustion_returns_none(self, neg_abs_v_form):
        nxt = choose_next_polyhedron(
            neg_abs_v_form, cube(1, 5.0), [0.0],
            visited=[np.array([1]), np.array([-1])],
        )
        assert nxt is None

    def test_dual_ordering_controls_choice(self):
        # both kink flips descend equally; the dual magnitudes break the tie
        form = form_of(
            lambda tb, xs: tb.scale(-2.0, tb.abs(xs[0])) + tb.scale(-2.0, tb.abs(xs[1])),
            2, [0.0, 0.0],
        )
        duals = np.array([-0.1, -5.0])
        nxt = choose_next_polyhedron(form, cube(2, 1.0), [0.0, 0.0], duals=duals)
        assert nxt is not None and nxt[1] != 0  # kink with largest multiplier flips
        nxt_low = choose_next_polyhedron(
            form, cube(2, 1.0), [0.0, 0.0], duals=duals,
            opts=AasmOptions(flip_rule=FLIP_LOWEST_INDEX),
        )
        assert nxt_low is not None and nxt_low[0] != 0


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


class TestProbePricing:
    def test_priced_out_flips_never_descend(self, rng, monkeypatch):
        """Every flip the parent's duals price out is re-solved by a cold LP,
        which must find no descent; LOCAL_MIN still agrees with the cold-LP
        reference ``local_optimality_test``."""
        real_solve, real_keeps = _Lifted.solve, _Lifted.keeps_basis
        signature_of = {}  # id of an LP solution -> (solution, its signature)
        margins = []       # (sigma_i of the parent, psi_child - psi + tol_dec)

        def solve(self, sigma, hint):
            sol, psi = real_solve(self, sigma, hint)
            signature_of[id(sol)] = (sol, sigma.copy())
            return sol, psi

        def keeps_basis(self, sol, i, f):
            kept = real_keeps(self, sol, i, f)
            if kept:
                sigma = signature_of[id(sol)][1]
                sig2 = sigma.copy()
                sig2[i] = f
                psi = sol.objective + self.form.d
                _, psi2 = real_solve(self, sig2, None)
                margins.append((sigma[i], psi2 - psi + self.tol_lp * (1.0 + abs(psi))))
            return kept

        monkeypatch.setattr(_Lifted, "solve", solve)
        monkeypatch.setattr(_Lifted, "keeps_basis", keeps_basis)
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
        assert any(sig_i == 0 for sig_i, _ in margins)  # pinned kinks get priced
        assert any(sig_i != 0 for sig_i, _ in margins)
        assert min(m for _, m in margins) >= 0.0

    def test_pricing_saves_lps_on_maxq(self, monkeypatch):
        real_keeps = _Lifted.keeps_basis
        probed = []

        def keeps_basis(self, sol, i, f):
            probed.append((i, f))
            return real_keeps(self, sol, i, f)

        monkeypatch.setattr(_Lifted, "keeps_basis", keeps_basis)
        inst = bench.maxq(6, "C2")
        x = np.array([0.0, 1.0, 1.0, -1.0, -1.0, -1.0])  # four of five kinks at 0
        form = affine_substitute(abs_linearize(inst.tape, x), 1.0, -x)
        assert np.count_nonzero(signature(form, x) == 0) == 4
        res = aasm_minimize(form, inst.C, x)
        assert res.status == AasmStatus.LOCAL_MIN
        assert local_optimality_test(form, inst.C, res.v_star)
        assert len(probed) == 9  # both signs of each pinned kink, one flip of the other
        assert res.lp_calls < len(probed)
