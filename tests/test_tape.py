import heapq
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from absfw.tape import (
    Tape,
    TapeBuilder,
    TapeError,
    TapeNode,
    EvaluationError,
    evaluate,
    abs_linearize,
    directional_fd,
    tape_to_text,
    tape_from_text,
)
from absfw import bench
from absfw.asfw import StepRule, asfw_run
from absfw.plmodel import delta_eval, eval_pl
from absfw.polyhedron import cube
from absfw.randgen import random_tape

import tape_reference
from conftest import spy


class TestEvaluate:
    def test_three_kink_max_at_zero(self, three_kink_max):
        rec = evaluate(three_kink_max, [0.0])
        np.testing.assert_allclose(rec.z, [1.0, 2.0, 3.0])
        assert rec.y == pytest.approx(1.0)

    def test_three_kink_max_at_minus_half(self, three_kink_max):
        rec = evaluate(three_kink_max, [-0.5])
        np.testing.assert_allclose(rec.z, [0.5, 0.0, 0.5])
        assert rec.y == pytest.approx(0.0)

    def test_three_kink_matches_max(self, three_kink_max):
        for x in np.linspace(-3, 3, 41):
            rec = evaluate(three_kink_max, [x])
            assert rec.y == pytest.approx(max(0.0, x, 2 * x + 1), abs=1e-14)

    def test_pure_smooth_square(self, square_tape):
        rec = evaluate(square_tape, [3.0])
        assert square_tape.num_switch == 0
        assert rec.y == pytest.approx(9.0)

    def test_abs_values_match_switching(self, three_kink_max):
        # slot i is the i-th abs node; z_i is its argument's value
        rec = evaluate(three_kink_max, [0.7])
        kinks = [j for j, node in enumerate(three_kink_max.nodes) if node.op == "abs"]
        assert len(kinks) == len(rec.z) == 3
        for slot, j in enumerate(kinks):
            assert rec.z[slot] == rec.values[three_kink_max.nodes[j].args[0]]
            assert rec.values[j] == abs(rec.z[slot])

    def test_mifflin_value(self, mifflin2_tape):
        assert evaluate(mifflin2_tape, [-1.8, 1.8]).y == pytest.approx(
            1.8 + 2 * 5.48 + 1.75 * 5.48
        )

    def test_overflow_reports_node(self):
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.exp(tb.square(tb.exp(x))))
        with pytest.raises(EvaluationError, match="node 3: exp overflow") as err:
            evaluate(tape, [100.0])
        assert err.value.node == 3
        # nodes 2 and 3 run as one group; only the second overflows
        tb = TapeBuilder(2)
        u, v = tb.inputs()
        tape = tb.build(tb.exp(u) + tb.exp(v))
        with pytest.raises(EvaluationError, match="node 3: exp overflow") as err:
            evaluate(tape, [1.0, 1000.0])
        assert err.value.node == 3

    @pytest.mark.parametrize("build, x, node, op", [
        (lambda tb, u, v: tb.square(u), [1e200, 0.0], 2, "square"),
        (lambda tb, u, v: u * v, [1e200, 1e200], 2, "mul"),
        (lambda tb, u, v: u + v, [1.5e308, 1.5e308], 2, "add"),
        (lambda tb, u, v: tb.scale(1e300, u), [1e10, 0.0], 2, "scale"),
        # sin reads the infinity: the square is named, and sin raises nothing
        (lambda tb, u, v: tb.sin(tb.square(u)), [1e200, 0.0], 2, "square"),
        # the exp overflows at a lower level, but the second square comes
        # first in tape order
        (lambda tb, u, v: tb.square(tb.square(u)) + tb.exp(v), [1e100, 1e3], 3, "square"),
    ], ids=["square", "mul", "add", "scale", "sin-of-inf", "tape-order"])
    def test_overflow_in_arithmetic_reports_node(self, build, x, node, op):
        # pytest turns warnings into errors, so none may escape
        tb = TapeBuilder(2)
        tape = tb.build(build(tb, *tb.inputs()))
        with pytest.raises(EvaluationError, match=f"node {node}: non-finite value in {op}") as err:
            evaluate(tape, x)
        assert err.value.node == node

    def test_non_finite_input_reports_its_node(self, abs_tape):
        with pytest.raises(EvaluationError, match="node 0: non-finite value in input"):
            evaluate(abs_tape, [np.nan])


class TestAbsLinearize:
    def test_abs_x_structure(self, abs_tape):
        form = abs_linearize(abs_tape, [1.0])
        assert form.s == 1
        np.testing.assert_allclose(form.c, [1.0])
        np.testing.assert_allclose(form.Z, [[1.0]])
        fbar = evaluate(abs_tape, [1.0]).y
        assert delta_eval(form, fbar, [0.5]) == pytest.approx(0.5)
        assert delta_eval(form, fbar, [-3.0]) == pytest.approx(1.0)

    def test_mifflin_delta(self, mifflin2_tape):
        xbar = np.array([-1.8, 1.8])
        form = abs_linearize(mifflin2_tape, xbar)
        fbar = evaluate(mifflin2_tape, xbar).y
        assert delta_eval(form, fbar, [0.1, 0.0]) == pytest.approx(-1.45)

    def test_smooth_square_gradient(self, square_tape):
        form = abs_linearize(square_tape, [3.0])
        fbar = evaluate(square_tape, [3.0]).y
        assert delta_eval(form, fbar, [1.0]) == pytest.approx(6.0)
        np.testing.assert_allclose(form.a, [6.0])

    def test_strict_lower_triangularity(self, three_kink_max):
        form = abs_linearize(three_kink_max, [0.3])
        assert np.all(np.triu(form.M) == 0)
        assert np.all(np.triu(form.L) == 0)

    def test_consistency_at_zero(self, mifflin2_tape):
        for xbar in ([0.2, -1.4], [-1.8, 1.8], [1.0, 0.0]):
            fbar = evaluate(mifflin2_tape, xbar).y
            form = abs_linearize(mifflin2_tape, xbar)
            value, _ = eval_pl(form, np.zeros(2))
            assert abs(value - fbar) <= 1e-12 * (1 + abs(fbar))

    def test_value_row_example(self, three_kink_max):
        # y = 0.25*(3x+1+|z3|): slope 0.75 on dx plus 0.25 on |z3|
        form = abs_linearize(three_kink_max, [0.0])
        np.testing.assert_allclose(form.a, [0.75])
        np.testing.assert_allclose(form.babs, [0.0, 0.0, 0.25])
        np.testing.assert_allclose(form.c, [1.0, 1.0, 0.0])

    def test_model_matches_function_on_pl_tape(self, three_kink_max):
        # the tape is already piecewise linear, so the model is exact
        form = abs_linearize(three_kink_max, [0.25])
        fbar = evaluate(three_kink_max, [0.25]).y
        for dx in np.linspace(-2, 2, 17):
            exact = evaluate(three_kink_max, [0.25 + dx]).y
            assert delta_eval(form, fbar, [dx]) == pytest.approx(exact - fbar, abs=1e-12)

    @pytest.mark.parametrize("build, x, node, op", [
        # node 3's tangent 1e200 cos(.) 1e200 overflows: the form would hold
        # Z = [[inf]], and the run fail in phase 1
        (lambda tb, x: tb.abs(tb.sin(tb.scale(1e200, tb.sin(tb.scale(1e200, x))))), 0.3, 3, "scale"),
        # p + p overflows in the record only; the chain of adds 2, 3 and 4 is
        # one accumulate, named by its last add
        (lambda tb, x: (lambda p: p + p + x + x)(tb.scale(1e308, x)), 1e-10, 4, "add"),
    ], ids=["tangent", "chain"])
    def test_non_finite_record_reports_node(self, build, x, node, op):
        tb = TapeBuilder(1)
        tape = tb.build(build(tb, *tb.inputs()))
        assert np.isfinite(evaluate(tape, [x]).values).all()
        with pytest.raises(EvaluationError, match=f"node {node}: non-finite linearization of {op}") as err:
            abs_linearize(tape, [x])
        assert err.value.node == node
        with pytest.raises(EvaluationError, match=f"node {node}"):
            asfw_run(tape, cube(1, 1.0), [x], StepRule.open_loop_sqrt(), max_iters=5)


class TestSwitchSlots:
    def test_two_abs_chain_slots_follow_node_order(self):
        # |x| feeds a second abs, so slot 1 depends on slot 0; the slots are
        # the abs nodes' ranks, and no table can order them otherwise
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.abs(tb.abs(x) - 1.0))  # abs nodes 1 and 4
        assert [j for j, node in enumerate(tape.nodes) if node.op == "abs"] == [1, 4]
        assert tape_from_text(tape_to_text(tape)) == tape
        np.testing.assert_array_equal(evaluate(tape, [0.5]).z, [0.5, -0.5])
        form = abs_linearize(tape, [0.5])
        np.testing.assert_array_equal(form.L, [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(TypeError):
            Tape(nodes=tape.nodes, num_inputs=1, output=4, switch_index={1: 1, 4: 0})


class TestDirectionalFd:
    def test_abs_at_kink_right(self, abs_tape):
        assert directional_fd(abs_tape, [0.0], [1.0], 1e-6) == pytest.approx(1.0)

    def test_abs_at_kink_left(self, abs_tape):
        assert directional_fd(abs_tape, [0.0], [-1.0], 1e-6) == pytest.approx(1.0)

    def test_square_slope(self, square_tape):
        assert directional_fd(square_tape, [3.0], [1.0], 1e-6) == pytest.approx(6.0, abs=1e-5)

    def test_rejects_bad_step(self, abs_tape):
        with pytest.raises(ValueError):
            directional_fd(abs_tape, [0.0], [1.0], 0.0)

    def test_rejects_nan_step(self, abs_tape):
        # h <= 0 is False for NaN
        with pytest.raises(ValueError, match="h must be positive"):
            directional_fd(abs_tape, [0.0], [1.0], float("nan"))


class TestSmoothCollapse:
    def test_gradient_matches_central_differences(self, rng):
        from absfw.randgen import random_tape
        from absfw.plmodel import eval_pl

        checked = 0
        for _ in range(12):
            tape = random_tape(rng, 3, n_ops=14, p_abs=0.0)
            assert tape.num_switch == 0
            xbar = rng.uniform(-1, 1, size=3)
            form = abs_linearize(tape, xbar)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (evaluate(tape, xbar + e).y - evaluate(tape, xbar - e).y) / (2 * h)
                assert form.a[k] == pytest.approx(fd, rel=1e-6, abs=1e-6)
                checked += 1
            # the increment is exactly the gradient pairing when s = 0
            dx = rng.uniform(-0.5, 0.5, size=3)
            assert eval_pl(form, dx)[0] - eval_pl(form, np.zeros(3))[0] == pytest.approx(
                form.a @ dx, rel=1e-12, abs=1e-12
            )
        assert checked == 36

    def test_exp_tangent_matches_central_differences(self):
        # exp under an abs and on its own; both away from the kink at xbar.
        # The tangent's constant term is exp(a) - exp(a) a, which rounds
        # differently from exp(a) (1 - a), so compare by differences, not bits
        tb = TapeBuilder(2)
        x0, x1 = tb.inputs()
        z = tb.exp(x0 * x1) - 1.5
        tape = tb.build(tb.abs(z) + tb.exp(tb.scale(-0.5, x1)))
        xbar = np.array([0.3, -0.8])
        rec = evaluate(tape, xbar)
        form = abs_linearize(tape, xbar, rec)
        assert form.c[0] == pytest.approx(rec.z[0], rel=1e-14)
        assert eval_pl(form, np.zeros(2))[0] == pytest.approx(rec.y, rel=1e-14)
        h = 1e-5
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dz = (evaluate(tape, xbar + e).z[0] - evaluate(tape, xbar - e).z[0]) / (2 * h)
            assert form.Z[0, k] == pytest.approx(dz, rel=1e-8)
            fd = (evaluate(tape, xbar + e).y - evaluate(tape, xbar - e).y) / (2 * h)
            model = (eval_pl(form, e)[0] - eval_pl(form, -e)[0]) / (2 * h)
            assert model == pytest.approx(fd, rel=1e-8)


class TestSerialization:
    def test_round_trip_three_kink(self, three_kink_max):
        text = tape_to_text(three_kink_max)
        back = tape_from_text(text)
        assert back.num_inputs == three_kink_max.num_inputs
        assert back.num_switch == three_kink_max.num_switch
        for x in (-1.3, 0.0, 0.7772, 1 / 3):
            assert evaluate(back, [x]).y == evaluate(three_kink_max, [x]).y

    def test_round_trip_bit_exact_constants(self):
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(0.1 * x + (2.0 / 3.0))
        back = tape_from_text(tape_to_text(tape))
        consts = [nd.value for nd in back.nodes if nd.op in ("const", "scale")]
        assert 0.1 in consts and 2.0 / 3.0 in consts

    def test_header(self, mifflin2_tape):
        head = tape_to_text(mifflin2_tape).splitlines()[0]
        assert head == "n=2 s=1"

    def test_output_must_be_last_node(self):
        from absfw.tape import TapeError

        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        y = tb.square(x)
        tb.abs(x)  # dead node recorded after the output
        with pytest.raises(TapeError):
            tape_to_text(tb.build(y))

    def test_malformed_text_rejected(self):
        from absfw.tape import TapeError

        with pytest.raises(TapeError):
            tape_from_text("not a header\n0 input 0\n")
        with pytest.raises(TapeError):
            tape_from_text("n=1 s=0\n0 frobnicate 0\n")

    @pytest.mark.parametrize("text, line", [
        ("", ""),
        ("n=1\n0 input 0\n", "n=1"),
        ("n=-1 s=0\n0 const 1.0\n", "n=-1 s=0"),
        ("n=1 s=x\n0 input 0\n", "n=1 s=x"),
        ("n=1 s=0 q=7\n0 input 0\n", "n=1 s=0 q=7"),
        ("n=1 n=2 s=0\n0 input 0\n", "n=1 n=2 s=0"),
        ("s=0 n=1\n0 input 0\n", "s=0 n=1"),
        ("n=1=1 s=0\n0 input 0\n", "n=1=1 s=0"),
        ("n=1 s=0\n0 input\n", "0 input"),
        ("n=1 s=0\n0 input 0.5\n", "0 input 0.5"),
        ("n=1 s=0\n0\n", "0"),
        ("n=1 s=0\n0 input 0\n1 neg x\n", "1 neg x"),
        ("n=1 s=0\n0 input 0\n1 scale 0\n", "1 scale 0"),
        ("n=1 s=0\n0 input 0\n1 affine 1.0 0 w\n", "1 affine 1.0 0 w"),
        ("n=1 s=0\n0 input 0\nx neg 0\n", "x neg 0"),
    ])
    def test_malformed_text_names_the_line(self, text, line):
        with pytest.raises(TapeError, match=re.escape(repr(line))):
            tape_from_text(text)

    def test_problem_and_random_tapes_round_trip(self):
        tapes = [
            (ctor() if name == "mifflin2" else ctor(6, 9) if name == "lasso" else ctor(6)).tape
            for name, ctor in bench.PROBLEMS.items()
        ]
        rng = np.random.default_rng(5)
        tapes += [random_tape(rng, 3, n_ops=15) for _ in range(20)]
        for tape in tapes:
            assert tape_from_text(tape_to_text(tape)) == tape


class TestBuilderHelpers:
    def test_signed_zero_constants_are_distinct(self):
        # IEEE gives -0.0 + -0.0 = -0.0, so x + (-0.0) needs its own -0.0 node
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        assert tb.const(0.0).index != tb.const(-0.0).index
        assert tb.const(-0.0).index == tb.const(-0.0).index
        y = evaluate(tb.build(x + (-0.0)), [-0.0]).y
        assert y == 0.0 and np.signbit(y)

    def test_reflected_sub_and_abs(self):
        # 1.0 - abs(x) runs Expr.__abs__, then Expr.__rsub__ with the constant first
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(1.0 - abs(x))
        assert [node.op for node in tape.nodes] == ["input", "abs", "const", "sub"]
        assert tape.nodes[3].args == (2, 1)
        assert evaluate(tape, [-2.0]).y == -1.0

    def test_max_identity(self):
        tb = TapeBuilder(2)
        u, v = tb.inputs()
        tape = tb.build(tb.max_(u, v))
        for a, b in [(-2.0, 5.0), (3.0, 1.5), (0.0, 0.0)]:
            assert evaluate(tape, [a, b]).y == pytest.approx(max(a, b))

    def test_min_identity(self):
        tb = TapeBuilder(2)
        u, v = tb.inputs()
        tape = tb.build(tb.min_(u, v))
        assert evaluate(tape, [4.0, -1.0]).y == pytest.approx(-1.0)

    def test_max_list_balanced(self):
        tb = TapeBuilder(3)
        xs = tb.inputs()
        tape = tb.build(tb.max_list([tb.square(x) for x in xs]))
        assert evaluate(tape, [1.0, -3.0, 2.0]).y == pytest.approx(9.0)

    def test_three_kink_from_max_helpers(self):
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.max_(tb.max_(x, 2.0 * x + 1.0), tb.const(0.0)))
        for xv in np.linspace(-2, 1, 13):
            assert evaluate(tape, [xv]).y == pytest.approx(max(0.0, xv, 2 * xv + 1))


def _mixed_builders():
    (x,), (y,) = TapeBuilder(1).inputs(), TapeBuilder(1).inputs()
    return x + y


def _foreign_output():
    (x,) = TapeBuilder(1).inputs()
    return TapeBuilder(1).build(x)


@pytest.mark.parametrize("call, error, match", [
    (lambda: Tape(nodes=(TapeNode("bogus"),), num_inputs=0, output=0), TapeError,
     "node 0: unknown op 'bogus'"),
    (lambda: Tape(nodes=(TapeNode("const", value=1.0),), num_inputs=0, output=1), TapeError,
     "output index out of range"),
    (lambda: evaluate(bench.mifflin2().tape, [1.0]), ValueError,
     re.escape("expected input of length 2, got (1,)")),
    (_mixed_builders, TapeError, "mixing expressions from different builders"),
    (lambda: TapeBuilder(1).max_list([]), TapeError, "max_list needs at least one expression"),
    (_foreign_output, TapeError, "output belongs to a different builder"),
    (lambda: tape_from_text("n=1 s=0\n1 input 0\n"), TapeError, "node index out of order"),
    (lambda: tape_from_text("n=1 s=1\n0 input 0\n"), TapeError,
     "header switch count does not match abs nodes"),
], ids=["unknown-op", "output-range", "input-length", "mixed-builders", "empty-max-list",
        "foreign-output", "text-index-order", "text-switch-count"])
def test_argument_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _affine_pair(seed, n=5):
    """One random function recorded twice: with ``affine`` nodes, and with
    each affine node written as a ``const`` plus a ``scale``/``add`` chain.

    Operands are inputs, abs outputs and switching arguments (read after
    their abs, so as z), each at most twice.  Every record column then gets
    at most two nonzero terms, which sum exactly in any order, so only the
    constant column may differ between the two tapes."""
    tapes = []
    for use_affine in (True, False):
        rng = np.random.default_rng(seed)
        tb = TapeBuilder(n)
        xs = tb.inputs()

        def combo(pool):
            picks = rng.permutation(len(pool))[:rng.integers(2, len(pool) + 1)]
            picks = np.concatenate([picks, picks[:rng.integers(0, 3)]])  # repeats
            ops = [pool[k] for k in rng.permutation(picks)]
            w, const = rng.normal(size=len(ops)), float(rng.normal())
            if use_affine:
                return tb.affine(w, ops, const)
            e = tb.const(const)
            for wk, op in zip(w, ops):
                e = e + tb.scale(float(wk), op)
            return e

        pool = list(xs)
        pool.append(tb.abs(xs[-1]))  # the input xs[-1] becomes switching argument z_0
        for _ in range(2):
            u = xs[rng.integers(n - 1)] - float(rng.normal()) * xs[rng.integers(n - 1)]
            pool += [u, tb.abs(u)]
        r1 = combo(pool)
        pool += [r1, tb.abs(r1)]
        tapes.append(tb.build(combo(pool)))
    return tapes


_X0 = TapeNode("input", value=0)


class TestAffine:
    def test_tapes_compare_by_value(self):
        a, b = bench.constrained_lasso(3, 4).tape, bench.constrained_lasso(3, 4).tape
        a.program  # cached in __dict__, unseen by __eq__
        assert a == b
        idx = next(j for j, node in enumerate(b.nodes) if node.op == "affine")
        node = b.nodes[idx]
        weights = (node.weights[0] + 1.0,) + node.weights[1:]
        for changed_node in (replace(node, weights=weights), replace(node, args=node.args[::-1])):
            nodes = b.nodes[:idx] + (changed_node,) + b.nodes[idx + 1:]
            assert a != Tape(nodes=nodes, num_inputs=b.num_inputs, output=b.output)
        assert tape_from_text(tape_to_text(a)) == a

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scale_add_chain(self, seed):
        aff, chain = _affine_pair(seed)
        assert len(aff.nodes) < len(chain.nodes) and aff.num_switch == chain.num_switch == 4
        rng = np.random.default_rng(100 + seed)
        for _ in range(3):
            xbar = rng.normal(size=5)
            fa, fc = abs_linearize(aff, xbar), abs_linearize(chain, xbar)
            for name in ("Z", "M", "L", "a", "b", "babs"):
                np.testing.assert_array_equal(getattr(fa, name), getattr(fc, name), err_msg=name)
            np.testing.assert_allclose(fa.c, fc.c, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(fa.d, fc.d, rtol=1e-14, atol=0.0)
            ra, rc = evaluate(aff, xbar), evaluate(chain, xbar)
            np.testing.assert_allclose(ra.y, rc.y, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(ra.z, rc.z, rtol=1e-14, atol=0.0)

    def test_operand_tuple_repeated_across_abs(self):
        # abs(x0) rewrites x0's record: the second affine node, with the same
        # operands as the first, reads x0 as z_0, so a = [1, 4] and b = [1]
        tb = TapeBuilder(2)
        x0, x1 = tb.inputs()
        before = tb.affine([1.0, 2.0], [x0, x1])
        kink = tb.abs(x0)
        after = tb.affine([1.0, 2.0], [x0, x1])
        form = abs_linearize(tb.build(before + after + kink), [0.5, -1.0])
        np.testing.assert_array_equal(form.Z, [[1.0, 0.0]])
        np.testing.assert_array_equal(form.c, [0.5])
        np.testing.assert_array_equal(form.a, [1.0, 4.0])
        np.testing.assert_array_equal(form.b, [1.0])
        np.testing.assert_array_equal(form.babs, [1.0])
        assert form.d == -3.5

    @pytest.mark.parametrize("seed", range(5))
    def test_directional_fd_matches_model(self, seed):
        # the tape is piecewise linear, so the model is exact near xbar
        tape, _ = _affine_pair(seed)
        rng = np.random.default_rng(200 + seed)
        xbar, d = rng.normal(size=5), rng.normal(size=5)
        form = abs_linearize(tape, xbar)
        fbar = evaluate(tape, xbar).y
        h = 1e-6
        slope = delta_eval(form, fbar, h * d) / h
        assert directional_fd(tape, xbar, d, h) == pytest.approx(slope, rel=1e-6, abs=1e-6)

    def test_directional_fd_on_squared_residual(self):
        # 0.5 (2 x0 - x1 + 3)^2 + |x1|: slope along d is r (2 d0 - d1) + sign(x1) d1
        tb = TapeBuilder(2)
        x0, x1 = tb.inputs()
        r = tb.affine([2.0, -1.0], [x0, x1], 3.0)
        tape = tb.build(tb.scale(0.5, tb.square(r)) + tb.abs(x1))
        xbar, d = np.array([0.3, -0.7]), np.array([1.0, 0.5])
        form = abs_linearize(tape, xbar)
        exact = (2 * 0.3 + 0.7 + 3.0) * (2.0 - 0.5) - 0.5
        assert delta_eval(form, evaluate(tape, xbar).y, 1e-4 * d) / 1e-4 == pytest.approx(exact, abs=1e-9)
        assert directional_fd(tape, xbar, d, 1e-7) == pytest.approx(exact, abs=1e-5)

    def test_text_round_trip_bit_exact(self):
        tape, _ = _affine_pair(3)
        text = tape_to_text(tape)
        back = tape_from_text(text)
        assert tape_to_text(back) == text
        assert back == tape
        for node, orig in zip(back.nodes, tape.nodes):
            if orig.op == "affine":
                assert np.array(node.weights).tobytes() == np.array(orig.weights).tobytes()
                assert np.float64(node.value).tobytes() == np.float64(orig.value).tobytes()
        x = np.random.default_rng(1).normal(size=5)
        assert evaluate(back, x).y == evaluate(tape, x).y

    def test_weights_are_copied_and_read_only(self):
        tb = TapeBuilder(2)
        xs = tb.inputs()
        w = np.array([1.0, 2.0])
        tape = tb.build(tb.affine(w, xs))
        w[0] = 7.0
        assert evaluate(tape, [1.0, 1.0]).y == 3.0
        assert tape.nodes[2].weights == (1.0, 2.0)
        with pytest.raises(TypeError):
            tape.nodes[2].weights[0] = 5.0
        with pytest.raises(FrozenInstanceError):
            tape.nodes[2].weights = (5.0, 2.0)

    @pytest.mark.parametrize("nodes, match", [
        ((_X0, TapeNode("affine")), "cannot take 0 operands"),
        ((_X0, TapeNode("affine", (1,), weights=(1.0,))), "precede"),
        ((_X0, TapeNode("affine", (-1,), weights=(1.0,))), "precede"),
        ((TapeNode("affine", (1,), weights=(1.0,)), _X0), "precede"),
        ((_X0, TapeNode("affine", (0,), weights=(1.0, 2.0))), "one per operand"),
        ((_X0, TapeNode("affine", (0, 0), weights=(1.0,))), "one per operand"),
        ((_X0, TapeNode("affine", (0,), weights=(np.nan,))), "finite"),
        ((_X0, TapeNode("affine", (0, 0), weights=(1.0, np.inf))), "finite"),
        ((_X0, TapeNode("add", (0,))), "cannot take 1 operands"),
        ((_X0, TapeNode("neg", (0,), weights=(1.0,))), "weights go on affine nodes"),
        ((_X0, TapeNode("input", value=1)), "out of range"),
    ], ids=["no-operand", "itself", "negative-operand", "later-node", "extra-weight",
            "missing-weight", "nan-weight", "inf-weight", "binary-with-one-operand",
            "weights-not-affine", "input-slot-out-of-range"])
    def test_validation_errors(self, nodes, match):
        with pytest.raises(TapeError, match=match):
            Tape(nodes=nodes, num_inputs=1, output=len(nodes) - 1)

    def test_negative_input_count(self):
        with pytest.raises(TapeError, match="num_inputs must be nonnegative"):
            Tape(nodes=(TapeNode("const", value=1.0),), num_inputs=-1, output=0)
        tb = TapeBuilder(-1)
        with pytest.raises(TapeError, match="num_inputs must be nonnegative"):
            tb.build(tb.const(1.0))

    def test_builder_and_text_errors(self):
        tb, other = TapeBuilder(2), TapeBuilder(2)
        xs = tb.inputs()
        with pytest.raises(TapeError):
            tb.affine([1.0, 1.0], [xs[0], other.inputs()[1]])
        with pytest.raises(TapeError):
            tb.affine([1.0], [2.0])
        with pytest.raises(TapeError):
            tb.build(tb.affine([1.0, np.inf], xs))
        with pytest.raises(TapeError):
            tb.affine([[1.0], [2.0]], xs)
        with pytest.raises(TapeError):
            tape_from_text("n=1 s=0\n0 input 0\n1 affine 0.0 0\n")


def _plan_cases():
    """(tape, point) pairs: the three benchmark tapes at their start points
    and 30 random tapes."""
    for inst in (bench.chained_lq(100), bench.maxq(20, "C2"), bench.constrained_lasso(50, 100, seed=0)):
        yield inst.tape, inst.x0
    rng = np.random.default_rng(11)
    for _ in range(30):
        yield random_tape(rng, 3, n_ops=15), rng.uniform(-1, 1, size=3)


def _operands(tape, idx):
    return set(tape.nodes[idx].args)


class TestReleasePlan:
    """The linearization's row plan: which row holds each record, and when
    a row is taken again."""

    def test_each_operand_released_once_at_its_last_reader(self):
        # every read finds its record still in its row: a row is taken
        # again at the earliest by its record's last reader, which reads all
        # its operands before it writes
        for tape, _ in _plan_cases():
            program = tape.program
            held = {}
            written = []
            for group, (writes, reads) in zip(program.linearization, program.record_keys):
                rows = [r for rows in group.ins for r in np.ravel(rows).tolist()]
                assert [held[r] for r in rows] == reads
                held.update(zip(group.out.tolist(), writes))
                written += writes
            assert held[program.out_row] == program.out_src
            assert len(written) == len(set(written))
            if tape.num_switch > 5:  # the bench tapes: rows are reused
                assert program.rows < len(written)

    def test_built_on_first_linearization_and_kept(self):
        tape = bench.constrained_lasso(5, 8).tape
        assert "program" not in vars(tape)
        abs_linearize(tape, np.zeros(5))
        program = tape.program
        abs_linearize(tape, np.ones(5))
        evaluate(tape, np.ones(5))
        assert tape.program is program
        assert tape == bench.constrained_lasso(5, 8).tape

    def test_releasing_nothing_gives_the_same_form(self, monkeypatch):
        # plans with no row reused, and with the tape in one segment, give
        # the same bytes as the default plan
        import absfw.tape_program as tape_mod

        def forms():
            return [abs_linearize(tape, x) for tape, x in _plan_cases()]

        want = forms()
        with monkeypatch.context() as m:
            m.setattr(tape_mod, "heapq", SimpleNamespace(heappop=heapq.heappop, heappush=lambda heap, row: None))
            kept = forms()
        with monkeypatch.context() as m:
            m.setattr(tape_mod, "_BUDGET", 1 << 40)
            whole = forms()
        with monkeypatch.context() as m:
            m.setattr(tape_mod, "_BUDGET", 1)  # one node per segment
            split = forms()
        for plan in (kept, whole, split):
            for got, form in zip(plan, want):
                _assert_same_form(got, form)

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 20, 200])
    def test_segments_make_at_most_the_budget(self, monkeypatch, budget):
        # budget in rows: a segment makes at most that many records unless
        # it is one node, and the plan holds at most the records live at a
        # segment's start plus the larger of the budget and what it makes
        import absfw.tape_program as tape_mod

        rng = np.random.default_rng(31)
        tapes = [tape for tape, _ in _plan_cases()]
        tapes += [random_tape(rng, 2, n_ops=int(rng.integers(1, 6))) for _ in range(30)]
        calls = spy(monkeypatch, tape_mod.TapeProgram, "_segments")
        for tape in tapes:
            monkeypatch.setattr(tape_mod, "_BUDGET", budget * 8 * (1 + tape.num_inputs + 2 * tape.num_switch))
            program = tape_mod.TapeProgram(tape)
            ranges = calls[-1].result
            starts = [g for g, group in enumerate(program.linearization) if group.op == "leaf"]
            assert len(starts) == len(ranges)
            written, last = {}, {}
            for g, (writes, reads) in enumerate(program.record_keys):
                written.update(dict.fromkeys(writes, g))
                last.update(dict.fromkeys(reads, g))
            last[program.out_src] = len(program.linearization)
            # live at group a: written before a, last read at a or later
            w = np.sort(list(written.values()))
            r = np.sort([last.get(k, g) for k, g in written.items()])
            live = np.searchsorted(w, starts) - np.searchsorted(r, starts)
            peak = 0
            for (lo, hi, _), a, b, held in zip(ranges, starts, starts[1:] + [None], live):
                made = sum(len(writes) for writes, _ in program.record_keys[a:b])
                assert made <= budget or hi - lo == 1
                peak = max(peak, held + max(budget, made))
            assert program.rows <= peak


_FORM_BLOCKS = ("Z", "M", "L", "a", "b", "babs", "c")


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_form(got, want):
    for name in _FORM_BLOCKS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert _bits(got.d) == _bits(want.d)


def _assert_matches_loop(tape, x):
    """The compiled program's record and form are the node-by-node loop's,
    byte for byte, signed zeros included."""
    rec, want = evaluate(tape, x), tape_reference.evaluate(tape, x)
    for name in ("values", "z", "y"):
        assert _bits(getattr(rec, name)) == _bits(getattr(want, name)), name
    _assert_same_form(abs_linearize(tape, x, rec), tape_reference.abs_linearize(tape, x, want))


class TestMatchesNodeLoop:
    def test_random_tapes(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            tape = random_tape(rng, n, n_ops=int(rng.integers(1, 40)), p_abs=float(rng.uniform(0.1, 0.6)))
            for _ in range(3):
                _assert_matches_loop(tape, rng.uniform(-1, 1, size=n))
            _assert_matches_loop(tape, np.zeros(n))  # kinks at 0 and signed zeros

    @pytest.mark.parametrize("seed", range(20))
    def test_affine_pairs(self, seed):
        rng = np.random.default_rng(300 + seed)
        for tape in _affine_pair(seed):
            for _ in range(2):
                _assert_matches_loop(tape, rng.normal(size=5))

    def test_abs_arguments_read_again(self):
        # the affine operand tuple read again after abs(x0), and two abs
        # nodes on one input: the second freezes z_0, not x's record
        tb = TapeBuilder(2)
        x0, x1 = tb.inputs()
        before = tb.affine([1.0, 2.0], [x0, x1])
        kink = tb.abs(x0)
        after = tb.affine([1.0, 2.0], [x0, x1])
        repeated = tb.build(before + after + kink)
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        twice = tb.build(-tb.abs(x) - tb.abs(x))
        for tape, x in ((repeated, [0.5, -1.0]), (repeated, [0.0, -0.0]), (twice, [0.3]), (twice, [-0.0])):
            _assert_matches_loop(tape, np.array(x))
        np.testing.assert_array_equal(abs_linearize(twice, [0.3]).M, [[0.0, 0.0], [1.0, 0.0]])

    def test_edge_tapes(self):
        # the output an input, a constant or an abs node; the output read by
        # a later abs; a dead chain of adds after the output
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tapes = [tb.build(x), tb.build(tb.abs(x))]
        tb = TapeBuilder(0)
        tapes.append(tb.build(tb.const(-0.0)))
        tapes.append(Tape(nodes=(_X0, TapeNode("abs", (0,))), num_inputs=1, output=0))
        tb = TapeBuilder(2)
        u, v = tb.inputs()
        total = ((u + v) + u) + v
        recorded = tb.build((total + u) + v)
        tapes.append(Tape(nodes=recorded.nodes, num_inputs=2, output=total.index))
        for tape in tapes:
            for x in (np.full(tape.num_inputs, 0.3), np.full(tape.num_inputs, -0.0)):
                _assert_matches_loop(tape, x)

    @pytest.mark.parametrize("name", ["chained_lq-n100", "maxq_C2-n20", "lasso_box-n50-p100"])
    def test_bench_runs_at_every_iterate(self, name, monkeypatch):
        # the three benchmark runs, with the loop checked at each call
        import absfw.asfw as asfw_mod

        inst, iters = {
            "chained_lq-n100": (lambda: bench.chained_lq(100), 5),
            "maxq_C2-n20": (lambda: bench.maxq(20, "C2"), 200),
            "lasso_box-n50-p100": (lambda: bench.constrained_lasso(50, 100, seed=0), 20),
        }[name]
        inst = inst()
        points = []

        def spy(x, *rest):
            points.append(np.array(x))
            _assert_matches_loop(inst.tape, x)
            return (abs_linearize if rest else evaluate)(inst.tape, x, *rest)

        monkeypatch.setattr(asfw_mod, "evaluate", lambda tape, x: spy(x))
        monkeypatch.setattr(asfw_mod, "abs_linearize", lambda tape, x, rec: spy(x, rec))
        res = asfw_run(inst.tape, inst.C, inst.x0, StepRule.open_loop_sqrt(), max_iters=iters)
        assert len(points) >= 2 * len(res.trace.rows)


class TestCompiledWork:
    """Pinned shapes of the three benchmark tapes' programs, and of a wide
    LASSO tape, each of whose residual nodes reads more leaves (200 inputs)
    than the budget's 109 rows: a fall back to one group per node changes
    these counts, and so do leaves made again in each segment that reads
    them (2,414 groups on the wide tape)."""

    @pytest.mark.parametrize("build, nodes, groups", [
        (lambda: bench.chained_lq(100), 1191, (9, 58)),
        (lambda: bench.maxq(20, "C2"), 135, (21, 22)),
        (lambda: bench.constrained_lasso(50, 100, seed=0), 553, (6, 8)),
        (lambda: bench.constrained_lasso(200, 400), 2203, (6, 72)),
    ], ids=["chained_lq-n100", "maxq_C2-n20", "lasso_box-n50-p100", "lasso-n200-p400"])
    def test_group_counts(self, build, nodes, groups):
        tape = build().tape
        program = tape.program
        assert len(tape.nodes) == nodes
        assert (len(program.evaluation), len(program.linearization)) == groups

    def test_linearization_memory_is_bounded(self):
        # the records stay within the budget: the peak is about 0.67 MB,
        # where the whole tape's records would take 2.8 MB
        inst = bench.chained_lq(100)
        rec = evaluate(inst.tape, inst.x0)
        abs_linearize(inst.tape, inst.x0, rec)
        tracemalloc.start()
        try:
            abs_linearize(inst.tape, inst.x0, rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
