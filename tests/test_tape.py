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
from absfw.plmodel import delta_eval, eval_pl
from absfw.randgen import random_tape


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
        rec = evaluate(three_kink_max, [0.7])
        for node, slot in three_kink_max.switch_index.items():
            assert rec.values[node] == pytest.approx(abs(rec.z[slot]))

    def test_mifflin_value(self, mifflin2_tape):
        assert evaluate(mifflin2_tape, [-1.8, 1.8]).y == pytest.approx(
            1.8 + 2 * 5.48 + 1.75 * 5.48
        )

    def test_overflow_reports_node(self):
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.exp(tb.square(tb.exp(x))))
        with pytest.raises(EvaluationError):
            evaluate(tape, [100.0])


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


class TestSwitchSlots:
    def test_two_abs_chain_slots_follow_node_order(self):
        # |x| feeds a second abs, so slot 1 depends on slot 0; the slots are
        # the abs nodes' ranks, and no table can order them otherwise
        tb = TapeBuilder(1)
        (x,) = tb.inputs()
        tape = tb.build(tb.abs(tb.abs(x) - 1.0))  # abs nodes 1 and 4
        assert tape.switch_index == {1: 0, 4: 1}
        assert tape_from_text(tape_to_text(tape)).switch_index == {1: 0, 4: 1}
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


class TestBuilderHelpers:
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


class TestAffine:
    def test_tapes_compare_by_value(self):
        a, b = bench.constrained_lasso(3, 4).tape, bench.constrained_lasso(3, 4).tape
        assert a.affine and a == b
        idx = next(iter(b.affine))
        args, w = b.affine[idx]
        for args2, w2 in ((args, w + np.eye(1, w.size)[0]), (args[::-1], w)):
            changed = Tape(nodes=b.nodes, num_inputs=b.num_inputs, output=b.output,
                           affine={**b.affine, idx: (args2, w2)})
            assert a != changed
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
        assert back.affine.keys() == tape.affine.keys()
        for idx, (args, w) in tape.affine.items():
            np.testing.assert_array_equal(back.affine[idx][0], args)
            assert back.affine[idx][1].tobytes() == w.tobytes()
            assert back.nodes[idx].value == tape.nodes[idx].value
        x = np.random.default_rng(1).normal(size=5)
        assert evaluate(back, x).y == evaluate(tape, x).y

    def test_weights_are_copied_and_read_only(self):
        tb = TapeBuilder(2)
        xs = tb.inputs()
        w = np.array([1.0, 2.0])
        tape = tb.build(tb.affine(w, xs))
        w[0] = 7.0
        assert evaluate(tape, [1.0, 1.0]).y == 3.0
        with pytest.raises(ValueError):
            tape.affine[2][1][0] = 5.0

    @pytest.mark.parametrize("nodes, table", [
        ((TapeNode("input", a=0), TapeNode("affine")), {}),  # no table entry
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([], [])}),  # no operand
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([1], [1.0])}),  # itself
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([-1], [1.0])}),
        ((TapeNode("affine"), TapeNode("input", a=0)), {0: ([1], [1.0])}),  # later node
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([0], [1.0, 2.0])}),
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([0, 0], [1.0])}),
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([0], [np.nan])}),
        ((TapeNode("input", a=0), TapeNode("affine")), {1: ([0, 0], [1.0, np.inf])}),
        ((TapeNode("input", a=0), TapeNode("neg", a=0)), {1: ([0], [1.0])}),  # not affine
    ])
    def test_validation_errors(self, nodes, table):
        with pytest.raises(TapeError):
            Tape(nodes=nodes, num_inputs=1, output=len(nodes) - 1, affine=table)

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
    node = tape.nodes[idx]
    if node.op == "affine":
        return set(tape.affine[idx][0].tolist())
    if node.op == "input":
        return set()  # its ``a`` is an input slot
    return {k for k in (node.a, node.b) if k >= 0}


class TestReleasePlan:
    def test_each_operand_released_once_at_its_last_reader(self):
        for tape, _ in _plan_cases():
            released = [(k, idx) for idx, ks in enumerate(tape.release) for k in ks]
            nodes = [k for k, _ in released]
            assert len(nodes) == len(set(nodes)) and tape.output not in nodes
            read = set().union(*(_operands(tape, idx) for idx in range(len(tape.nodes))))
            assert set(nodes) == read - {tape.output}
            for k, idx in released:
                assert k in _operands(tape, idx)
                assert not any(k in _operands(tape, j) for j in range(idx + 1, len(tape.nodes)))

    def test_built_on_first_linearization_and_kept(self):
        tape = bench.constrained_lasso(5, 8).tape
        assert "release" not in vars(tape)
        abs_linearize(tape, np.zeros(5))
        plan = tape.release
        abs_linearize(tape, np.ones(5))
        assert tape.release is plan

    def test_releasing_nothing_gives_the_same_form(self, monkeypatch):
        cases = list(_plan_cases())
        forms = [abs_linearize(tape, x) for tape, x in cases]
        monkeypatch.setattr(Tape, "release", property(lambda self: [()] * len(self.nodes)))
        for (tape, x), form in zip(cases, forms):
            kept = abs_linearize(tape, x)
            for name in ("Z", "M", "L", "a", "b", "babs", "c"):
                np.testing.assert_array_equal(getattr(kept, name), getattr(form, name), err_msg=name)
            assert kept.d == form.d
