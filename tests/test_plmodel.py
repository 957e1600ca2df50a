import re
from dataclasses import replace

import numpy as np
import pytest

from absfw import bench
from absfw.tape import abs_linearize, evaluate
from absfw.plmodel import (
    AbsLinearForm,
    eval_pl,
    delta_eval,
    signature,
    restrict,
    signature_constraints,
    affine_substitute,
    form_to_text,
    form_from_text,
)
from absfw.randgen import random_pl_form, random_tape


@pytest.fixture
def abs_form(abs_tape):
    return abs_linearize(abs_tape, [1.0])


@pytest.fixture
def kink3_form(three_kink_max):
    return abs_linearize(three_kink_max, [0.0])


class TestEvalPl:
    def test_three_kink_value_at_zero(self, kink3_form):
        value, z = eval_pl(kink3_form, [0.0])
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(z, [1.0, 2.0, 3.0])

    def test_abs_form_far_step(self, abs_form):
        value, _ = eval_pl(abs_form, [-3.0])
        assert value == pytest.approx(2.0)  # = f(1 - 3) = |-2|

    def test_mifflin_step(self, mifflin2_tape):
        xbar = [-1.8, 1.8]
        fbar = evaluate(mifflin2_tape, xbar).y
        form = abs_linearize(mifflin2_tape, xbar)
        value, _ = eval_pl(form, [0.1, 0.0])
        assert value == pytest.approx(fbar - 1.45)


class TestDeltaEval:
    def test_zero_step_is_zero(self, kink3_form):
        assert delta_eval(kink3_form, 1.0, [0.0]) == 0.0

    def test_abs_half_step(self, abs_form):
        assert delta_eval(abs_form, 1.0, [0.5]) == pytest.approx(0.5)

    def test_mifflin(self, mifflin2_tape):
        xbar = [-1.8, 1.8]
        fbar = evaluate(mifflin2_tape, xbar).y
        form = abs_linearize(mifflin2_tape, xbar)
        assert delta_eval(form, fbar, [0.1, 0.0]) == pytest.approx(-1.45)


class TestSignature:
    def test_three_kink_at_minus_half(self, kink3_form):
        np.testing.assert_array_equal(signature(kink3_form, [-0.5]), [1, 0, 1])

    def test_abs_at_center(self, abs_form):
        np.testing.assert_array_equal(signature(abs_form, [0.0]), [1])

    def test_abs_exact_zero(self, abs_form):
        np.testing.assert_array_equal(signature(abs_form, [-1.0]), [0])

    def test_tolerance_scales_with_c(self, abs_form):
        assert signature(abs_form, [-1.0 + 1e-12])[0] == 0
        assert signature(abs_form, [-1.0 + 1e-6])[0] == 1

    def test_small_terms_keep_their_sign(self):
        # maxq C2 n=20 at 1e-7 times its start: every switching value is
        # below 1e-10, but so are the terms that form it, so none is a kink
        inst = bench.maxq(20, "C2")
        form = abs_linearize(inst.tape, 1e-7 * inst.x0)
        assert np.all(np.abs(form.c) < 1e-10)
        assert np.all(signature(form, np.zeros(20)) != 0)


class TestRestrict:
    def test_abs_positive_branch(self, abs_form):
        res = restrict(abs_form, [1])
        np.testing.assert_allclose(res.R, [[1.0]])
        np.testing.assert_allclose(res.r, [1.0])
        assert res.g[0] == pytest.approx(1.0)
        assert res.h == pytest.approx(1.0)

    def test_consistency_with_eval(self, kink3_form):
        for dx in np.linspace(-2.0, 2.0, 9):
            sig = signature(kink3_form, [dx])
            res = restrict(kink3_form, sig)
            value, _ = eval_pl(kink3_form, [dx])
            assert res.g @ [dx] + res.h == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_three_kink_all_positive_piece(self, kink3_form):
        # on x > 0 the function is 2x+1
        res = restrict(kink3_form, [1, 1, 1])
        np.testing.assert_allclose(res.g, [2.0])
        assert res.h == pytest.approx(1.0)


class TestSignatureConstraints:
    def test_abs_inequality(self, abs_form):
        Aeq, beq, Ain, bin_ = signature_constraints(restrict(abs_form, [1]), [1])
        assert Aeq.shape == (0, 1) and beq.shape == (0,)
        # -(1+dx) <= 0, i.e. a=-1, b=1
        np.testing.assert_allclose(Ain, [[-1.0]])
        np.testing.assert_allclose(bin_, [1.0])

    def test_abs_equality(self, abs_form):
        Aeq, beq, Ain, bin_ = signature_constraints(restrict(abs_form, [0]), [0])
        assert Ain.shape == (0, 1) and bin_.shape == (0,)
        np.testing.assert_allclose(Aeq, [[1.0]])
        np.testing.assert_allclose(beq, [-1.0])

    def test_three_kink_all_positive(self, kink3_form):
        Aeq, _, Ain, bin_ = signature_constraints(restrict(kink3_form, [1, 1, 1]), [1, 1, 1])
        # z1 = 1+x >= 0, z2 = 2+4x >= 0, z3 = 3+5x >= 0
        assert Aeq.shape == (0, 1)
        np.testing.assert_allclose(Ain, [[-1.0], [-4.0], [-5.0]])
        np.testing.assert_allclose(bin_, [1.0, 2.0, 3.0])

    def test_constraints_hold_at_matching_points(self, kink3_form, rng):
        for _ in range(40):
            dx = rng.uniform(-2, 2, size=1)
            sig = signature(kink3_form, dx)
            Aeq, beq, Ain, bin_ = signature_constraints(restrict(kink3_form, sig), sig)
            assert len(beq) + len(bin_) == kink3_form.s
            np.testing.assert_allclose(Aeq @ dx, beq, atol=1e-9)
            assert np.all(Ain @ dx <= bin_ + 1e-9)


class TestAffineSubstitute:
    def test_identity(self, kink3_form):
        out = affine_substitute(kink3_form, 1.0, [0.0])
        np.testing.assert_array_equal(out.Z, kink3_form.Z)
        np.testing.assert_array_equal(out.c, kink3_form.c)
        assert out.d == kink3_form.d

    def test_matches_composition(self, abs_form, rng):
        alpha = 0.37
        sub = affine_substitute(abs_form, alpha, [-alpha * 1.0])
        for v in rng.uniform(-4, 4, size=10):
            direct, _ = eval_pl(abs_form, [alpha * (v - 1.0)])
            viasub, _ = eval_pl(sub, [v])
            assert viasub == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_round_trip(self, kink3_form):
        alpha, w = 0.25, np.array([0.8])
        fwd = affine_substitute(kink3_form, alpha, w)
        back = affine_substitute(fwd, 1.0 / alpha, -w / alpha)
        np.testing.assert_allclose(back.Z, kink3_form.Z, atol=1e-14)
        np.testing.assert_allclose(back.c, kink3_form.c, atol=1e-14)
        np.testing.assert_allclose(back.a, kink3_form.a, atol=1e-14)
        assert back.d == pytest.approx(kink3_form.d, abs=1e-14)


    def test_shares_the_blocks_it_keeps(self, kink3_form):
        sub = affine_substitute(kink3_form, 0.5, [0.25])
        for name in ("M", "L", "b", "babs"):
            assert np.shares_memory(getattr(sub, name), getattr(kink3_form, name))
        for name in ("Z", "M", "L", "a", "b", "babs", "c"):
            assert not getattr(sub, name).flags.writeable
        assert sub.chain is kink3_form.chain

    @pytest.mark.parametrize("scale, shift", [(1e308, [0.0]), (1.0, [1e308]), (np.nan, [0.0])])
    def test_non_finite_result_rejected(self, kink3_form, scale, shift):
        # computed without overflow warnings: the ValueError reports it
        with pytest.raises(ValueError, match="form data must be finite"):
            affine_substitute(kink3_form, scale, shift)

    def test_shift_length_checked(self, kink3_form):
        with pytest.raises(ValueError, match="shift has wrong length"):
            affine_substitute(kink3_form, 1.0, [0.0, 0.0])


class TestFormProperties:
    def test_eval_matches_restriction_random_forms(self, rng):
        for k in range(20):
            form = random_pl_form(rng, n=3, s=5, convex=bool(k % 2))
            for _ in range(10):
                dx = rng.uniform(-2, 2, size=3)
                sig = signature(form, dx)
                res = restrict(form, sig)
                value, _ = eval_pl(form, dx)
                assert res.g @ dx + res.h == pytest.approx(value, rel=1e-12, abs=1e-10)

    def test_positive_homogeneity_near_zero(self, rng):
        # signature domains are convex, so matching signatures at d and at a
        # tiny multiple of d pin the whole ray segment inside one domain
        checked = 0
        for k in range(30):
            form = random_pl_form(rng, n=2, s=4, convex=False)
            d0 = rng.uniform(-1, 1, size=2)
            sig = signature(form, d0)
            if np.any(sig == 0) or not np.array_equal(signature(form, 1e-7 * d0), sig):
                continue
            value0 = eval_pl(form, np.zeros(2))[0]
            base = delta_eval(form, value0, d0)
            for tau in (0.9, 0.5, 0.11, 1e-3):
                got = delta_eval(form, value0, tau * d0)
                assert got == pytest.approx(tau * base, rel=1e-9, abs=1e-9)
                checked += 1
        assert checked > 10

    def test_triangularity_random_tapes(self, rng):
        for _ in range(10):
            tape = random_tape(rng, 3, n_ops=15)
            form = abs_linearize(tape, rng.uniform(-1, 1, size=3))
            assert np.all(np.triu(form.M) == 0)
            assert np.all(np.triu(form.L) == 0)

    def test_serialization_round_trip(self, rng):
        form = random_pl_form(rng, n=3, s=4, convex=True)
        back = form_from_text(form_to_text(form))
        for name in ("Z", "M", "L", "a", "b", "babs", "c"):
            np.testing.assert_array_equal(getattr(back, name), getattr(form, name))
        assert back.d == form.d

    def test_golden_file(self, three_kink_max):
        from pathlib import Path
        from absfw.tape import abs_linearize

        golden = Path(__file__).parent / "data" / "three_kink_form.txt"
        form = abs_linearize(three_kink_max, [0.0])
        assert form_to_text(form) == golden.read_text()
        back = form_from_text(golden.read_text())
        value, z = eval_pl(back, [0.0])
        assert value == 1.0
        np.testing.assert_array_equal(z, [1.0, 2.0, 3.0])

    def test_forms_are_frozen(self, kink3_form):
        with pytest.raises(ValueError):
            kink3_form.Z[0, 0] = 5.0

    @pytest.mark.parametrize("block, entry", [("M", (0, 1)), ("L", (0, 1)), ("M", (1, 1)), ("L", (0, 0))])
    def test_entries_on_or_above_diagonal_rejected(self, block, entry):
        # eval_pl reads only the strict lower triangle, the lifted LPs all of
        # I - M - L: with M[0, 1] = 5, aasm_minimize on [-2, 2] from 0
        # returned psi = -1/12 at v = -1/12, where the model is 1/3
        data = dict(n=1, s=2, Z=[[1.0], [1.0]], M=np.zeros((2, 2)), L=np.zeros((2, 2)),
                    a=[0.0], b=[0.0, 0.0], babs=[1.0, -1.0], c=[0.5, 0.0], d=0.0)
        text = form_to_text(AbsLinearForm(**data))
        data[block][entry] = 5.0
        with pytest.raises(ValueError, match="strictly lower triangular"):
            AbsLinearForm(**data)
        row = ["0.0"] * 4
        row[2 * entry[0] + entry[1]] = "5.0"
        bad = text.replace(f"{block} 0.0 0.0 0.0 0.0", " ".join([block] + row))
        assert bad != text
        with pytest.raises(ValueError, match="strictly lower triangular"):
            form_from_text(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block, entry", [("Z", (1, 0)), ("M", (1, 0)), ("L", (1, 0)), ("a", 0),
                                              ("b", 1), ("babs", 0), ("c", 1), ("d", None)])
    def test_non_finite_entries_rejected(self, block, entry, value):
        # signature() would cast a NaN switching value to int
        data = dict(n=1, s=2, Z=[[1.0], [1.0]], M=np.zeros((2, 2)), L=np.zeros((2, 2)),
                    a=[0.0], b=[0.0, 0.0], babs=[1.0, -1.0], c=[0.5, 0.0], d=0.0)
        if entry is None:
            data[block] = value
        else:
            data[block] = np.array(data[block], dtype=float)
            data[block][entry] = value
        with pytest.raises(ValueError, match="form data must be finite"):
            AbsLinearForm(**data)

    def test_non_finite_text_rejected(self):
        with pytest.raises(ValueError, match="form data must be finite"):
            form_from_text("1 1\nZ nan\nM 0\nL 0\na 1\nb 0\nbabs 1\nc 0.5\nd 0\n")

    @pytest.mark.parametrize("edit, match", [
        (lambda t: "", "bad header line ''"),
        (lambda t: t.replace("1 3\n", "1\n"), "bad header line '1'"),
        (lambda t: t.replace("1 3\n", "1 x\n"), "bad header line '1 x'"),
        (lambda t: t.replace("\nd 0.25\n", "\n"), "missing blocks d"),
        (lambda t: t.replace("\nZ 1.0 ", "\nZ x "), "bad block line 'Z x "),
        (lambda t: t.replace("\nd 0.25", "\nd 0.25 1.0"), "bad block line 'd 0.25 1.0'"),
        (lambda t: t + "q 1.0\n", "bad block line 'q 1.0'"),
        (lambda t: t + "d 2.0\n", "bad block line 'd 2.0': block given twice"),
    ], ids=["empty", "short-header", "non-numeric-header", "missing-block",
            "non-numeric-entry", "wrong-length", "unknown-block", "duplicate-block"])
    def test_malformed_text_names_the_line(self, kink3_form, edit, match):
        text = form_to_text(kink3_form)
        bad = edit(text)
        assert bad != text
        with pytest.raises(ValueError, match=re.escape(match)):
            form_from_text(bad)


class TestBoundary:
    """``AbsLinearForm(...)`` takes each block at its shape, or flat with
    exactly as many entries, as ``form_from_text`` passes it."""

    @staticmethod
    def data():
        return dict(n=3, s=2, Z=np.ones((2, 3)), M=np.zeros((2, 2)), L=np.zeros((2, 2)),
                    a=np.zeros(3), b=np.zeros(2), babs=np.ones(2), c=np.zeros(2), d=0.0)

    @pytest.mark.parametrize("block, value, match", [
        ("Z", np.ones((3, 2)), r"Z has shape \(3, 2\), not \(2, 3\)"),
        ("Z", np.ones(5), r"Z has shape \(5,\), not \(2, 3\)"),
        ("M", np.zeros((1, 4)), r"M has shape \(1, 4\), not \(2, 2\)"),
        ("a", np.zeros(2), r"a has shape \(2,\), not \(3,\)"),
        ("c", np.zeros((2, 1)), r"c has shape \(2, 1\), not \(2,\)"),
    ], ids=["Z-transposed", "Z-flat-short", "M-1x4", "a-short", "c-column"])
    def test_wrong_shape_names_the_block(self, block, value, match):
        AbsLinearForm(**self.data())
        with pytest.raises(ValueError, match=match):
            AbsLinearForm(**{**self.data(), block: value})

    def test_flat_blocks_read_row_by_row(self):
        form = AbsLinearForm(**{**self.data(), "Z": np.arange(6.0)})
        np.testing.assert_array_equal(form.Z, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        back = form_from_text(form_to_text(form))
        assert back.Z.tobytes() == form.Z.tobytes() and back.Z.shape == (2, 3)


@pytest.mark.parametrize("call, match", [
    (lambda f: restrict(f, [1, 1]), "sigma has wrong length"),
    (lambda f: affine_substitute(f, 0.0, [0.0]), "scale must be nonzero"),
], ids=["restrict-sigma-length", "substitute-zero-scale"])
def test_argument_errors(kink3_form, call, match):
    with pytest.raises(ValueError, match=match):
        call(kink3_form)


def _substitute_every_row(form, dx):
    """Forward substitution through all s rows, the reference for eval_pl."""
    z = np.empty(form.s)
    base = form.c + form.Z @ dx
    for i in range(form.s):
        z[i] = base[i] + form.M[i, :i] @ z[:i] + form.L[i, :i] @ np.abs(z[:i])
    return float(form.d + form.a @ dx + form.b @ z + form.babs @ np.abs(z)), z


class TestDependentRowSubstitution:
    def test_matches_every_row_substitution(self, rng):
        dependent = 0
        for k in range(10):
            form = random_pl_form(rng, n=3, s=6, convex=bool(k % 2))
            some = rng.random(form.s) < 0.5
            for f in (
                form,
                replace(form, M=np.zeros_like(form.M), L=np.zeros_like(form.L)),
                replace(form, M=form.M * some[:, None], L=form.L * some[:, None]),
            ):
                dependent += int(np.count_nonzero(f.M.any(axis=1) | f.L.any(axis=1)))
                for _ in range(5):
                    dx = rng.uniform(-2, 2, size=3)
                    value, z = eval_pl(f, dx)
                    ref_value, ref_z = _substitute_every_row(f, dx)
                    np.testing.assert_array_equal(z, ref_z)
                    assert value == ref_value
        assert dependent > 0
