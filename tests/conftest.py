import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import absfw.lp as lpmod
from absfw.tape import TapeBuilder


def build_three_kink_max():
    """max(0, x, 2x+1) written with three nested switching variables:
    z1 = x+1, z2 = 3x+1+|z1|, z3 = |z1|+|z2|, y = 0.25*(3x+1+|z3|)."""
    tb = TapeBuilder(1)
    (x,) = tb.inputs()
    w1 = tb.abs(x + 1.0)
    w2 = tb.abs(3.0 * x + 1.0 + w1)
    w3 = tb.abs(w1 + w2)
    return tb.build(0.25 * (3.0 * x + 1.0 + w3))


def build_mifflin2():
    """-x1 + 2(x1^2+x2^2-1) + 1.75|x1^2+x2^2-1|."""
    tb = TapeBuilder(2)
    x1, x2 = tb.inputs()
    q = tb.square(x1) + tb.square(x2) - 1.0
    w = tb.abs(q)
    return tb.build(-x1 + 2.0 * q + 1.75 * w)


def build_abs_x():
    tb = TapeBuilder(1)
    (x,) = tb.inputs()
    return tb.build(tb.abs(x))


def build_square():
    tb = TapeBuilder(1)
    (x,) = tb.inputs()
    return tb.build(tb.square(x))


@pytest.fixture
def three_kink_max():
    return build_three_kink_max()


@pytest.fixture
def mifflin2_tape():
    return build_mifflin2()


@pytest.fixture
def abs_tape():
    return build_abs_x()


@pytest.fixture
def square_tape():
    return build_square()


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


Call = namedtuple("Call", "args kwargs result")


def spy(mp, owner, name):
    """Patch ``owner.name`` through ``mp`` (``monkeypatch`` or a
    ``pytest.MonkeyPatch.context()``) with a call-through that appends one
    ``Call(args, kwargs, result)`` per call to the returned list.  A method
    patched on its class gets ``self`` as ``args[0]``."""
    calls = []
    real = getattr(owner, name)

    def spying(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(Call(args, kwargs, result))
        return result

    mp.setattr(owner, name, spying)
    return calls


@pytest.fixture
def phase1_calls(monkeypatch):
    """One ``Call`` per run of the simplex's phase 1."""
    return spy(monkeypatch, lpmod, "_phase1")


@pytest.fixture
def lp_solves(monkeypatch):
    """One ``Call`` per ``lp.solve``: ``args[0]`` is the problem, ``result`` the solution."""
    return spy(monkeypatch, lpmod, "solve")
