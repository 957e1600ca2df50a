import numpy as np
import pytest

from absfw.polyhedron import Polyhedron, box, cube, contains, intersect


class TestContains:
    def test_box_center(self):
        assert contains(cube(3, 5.0), np.zeros(3))

    def test_within_tolerance(self):
        x = np.array([5.0 + 1e-12, 0.0, 0.0])
        assert contains(cube(3, 5.0), x, 1e-9)

    def test_outside(self):
        assert not contains(cube(3, 5.0), np.array([6.0, 0.0, 0.0]))

    def test_rows_checked(self):
        P = intersect(cube(2, 5.0), Ain=[[1.0, 1.0]], bin=[1.0])
        assert contains(P, np.array([0.4, 0.5]))
        assert not contains(P, np.array([1.0, 1.0]))

    def test_equality_rows(self):
        P = intersect(cube(2, 5.0), Aeq=[[1.0, -1.0]], beq=[0.0])
        assert contains(P, np.array([2.0, 2.0]))
        assert not contains(P, np.array([2.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(cube(3, 1.0), np.zeros(2))


class TestIntersect:
    def test_empty_is_identity(self):
        P = cube(2, 5.0)
        Q = intersect(P)
        for name in ("Aeq", "beq", "Ain", "bin", "lo", "hi"):
            np.testing.assert_array_equal(getattr(Q, name), getattr(P, name))

    def test_concatenates(self):
        P = intersect(cube(2, 5.0), Ain=[[-1.0, 0.0]], bin=[0.0])
        assert P.Ain.shape == (1, 2)
        assert contains(P, np.array([1.0, 0.0]))
        assert not contains(P, np.array([-1.0, 0.0]))
        Q = intersect(P, Ain=[[0.0, 1.0]], bin=[2.0])  # appended below P's rows
        np.testing.assert_array_equal(Q.Ain, [[-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(Q.bin, [0.0, 2.0])

    def test_monotone_chain(self):
        n = 5
        rows = np.zeros((n - 1, n))
        for i in range(n - 1):
            rows[i, i], rows[i, i + 1] = 1.0, -1.0
        P = intersect(cube(n, 5.0), Ain=rows, bin=np.zeros(n - 1))
        assert contains(P, np.linspace(-1, 1, n))
        assert not contains(P, np.linspace(1, -1, n))

    def test_subset_property(self, rng):
        P = cube(3, 5.0)
        Q = intersect(P, Ain=rng.normal(size=(1, 3)), bin=[0.5])
        for _ in range(50):
            x = rng.uniform(-6, 6, size=3)
            if contains(Q, x, 1e-9):
                assert contains(P, x, 1e-9)


class TestValidation:
    def test_bounds_order_enforced(self):
        with pytest.raises(ValueError):
            box([1.0], [0.0])

    def test_row_dims_enforced(self):
        with pytest.raises(ValueError):
            Polyhedron(
                Aeq=np.zeros((2, 3)), beq=np.zeros(1),
                Ain=np.zeros((0, 3)), bin=np.zeros(0),
                lo=-np.ones(3), hi=np.ones(3),
            )

    @pytest.mark.parametrize("field, entry, value, match", [
        ("lo", 0, np.nan, "bounds"),
        ("hi", 1, np.nan, "bounds"),
        ("lo", 0, np.inf, "bounds"),
        ("hi", 1, -np.inf, "bounds"),
        ("Aeq", (0, 1), np.nan, "rows"),
        ("beq", 0, np.inf, "rows"),
        ("Ain", (0, 0), np.nan, "rows"),
        ("Ain", (0, 1), -np.inf, "rows"),
        ("bin", 0, np.nan, "rows"),
    ])
    def test_non_finite_data_rejected(self, field, entry, value, match):
        # NaN compares false, so a NaN bound or row would pass every later
        # test and the LP be solved OPTIMAL at a meaningless point
        def data():
            return dict(Aeq=np.ones((1, 2)), beq=np.ones(1), Ain=np.ones((1, 2)), bin=np.ones(1),
                        lo=np.array([0.0, -np.inf]), hi=np.array([np.inf, 1.0]))

        Polyhedron(**data())  # infinite bounds of their own sign are fine
        bad = data()
        bad[field][entry] = value  # an infinite bound pairs with one of its own sign
        with pytest.raises(ValueError, match=match):
            Polyhedron(**bad)

    def test_boxedness(self):
        assert cube(2, 1.0).is_boxed()
        assert not box([-1.0], [np.inf]).is_boxed()


class TestBoundary:
    """``Polyhedron(...)`` copies, shape-checks and freezes every array it is
    given, so the checks it made hold for as long as it lives."""

    def test_caller_edits_do_not_reach_it(self):
        data = dict(Aeq=np.ones((1, 2)), beq=np.ones(1), Ain=np.ones((1, 2)), bin=np.ones(1),
                    lo=np.zeros(2), hi=np.ones(2))
        P = Polyhedron(**data)
        kept = {name: arr.copy() for name, arr in data.items()}
        for arr in data.values():
            arr[0] = np.nan  # in Aeq, solve raised LpError
        for name, arr in kept.items():
            np.testing.assert_array_equal(getattr(P, name), arr)
            assert not getattr(P, name).flags.writeable

    def test_box_keeps_its_bounds(self):
        lo = np.zeros(2)
        P = box(lo, np.ones(2))
        lo[0] = 5.0  # would put P.lo above P.hi
        np.testing.assert_array_equal(P.lo, [0.0, 0.0])

    @pytest.mark.parametrize("make, match", [
        (lambda: Polyhedron(Aeq=(), beq=(), Ain=(), bin=(), lo=[0.0, 0.0], hi=[1.0]),
         r"hi has shape \(1,\), not \(2,\)"),
        (lambda: box([0.0, 0.0, 0.0], [1.0, 1.0]), r"hi has shape \(2,\), not \(3,\)"),
        (lambda: box([[0.0, 0.0]], [1.0, 1.0]), r"lo has shape \(1, 2\), not \(2,\)"),
        (lambda: Polyhedron(Aeq=[[1.0, 2.0, 3.0, 4.0]], beq=[1.0, 2.0], Ain=(), bin=(),
                            lo=[0.0, 0.0], hi=[1.0, 1.0]),
         r"Aeq has shape \(1, 4\), not \(2, 2\)"),
        (lambda: intersect(cube(2, 1.0), Aeq=[[1.0, 2.0, 3.0, 4.0]], beq=[1.0, 2.0]),
         r"Aeq has shape \(1, 4\), not \(2, 2\)"),
        (lambda: intersect(cube(2, 1.0), Ain=[[1.0, 2.0]], bin=[1.0, 2.0]),
         r"Ain has shape \(1, 2\), not \(2, 2\)"),
        (lambda: intersect(cube(2, 1.0), Ain=[1.0, 2.0, 3.0], bin=[1.0]),
         r"Ain has shape \(3,\), not \(1, 2\)"),
    ], ids=["hi-short", "box-hi-short", "lo-2d", "Aeq-1x4", "intersect-Aeq-1x4",
            "intersect-Ain-rows", "intersect-flat-Ain-long"])
    def test_wrong_shape_names_the_block(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_flat_row_accepted(self):
        P = intersect(cube(2, 1.0), Ain=[1.0, -1.0], bin=[0.0])
        np.testing.assert_array_equal(P.Ain, [[1.0, -1.0]])
        assert contains(P, np.array([0.0, 0.5])) and not contains(P, np.array([0.5, 0.0]))
