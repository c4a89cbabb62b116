"""Tests of the staggered-grid FD operators (paper Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fd


def _padded_field(n=24, ndim=3):
    rng = np.random.default_rng(0)
    shape = tuple(n for _ in range(ndim))
    return rng.standard_normal(shape)


class TestCoefficients:
    def test_eq3_values(self):
        assert fd.C1 == 9.0 / 8.0
        assert fd.C2 == -1.0 / 24.0

    def test_unit_gradient_is_exact(self):
        # Consistency: sum of coefficients reproduces d/dx(x) = 1.
        assert fd.C1 + 3 * fd.C2 == pytest.approx(1.0)

    def test_ghost_width_matches_stencil(self):
        # The 4th-order stencil reaches 2 cells: the paper's two-cell padding.
        assert fd.NGHOST == 2


class TestPolynomialExactness:
    """The 4th-order staggered operator differentiates quartics exactly."""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    def test_quartic_exact(self, axis, direction):
        n, h = 20, 0.37
        coef = np.array([0.3, -1.2, 0.5, 0.11, -0.07])
        x = np.arange(n) * h
        if direction == "fwd":
            # samples at integers, derivative evaluated at half points
            xs, xd = x, x + h / 2
            op = fd.diff4_fwd
        else:
            xs, xd = x, x - h / 2
            op = fd.diff4_bwd
        poly = np.polynomial.polynomial.polyval(xs, coef)
        dpoly = np.polynomial.polynomial.polyval(
            xd, np.polynomial.polynomial.polyder(coef))
        shape = [6, 6, 6]
        shape[axis] = n
        f = np.broadcast_to(
            poly.reshape([n if a == axis else 1 for a in range(3)]),
            shape).copy()
        out = op(f, axis, h)
        got = fd.interior(out)
        want_1d = dpoly[fd.NGHOST:n - fd.NGHOST]
        want = np.broadcast_to(
            want_1d.reshape([len(want_1d) if a == axis else 1 for a in range(3)]),
            got.shape)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-9)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_second_order_linear_exact(self, axis):
        n, h = 16, 0.5
        x = np.arange(n) * h
        shape = [5, 5, 5]
        shape[axis] = n
        f = np.broadcast_to(
            (2.0 * x + 1.0).reshape([n if a == axis else 1 for a in range(3)]),
            shape).copy()
        for op in (fd.diff2_fwd, fd.diff2_bwd):
            got = fd.interior(op(f, axis, h))
            assert np.allclose(got, 2.0)


class TestConvergenceOrder:
    def _error(self, n, order):
        h = 2 * np.pi / n
        x = np.arange(n) * h
        f3 = np.broadcast_to(np.sin(x)[:, None, None], (n, 8, 8)).copy()
        out = fd.diff_fwd(f3, 0, h, order=order)
        xi = x[fd.NGHOST:-fd.NGHOST] + h / 2
        want = np.cos(xi)
        got = fd.interior(out)[:, 0, 0]
        return np.abs(got - want).max()

    def test_fourth_order_convergence(self):
        e1, e2 = self._error(32, 4), self._error(64, 4)
        rate = np.log2(e1 / e2)
        assert 3.7 < rate < 4.3

    def test_second_order_convergence(self):
        e1, e2 = self._error(32, 2), self._error(64, 2)
        rate = np.log2(e1 / e2)
        assert 1.8 < rate < 2.2

    def test_fourth_more_accurate_than_second(self):
        assert self._error(48, 4) < self._error(48, 2) / 10


class TestInteriorContract:
    def test_ghost_cells_untouched(self):
        f = _padded_field()
        out = np.full_like(f, 123.0)
        fd.diff4_fwd(f, 0, 1.0, out=out)
        # every ghost position keeps its sentinel
        mask = np.ones_like(out, dtype=bool)
        mask[2:-2, 2:-2, 2:-2] = False
        assert np.all(out[mask] == 123.0)

    def test_out_is_returned(self):
        f = _padded_field()
        out = np.zeros_like(f)
        assert fd.diff4_bwd(f, 1, 1.0, out=out) is out

    def test_invalid_order_raises(self):
        f = _padded_field()
        with pytest.raises(ValueError, match="order"):
            fd.diff_fwd(f, 0, 1.0, order=6)
        with pytest.raises(ValueError, match="order"):
            fd.diff_bwd(f, 0, 1.0, order=3)


class TestSpanStencil:
    """``diff_span`` is the unit-stride form of the ``diff*`` reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("fwd", [True, False])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_interior_bitwise_equal_to_reference(self, axis, fwd, order,
                                                 dtype):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((13, 11, 9)).astype(dtype)
        ref = (fd.diff_fwd if fwd else fd.diff_bwd)(
            f, axis, 37.5, order=order, work=np.zeros((9, 7, 5), dtype))
        lo, hi = fd.interior_span(f.shape)
        out = np.zeros_like(f)
        work = np.zeros_like(f)
        stride = (11 * 9, 9, 1)[axis]
        fd.diff_span(f.reshape(-1), lo, hi, stride, 37.5, order, fwd,
                     out=out.reshape(-1)[lo:hi],
                     work=work.reshape(-1)[lo:hi])
        assert fd.interior(out).tobytes() == fd.interior(ref).tobytes()

    def test_span_bounds(self):
        shape = (7, 6, 5)
        lo, hi = fd.interior_span(shape)
        flat = np.arange(np.prod(shape)).reshape(shape)
        assert lo == flat[2, 2, 2] and hi == flat[-3, -3, -3] + 1
        # the x ghost planes lie outside the span, nothing interior does
        assert flat[:2].max() < lo and flat[-2:].min() >= hi
        inner = fd.interior(flat)
        assert inner.min() == lo and inner.max() == hi - 1

    def test_out_of_bounds_and_order_rejected(self):
        f = np.zeros(6 * 6 * 6)
        buf = np.zeros(10)
        with pytest.raises(ValueError, match="outside"):
            fd.diff_span(f, 0, 10, 1, 1.0, out=buf, work=buf)
        with pytest.raises(ValueError, match="order"):
            fd.diff_span(f, 90, 100, 1, 1.0, order=6, out=buf, work=buf)


class TestOperatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2), st.floats(0.1, 10.0),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, axis, h, a, b):
        rng = np.random.default_rng(42)
        f = rng.standard_normal((12, 12, 12))
        g = rng.standard_normal((12, 12, 12))
        lhs = fd.interior(fd.diff4_fwd(a * f + b * g, axis, h))
        rhs = (a * fd.interior(fd.diff4_fwd(f, axis, h))
               + b * fd.interior(fd.diff4_fwd(g, axis, h)))
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2))
    def test_constant_field_has_zero_derivative(self, axis):
        f = np.full((10, 10, 10), 3.7)
        for op in (fd.diff4_fwd, fd.diff4_bwd, fd.diff2_fwd, fd.diff2_bwd):
            assert np.allclose(fd.interior(op(f, axis, 1.0)), 0.0)

    def test_fwd_bwd_adjoint_negation(self):
        """<diff_fwd f, g> = -<f, diff_bwd g> on periodic data (summation by parts)."""
        n = 16
        rng = np.random.default_rng(1)
        base_f = rng.standard_normal(n)
        base_g = rng.standard_normal(n)
        # Build periodic padded arrays so boundary terms cancel.
        f = np.tile(base_f, 3)[n - 2:2 * n + 2]
        g = np.tile(base_g, 3)[n - 2:2 * n + 2]
        f3 = np.broadcast_to(f[:, None, None], (f.size, 5, 5)).copy()
        g3 = np.broadcast_to(g[:, None, None], (g.size, 5, 5)).copy()
        df = fd.interior(fd.diff4_fwd(f3, 0, 1.0))[:, 0, 0]
        dg = fd.interior(fd.diff4_bwd(g3, 0, 1.0))[:, 0, 0]
        fi = f[2:-2]
        gi = g[2:-2]
        # Use the periodic core (n samples) for the inner products.
        lhs = np.dot(df[:n], gi[:n])
        rhs = -np.dot(fi[:n], dg[:n])
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
