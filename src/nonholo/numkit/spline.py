"""Not-a-knot cubic spline interpolation in numpy.

``cubic_spline(x, y)`` is the interpolant of scipy's ``CubicSpline`` with its
default not-a-knot ends (de Boor, *A Practical Guide to Splines*, 1978): C²
at every knot and, with four or more knots, C³ across the second and the
second-to-last knot.  It agrees with scipy's to round-off, not bit for bit.
Two knots give the line and three the parabola through them, as scipy's
special cases do.

The knot slopes solve scipy's tridiagonal system.  Substituting its two end
rows into their neighbours leaves a strictly diagonally dominant system for
the interior slopes, which cyclic reduction solves with one vectorised
numpy pass per halving, with no pivoting and every value column at once.
"""

import numpy as np


class PiecewisePolynomial:
    """Piecewise polynomial in local power form, as scipy's ``PPoly``.

    On [x[i], x[i+1]] the value is sum_k c[k, i] (t - x[i])**(K - 1 - k) for
    the K coefficients c[:, i], each of the value's shape.  Points before
    x[0] or after x[-1] take the first or last piece's polynomial.
    """

    def __init__(self, x, c):
        self.x = x
        self.c = c

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)
        d = (t - self.x[i]).reshape(t.shape + (1,) * (self.c.ndim - 2))
        c = self.c[:, i]
        out = c[0]
        for ck in c[1:]:
            out = out * d + ck
        return out

    def derivative(self):
        k = len(self.c)
        factor = np.arange(k - 1, 0, -1, dtype=float).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return PiecewisePolynomial(self.x, self.c[:-1] * factor)


def _cyclic_reduction(a, b, c, d):
    """x with a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i], for d of shape (n, m).

    a[0] and c[-1] must be 0.  The even unknowns are eliminated from the odd
    rows, the half-size system for the odd unknowns is solved the same way,
    and the even unknowns follow from their own rows.  Stable without
    pivoting for a strictly diagonally dominant matrix, which stays so under
    each halving.
    """
    n = len(b)
    if n == 1:
        return d / b[:, None]
    if n % 2 == 0:
        # an identity row makes every odd row's two neighbours exist
        a, b, c = np.append(a, 0.0), np.append(b, 1.0), np.append(c, 0.0)
        d = np.concatenate([d, np.zeros((1, d.shape[1]))])
    ae, be, ce, de = a[0::2], b[0::2], c[0::2], d[0::2]
    ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[1::2]
    left = -ao / be[:-1]
    right = -co / be[1:]
    odd = _cyclic_reduction(
        left * ae[:-1],
        bo + left * ce[:-1] + right * ae[1:],
        right * ce[1:],
        do + left[:, None] * de[:-1] + right[:, None] * de[1:],
    )
    zero = np.zeros((1, d.shape[1]))
    padded = np.concatenate([zero, odd, zero])
    x = np.empty_like(d)
    x[0::2] = (de - ae[:, None] * padded[:-1] - ce[:, None] * padded[1:]) / be[:, None]
    x[1::2] = odd
    return x[:n]


def _knot_slopes(x, dx, slope):
    """Derivatives at the knots of the not-a-knot spline, shape (n, m)."""
    n = len(x)
    if n == 2:
        return np.concatenate([slope, slope])
    if n == 3:
        # the parabola through the three points
        mid = (dx[1] * slope[0] + dx[0] * slope[1]) / (x[2] - x[0])
        return np.stack([2.0 * slope[0] - mid, mid, 2.0 * slope[1] - mid])
    h = dx[:, None]
    # scipy's rows: interior i is dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    # = r[i]; the first is dx[1] s[0] + d0 s[1] = r0, the last d1 s[n-2] + dx[-2] s[n-1] = r1
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    r0 = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    r1 = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    lower, diag, upper = dx[1:].copy(), 2.0 * (dx[:-1] + dx[1:]), dx[:-1].copy()
    rhs = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    # the first row times one, subtracted from the second, removes s[0]; the
    # last row likewise removes s[n-1] from the row before it
    diag[0], rhs[0] = 2.0 * (dx[0] + dx[1]) - d0, rhs[0] - r0
    diag[-1], rhs[-1] = 2.0 * (dx[-2] + dx[-1]) - d1, rhs[-1] - r1
    lower[0] = upper[-1] = 0.0
    inner = _cyclic_reduction(lower, diag, upper, rhs)
    first = (r0 - d0 * inner[0]) / dx[1]
    last = (r1 - d1 * inner[-1]) / dx[-2]
    return np.concatenate([first[None], inner, last[None]])


def cubic_spline(x, y):
    """Not-a-knot cubic interpolant of y at the increasing knots x (n >= 2).

    y has shape (n, ...); the spline's values have shape y.shape[1:].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    flat = y.reshape(len(x), -1)
    dx = np.diff(x)
    h = dx[:, None]
    slope = np.diff(flat, axis=0) / h
    s = _knot_slopes(x, dx, slope)
    # Hermite cubic on each piece from its end values and slopes
    t = (s[:-1] + s[1:] - 2.0 * slope) / h
    c = np.stack([t / h, (slope - s[:-1]) / h - t, s[:-1], flat[:-1]])
    return PiecewisePolynomial(x, c.reshape((4, len(x) - 1) + y.shape[1:]))
